"""Command-line front end: validation, exit codes, reproducibility, worker
independence, environment seed override."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import flowlab
from flowlab import BrownianDriver, ContractError, builtin, cli, integrate_derivative_flow, schedule_for
from flowlab.flow import write_trajectory_csv


def run_cli(args, env_extra=None):
    # resolve flowlab by absolute path, whatever directory pytest starts in
    env = dict(os.environ)
    env.pop("FLOWLAB_SEED", None)
    src = str(Path(flowlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "flowlab.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


class TestValidation:
    def test_malformed_json_line_precise(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"scenario": "ou(1)",\n  "paths": }\n')
        proc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        assert "bad.json:2" in proc.stderr

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # used to end in a raw UnicodeDecodeError traceback with exit code 1
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"scenario": "\xff"}')
        assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_schema_violation_names_key(self, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text('{"scenario": "ou(1)", "dt": -0.5}')
        proc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        assert "dt" in proc.stderr

    def test_unknown_scenario(self, tmp_path):
        proc = run_cli(["certify", "--scenario", "nope", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2

    def test_both_scenario_and_spec_rejected(self, tmp_path):
        spec = tmp_path / "sys.json"
        spec.write_text(json.dumps({"dim": 1, "noise_dim": 1,
                                    "diffusion": [["1"]], "drift": ["0"]}))
        proc = run_cli(["certify", "--scenario", "ou(1)", "--system-spec", str(spec),
                        "--out", str(tmp_path / "o")])
        assert proc.returncode == 2

    def test_malformed_list_flag(self, tmp_path):
        # used to end in a raw ValueError traceback with exit code 1
        proc = run_cli(["stopped-moments", "--radii", "1,x", "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        assert "--radii" in proc.stderr and "Traceback" not in proc.stderr

    def test_non_integer_env_seed(self, tmp_path):
        proc = run_cli(["certify", "--out", str(tmp_path / "o")], env_extra={"FLOWLAB_SEED": "12x"})
        assert proc.returncode == 2
        assert "FLOWLAB_SEED" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad", [{"noise_dim": None}, {"model": "flat"}, {"dim": "two"},
                                     {"drift": ["0"]}], ids=["no-noise-dim", "model-string",
                                                             "dim-word", "short-drift"])
    def test_malformed_system_spec_exits_2(self, tmp_path, capsys, bad):
        # each used to end in a raw KeyError, AttributeError or ValueError
        # traceback with exit code 1
        spec = {"dim": 2, "noise_dim": 2, "diffusion": [["1", "0"], ["0", "1"]], "drift": ["0", "0"]}
        spec = {k: v for k, v in {**spec, **bad}.items() if v is not None}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system_spec": spec, "paths": 2, "t": 0.02, "dt": 0.01}))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "system spec" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, where", [
        ("missing.json", "cannot read system spec"),
        ("latin1.json", "cannot read system spec"),
        ("bad.json", "bad.json:2:1:"),
        ('{"dim": 1, ]', "inline system spec:1:12:"),
    ], ids=["missing-file", "not-utf8-file", "bad-json-file", "bad-json-string"])
    def test_unreadable_system_spec_exits_2(self, tmp_path, capsys, spec, where):
        # used to end in a raw FileNotFoundError, UnicodeDecodeError or
        # JSONDecodeError traceback with exit code 1
        (tmp_path / "bad.json").write_text('{"dim": 1,\n}\n')
        (tmp_path / "latin1.json").write_bytes(b'{"dim": "\xff"}')
        if spec.endswith(".json"):
            spec = str(tmp_path / spec)
        assert cli.main(["simulate", "--system-spec", spec, "--out", str(tmp_path / "o")]) == 2
        assert where in capsys.readouterr().err

    def test_invalid_estimate_exit_code(self, monkeypatch, tmp_path):
        monkeypatch.setitem(cli._HANDLERS, "radial",
                            lambda cfg, scn, workers: ({"bad": True}, None, True))
        rc = cli.run("radial", {"scenario": "ou(1)", "paths": 1},
                     out_dir=str(tmp_path), fmt="json")
        assert rc == 3

    def test_a_nan_log_space_estimate_exits_3(self, monkeypatch, tmp_path):
        # log(x) at a negative x gives a NaN exponent, which sends the mean to
        # log space; it used to report "value": "nan" unflagged, with exit 0
        monkeypatch.delenv("FLOWLAB_SEED", raising=False)
        rc = cli.main(["exp-functional", "--scenario", "ou(1)", "--f", "log(x)", "--x0", "0.05",
                       "--paths", "64", "--t", "0.1", "--dt", "0.01", "--out", str(tmp_path)])
        est = json.loads((tmp_path / "exp-functional.json").read_text())["results"]["estimate"]
        assert rc == 3 and est["log_space"] and est["invalid"] and est["value"] == "nan"


#: the Draft 2020-12 schema that checked configs before the config table; the
#: table must accept exactly what it accepts, bar the tightenings below
OLD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "scenario": {"type": "string"},
        "system_spec": {"type": ["string", "object"]},
        "seed": {"type": "integer", "minimum": 0},
        "paths": {"type": "integer", "minimum": 1},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "t": {"type": "number", "exclusiveMinimum": 0},
        "p": {"type": "number"},
        "theta": {"type": "number", "minimum": 0},
        "epsilon": {"type": "number", "minimum": 0},
        "x0": {"type": "array", "items": {"type": "number"}},
        "v0": {"type": "array", "items": {"type": "number"}},
        "grid": {"type": "array"},
        "radii": {"type": "array", "items": {"type": "number"}},
        "horizons": {"type": "array", "items": {"type": "number"}},
        "dts": {"type": "array", "items": {"type": "number"}},
        "theorems": {"type": "array", "items": {"type": "string"}},
        "backends": {"type": "array", "items": {"type": "string"}},
        "f": {"type": "string"},
        "eps_ladder": {"type": "array", "items": {"type": "number"}},
        "k0": {"type": "number"},
        "center": {"type": "array", "items": {"type": "number"}},
        "terminal": {"type": "boolean"},
        "n_directions": {"type": "integer", "minimum": 1},
        "filter_threshold": {"type": "number", "minimum": 0},
        "matrix": {"type": "array"},
    },
    "additionalProperties": False,
}

# finite numbers only: a non-finite number is one of the tightenings
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = (st.sampled_from([-1, 0, 1, 2, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.5, 2 ** 64 - 1])
           | st.integers(-(2 ** 64), 2 ** 64 - 1) | FINITE)
VALUES = st.recursive(st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
                      lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                      max_leaves=6)
OF_TYPE = {"number": NUMBERS, "integer": NUMBERS, "string": st.text(max_size=3),
           "boolean": st.booleans(), "object": st.dictionaries(st.text(max_size=2), VALUES, max_size=2),
           "array": st.lists(VALUES, max_size=3)}


@st.composite
def configs(draw):
    """Up to five keys, known or not; a known key's value is of its schema type
    (its bound and items unchecked) half of the time, any JSON value else."""
    props = OLD_SCHEMA["properties"]
    cfg = {}
    for key in draw(st.lists(st.sampled_from([*props, "bogus", "Seed"]), max_size=5, unique=True)):
        prop = props.get(key, {"type": []})
        typed = [OF_TYPE[t] for t in ([prop["type"]] if isinstance(prop["type"], str) else prop["type"])]
        if "items" in prop:
            typed = [st.lists(OF_TYPE[prop["items"]["type"]], max_size=3)]
        cfg[key] = draw(st.one_of(st.one_of(*typed), VALUES) if typed else VALUES)
    return cfg


class TestConfigTable:
    @settings(max_examples=1500, deadline=None)
    @given(configs())
    def test_accepts_what_the_old_schema_accepted(self, cfg):
        seed = cfg.get("seed")
        # a seed past 2^64 - 1 is one of the tightenings
        assume(isinstance(seed, bool) or not isinstance(seed, (int, float)) or seed < 2 ** 64)
        errors = list(jsonschema.Draft202012Validator(OLD_SCHEMA).iter_errors(cfg))
        try:
            cli._validate_config(cfg)
            message = None
        except cli.ConfigError as exc:
            message = str(exc)
        both = "scenario" in cfg and "system_spec" in cfg
        assert (message is None) == (not errors and not both), (cfg, errors, message)
        for e in errors:    # the key path, down to the key: "$" or "$.key"
            assert re.match(r"\$(\.\w+)?", e.json_path).group() + ": " in message

    def test_errors_name_their_key_paths_in_order(self):
        with pytest.raises(cli.ConfigError) as err:
            cli._validate_config({"seed": "x", "bogus": 1, "dt": -0.0, "x0": [1, None]})
        assert re.findall(r"(\$[.\w]*): ", str(err.value)) == ["$", "$.dt", "$.seed", "$.x0"]

    @pytest.mark.parametrize("cfg", [
        {"seed": True}, {"paths": True}, {"p": True}, {"x0": [1.0, False]},   # a bool is no number
        {"dt": -0.0}, {"t": -0.0}, {"dt": 0}, {"seed": -1}, {"paths": 0.0}, {"theta": -1e-300},
        {"n_directions": 1.5}, {"theorems": "Cor5.2"}, {"theorems": [1]}, {"grid": 1.0},
        {"terminal": 1}, {"system_spec": 3}, {"scenario": "ou(1)", "system_spec": "s.json"},
        {"nope": 1},
    ])
    def test_rejects(self, cfg):
        with pytest.raises(cli.ConfigError):
            cli._validate_config(cfg)

    @pytest.mark.parametrize("cfg", [
        {"seed": 2.0}, {"seed": 2 ** 64 - 1}, {"paths": 3.0}, {"n_directions": 4.0},
        {"grid": [[0, "a"], {}]}, {"matrix": [["x"]]}, {"system_spec": {"dim": 1}},
        {"epsilon": -0.0}, {"theta": 0}, {"p": -3}, {"x0": []},
    ])
    def test_accepts(self, cfg):
        cli._validate_config(cfg)

    def test_integral_floats_pass_as_integers(self, tmp_path, capsys):
        # seed 2.0 runs, and is recorded as given
        assert cli.run("certify", {"scenario": "ou(1)", "seed": 2.0, "theorems": ["Cor5.2"]},
                       str(tmp_path)) == 0
        assert json.loads((tmp_path / "certify.json").read_text())["seed"] == 2.0
        # and draws seed 2's numbers, although the driver takes only an int
        for seed, out in ((2.0, "a"), (2, "b")):
            assert cli.run("simulate", {"scenario": "ou(1)", "seed": seed, "paths": 2, "t": 0.02,
                                        "dt": 0.01}, str(tmp_path / out), fmt="csv") == 0
        assert (tmp_path / "a" / "simulate.csv").read_bytes() == (tmp_path / "b" / "simulate.csv").read_bytes()
        # so does every integer key: a whole-number float count used to reach
        # the library, which wants an int, and exit 2
        for paths, out in ((3.0, "c"), (3, "d")):
            assert cli.run("derivative-moments", {"paths": paths, "t": 0.01, "dt": 0.01},
                           str(tmp_path / out)) == 0
        c, d = (json.loads((tmp_path / out / "derivative-moments.json").read_text()) for out in "cd")
        assert c["results"] == d["results"] and c["config"]["paths"] == 3.0
        assert isinstance(c["config"]["paths"], float)
        assert cli.run("certify", {"n_directions": 4.0, "theorems": ["Cor5.2"]}, str(tmp_path / "e")) == 0

    @pytest.mark.parametrize("command, text, flags", [
        # certify with p = NaN used to report all four theorems "certified"
        ("certify", '{"scenario": "ou(1)", "p": NaN}', []),
        # exp-functional with theta = NaN used to report the value "nan"
        ("exp-functional", '{"scenario": "ou(1)", "theta": NaN, "paths": 4, "t": 0.01}', []),
        ("certify", '{"epsilon": Infinity}', []),
        ("radial", '{"radii": [1.0, -Infinity]}', []),
        ("certify", "{}", ["--p", "nan"]),
        ("derivative-moments", "{}", ["--t", "inf", "--paths", "4"]),
        ("simulate", "{}", ["--x0", "1,nan", "--paths", "2"]),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, monkeypatch, command, text, flags):
        monkeypatch.delenv("FLOWLAB_SEED", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, env", [
        (["--seed", str(2 ** 64)], None),
        (["--config", "SEED_FILE"], None),
        ([], str(2 ** 64)),
    ])
    def test_seeds_past_u64_exit_2(self, tmp_path, capsys, monkeypatch, flags, env):
        # BrownianDriver takes the seed mod 2^64: seed 2^64 drew seed 0's
        # numbers under another config hash
        monkeypatch.delenv("FLOWLAB_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("FLOWLAB_SEED", env)
        seed_file = tmp_path / "seed.json"
        seed_file.write_text(json.dumps({"seed": 2 ** 64}))
        flags = [str(seed_file) if f == "SEED_FILE" else f for f in flags]
        assert cli.main(["certify", *flags, "--out", str(tmp_path / "o")]) == 2
        assert "$.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"ou(1)"', "3", "null"])
    def test_config_file_must_be_an_object(self, tmp_path, text):
        # [1, 2] used to end in a raw TypeError traceback with exit status 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        proc = run_cli(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and "Traceback" not in proc.stderr

    def test_help_keeps_every_flag(self, monkeypatch):
        # the parser is built from the table: the same flags, metavars and
        # order as before it (argparse output of Python 3.11 at 80 columns)
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser().format_help() == HELP.replace("<DOC>", cli.__doc__)


HELP = """\
usage: flowlab [-h] [--config PATH] [--scenario SCENARIO]
               [--system-spec SYSTEM_SPEC] [--seed SEED] [--paths PATHS]
               [--dt DT] [--t T] [--p P] [--theta THETA] [--f F] [--k0 K0]
               [--radii A,B,...] [--horizons A,B,...] [--dts A,B,...]
               [--theorems A,B,...] [--x0 A,B,...] [--v0 A,B,...] [--terminal]
               [--workers WORKERS] [--out OUT] [--format {json,csv,both}]
               {simulate,derivative-moments,stopped-moments,exp-functional,radial,exponent,certify,hp-scan,semigroup-check,oracle-test,list-scenarios}

<DOC>
positional arguments:
  {simulate,derivative-moments,stopped-moments,exp-functional,radial,exponent,certify,hp-scan,semigroup-check,oracle-test,list-scenarios}

options:
  -h, --help            show this help message and exit
  --config PATH
  --scenario SCENARIO
  --system-spec SYSTEM_SPEC
  --seed SEED
  --paths PATHS
  --dt DT
  --t T
  --p P
  --theta THETA
  --f F
  --k0 K0
  --radii A,B,...
  --horizons A,B,...
  --dts A,B,...
  --theorems A,B,...
  --x0 A,B,...
  --v0 A,B,...
  --terminal
  --workers WORKERS
  --out OUT
  --format {json,csv,both}
"""


class TestReports:
    def test_report_self_describing(self, tmp_path):
        out = tmp_path / "r"
        proc = run_cli(["exponent", "--scenario", "ou(1)", "--paths", "200",
                        "--dt", "0.01", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((out / "exponent.json").read_text())
        assert rep["schema"] == "flowlab/1"
        assert rep["config"]["seed"] == 2026
        assert rep["config_hash"]
        assert rep["results"]["slope"] == pytest.approx(-1.0, abs=0.05)

    def test_rerun_byte_identical(self, tmp_path):
        args = ["stopped-moments", "--scenario", "ou(1)", "--paths", "300",
                "--dt", "0.01", "--t", "1.0", "--format", "both"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(a)]).returncode == 0
        assert run_cli(args + ["--out", str(b)]).returncode == 0
        assert (a / "stopped-moments.json").read_bytes() == (b / "stopped-moments.json").read_bytes()
        assert (a / "stopped-moments.csv").read_bytes() == (b / "stopped-moments.csv").read_bytes()

    # every chunked estimator: one worker runs all paths as one chunk, eight
    # split them into eight chunks on the fork pool
    @pytest.mark.parametrize("base", [
        pytest.param(["derivative-moments", "--scenario", "ou(1)", "--paths", "2500",
                      "--dt", "0.01", "--t", "0.5"], id="derivative-moments"),
        pytest.param(["stopped-moments", "--scenario", "kunita", "--paths", "1100",
                      "--dt", "0.01", "--t", "0.3", "--format", "both"],
                     id="stopped-moments"),
        pytest.param(["exp-functional", "--scenario", "ou(2)", "--paths", "1100",
                      "--dt", "0.01", "--t", "0.5"], id="exp-functional"),
        pytest.param(["radial", "--scenario", "ou(2)", "--paths", "1100",
                      "--dt", "0.01", "--t", "0.5", "--k0", "1.0"], id="radial"),
        pytest.param(["exponent", "--scenario", "ou(1)", "--paths", "1100",
                      "--dt", "0.01", "--format", "both"], id="exponent"),
        pytest.param(["semigroup-check", "--scenario", "ou(1)", "--paths", "1100",
                      "--dt", "0.01", "--t", "0.5"], id="semigroup-check"),
    ])
    def test_workers_do_not_change_bytes(self, tmp_path, base):
        a, b = tmp_path / "w1", tmp_path / "w8"
        assert run_cli(base + ["--workers", "1", "--out", str(a)]).returncode == 0
        assert run_cli(base + ["--workers", "8", "--out", str(b)]).returncode == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert f"{base[0]}.json" in names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_env_seed_override(self, tmp_path):
        out = tmp_path / "env"
        proc = run_cli(["certify", "--scenario", "ou(1)", "--seed", "7",
                        "--out", str(out)], env_extra={"FLOWLAB_SEED": "99"})
        assert proc.returncode == 0
        rep = json.loads((out / "certify.json").read_text())
        assert rep["seed"] == 99

    def test_simulate_csv_rfc4180(self, tmp_path):
        out = tmp_path / "sim"
        proc = run_cli(["simulate", "--scenario", "translation(2)", "--seed", "42",
                        "--paths", "2", "--dt", "0.1", "--t", "0.3",
                        "--format", "both", "--out", str(out)])
        assert proc.returncode == 0
        raw = (out / "simulate.csv").read_bytes()
        assert raw.count(b"\r\n") >= 9  # CRLF line endings, header + rows
        header = raw.split(b"\r\n")[0].decode()
        assert header == "path_id,step,time,x1,x2,v1,v2,exploded"
        rows = list(csv.reader(io.StringIO(raw.decode(), newline=""), strict=True))
        assert len(rows) == 2 * (3 + 1) + 1      # P (steps + 1) + header
        assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(p, k) for p in range(2) for k in range(4)]

    @pytest.mark.parametrize("cfg, rc", [
        ({"scenario": "sphere(3)", "paths": 3, "t": 0.2, "dt": 0.01, "seed": 5}, 0),
        # every path explodes, so the run is invalid
        ({"scenario": "kunita", "x0": [200.0, 200.0], "paths": 3, "t": 1.0, "dt": 0.01, "seed": 7}, 3),
    ], ids=["sphere", "kunita-exploding"])
    def test_simulate_path_k_is_stream_k(self, tmp_path, cfg, rc, capsys):
        # the batch must reproduce, bit for bit, path k integrated alone on stream k
        assert cli.run("simulate", dict(cfg), str(tmp_path), fmt="csv") == rc
        with open(tmp_path / "simulate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        d = (len(rows[0]) - 4) // 2
        x0 = [float(c) for c in rows[1][3:3 + d]]
        v0 = [float(c) for c in rows[1][3 + d:3 + 2 * d]]
        system = builtin(cfg["scenario"]).system
        sched = schedule_for(cfg["t"], cfg["dt"])
        for k in range(cfg["paths"]):
            alone = integrate_derivative_flow(system, x0, v0, sched,
                                              BrownianDriver(cfg["seed"], system.noise_dim, stream=k))
            buf = io.StringIO()
            write_trajectory_csv(buf, alone, include_v=True)
            want = [[str(k)] + r[1:] for r in csv.reader(io.StringIO(buf.getvalue()))][1:]
            assert [r for r in rows[1:] if r[0] == str(k)] == want

    def test_list_scenarios(self, tmp_path):
        out = tmp_path / "ls"
        proc = run_cli(["list-scenarios", "--out", str(out)])
        assert proc.returncode == 0
        data = json.loads((out / "list-scenarios.json").read_text())
        assert any(row["name"] == "kunita" for row in data["scenarios"])

    def test_certify_golden_statuses(self, tmp_path):
        out = tmp_path / "g"
        proc = run_cli(["certify", "--scenario", "ou(1)", "--theorems", "Cor5.2",
                        "--out", str(out)])
        assert proc.returncode == 0
        rep = json.loads((out / "certify.json").read_text())
        entry = rep["results"]["entries"][0]
        assert entry["theorem"] == "Cor5.2" and entry["status"] == "certified"

    def test_hp_scan_reports_not_applicable_as_certify_does(self, tmp_path, capsys):
        # no H_p backend applies to the rescaled plane; hp-scan used to exit 2
        assert cli.main(["hp-scan", "--scenario", "rescaled_punctured_plane",
                         "--out", str(tmp_path)]) == 0
        (entry,) = json.loads((tmp_path / "hp-scan.json").read_text())["results"]["reports"]
        assert entry["backend"] == "auto" and entry["values"] == [] and entry["max_ratio"] is None
        assert "euclidean backend needs a flat model" in entry["reason"]

    def test_hp_scan_rejects_a_misspelt_backend(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "ou(1)", "backends": ["eucldean"]}))
        assert cli.main(["hp-scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown H_p backend 'eucldean'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "hp-scan.json").exists()

    def test_user_system_spec(self, tmp_path):
        spec = tmp_path / "kunita.json"
        spec.write_text(json.dumps({
            "name": "kunita_user", "dim": 2, "noise_dim": 2,
            "diffusion": [["y", "0"], ["0", "x^2/2"]],
            "drift": ["0", "0"], "calculus": "stratonovich"}))
        out = tmp_path / "u"
        proc = run_cli(["certify", "--system-spec", str(spec), "--theorems",
                        "Thm6.2", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((out / "certify.json").read_text())
        assert rep["results"]["entries"][0]["status"] == "failed"

    def test_oracle_test_reports_slope(self, tmp_path):
        out = tmp_path / "oc"
        proc = run_cli(["oracle-test", "--scenario", "inversion_plane",
                        "--paths", "100", "--t", "0.5", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rep = json.loads((out / "oracle-test.json").read_text())
        assert rep["results"]["slope"] >= 0.4
        assert len(rep["results"]["rms_errors"]) == 3

    @pytest.mark.parametrize("flags", [
        ["--scenario", "translation(2)", "--paths", "20", "--t", "0.1"],   # an exact scheme
        ["--scenario", "inversion_plane", "--x0", "0,0", "--paths", "20", "--t", "0.1"],  # a fixed point
    ])
    def test_oracle_test_fits_no_slope_to_float_level_errors(self, tmp_path, flags):
        out = tmp_path / "oc"
        proc = run_cli(["oracle-test", *flags, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        res = json.loads((out / "oracle-test.json").read_text())["results"]
        assert res["slope"] is None
        assert len(res["rms_errors"]) == 3 and max(res["rms_errors"]) < 1e-13
