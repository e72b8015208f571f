"""Command-line front end: validation, exit codes, reproducibility, worker
independence, environment seed override."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowlab
from flowlab import BrownianDriver, builtin, cli, integrate_derivative_flow, schedule_for
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

    def test_invalid_estimate_exit_code(self, monkeypatch, tmp_path):
        monkeypatch.setitem(cli._HANDLERS, "radial",
                            lambda cfg, scn, workers: ({"bad": True}, None, True))
        rc = cli.run("radial", {"scenario": "ou(1)", "paths": 1},
                     out_dir=str(tmp_path), fmt="json")
        assert rc == 3


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
