"""Configuration-driven command-line front end.

Every run writes a JSON report tagged "flowlab/1" that embeds the semantic
configuration and its hash, so outputs are self-describing and re-running a
config byte-identically reproduces them.  Execution-only settings (worker
count, output paths, format) never enter the report.

    flowlab <command> [--config cfg.json] [--scenario NAME] [--seed U64]
            [--paths N] [--dt F] [--t F] [--p F] [--workers N]
            [--out DIR] [--format {json,csv,both}] ...

Commands: simulate, derivative-moments, stopped-moments, exp-functional,
radial, exponent, certify, hp-scan, semigroup-check, oracle-test,
list-scenarios.  FLOWLAB_SEED in the environment overrides any configured
seed.  One table checks every key, from a file, a flag or FLOWLAB_SEED:
a non-finite number or a seed past 2^64 - 1 is a configuration error.
Exit codes: 0 success, 2 configuration error, 3 invalid estimate.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import os
import sys
from typing import Optional

import numpy as np

from . import criteria, estimators, semigroup
from .errors import FlowlabError
from .expressions import compile_expression, load_system
from .flow import (
    BrownianDriver,
    chunk_paths,
    record_trajectory,
    schedule_for,
    write_trajectory_csv,
)
from .geometry import CurvatureData
from .parallel import check_paths
from .scenarios import Scenario, builtin, oracle_convergence_study, scenario_listing
from .semigroup import observable

SCHEMA_VERSION = "flowlab/1"


class ConfigError(FlowlabError):
    pass


def _numbers(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _names(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


#: the tests a config value must pass, by the text an error quotes: first its
#: kind (an integer may be an integral float, a number must be finite, and a
#: bool is neither), then its bound
_TESTS = {
    "a string": lambda v: isinstance(v, str),
    "a string or an object": lambda v: isinstance(v, (str, dict)),
    "a boolean": lambda v: isinstance(v, bool),
    "an array": lambda v: isinstance(v, list),
    "an integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "a finite number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Real)
    and abs(v) < math.inf,
    "an array of finite numbers": lambda v: isinstance(v, list)
    and all(map(_TESTS["a finite number"], v)),
    "an array of strings": lambda v: isinstance(v, list) and all(map(_TESTS["a string"], v)),
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 2^64)": lambda v: 0 <= v < 2 ** 64,
}

#: every config key: (kind, bound, default, flag parser).  A key with a default
#: enters every report; the horizon t defaults to the scenario's.  A key with a
#: parser is also the flag --key (with _ as -), in this order; bool marks a switch.
CONFIG = {
    "scenario": ("a string", None, None, str),
    "system_spec": ("a string or an object", None, None, str),
    "seed": ("an integer", "in [0, 2^64)", 2026, int),
    "paths": ("an integer", ">= 1", 10_000, int),
    "dt": ("a finite number", "> 0", 1e-3, float),
    "t": ("a finite number", "> 0", None, float),
    "p": ("a finite number", None, 1.0, float),
    "theta": ("a finite number", ">= 0", None, float),
    "f": ("a string", None, None, str),
    "k0": ("a finite number", None, None, float),
    "radii": ("an array of finite numbers", None, None, _numbers),
    "horizons": ("an array of finite numbers", None, None, _numbers),
    "dts": ("an array of finite numbers", None, None, _numbers),
    "theorems": ("an array of strings", None, None, _names),
    "x0": ("an array of finite numbers", None, None, _numbers),
    "v0": ("an array of finite numbers", None, None, _numbers),
    "terminal": ("a boolean", None, None, bool),
    "epsilon": ("a finite number", ">= 0", None, None),
    "grid": ("an array", None, None, None),
    "backends": ("an array of strings", None, None, None),
    "eps_ladder": ("an array of finite numbers", None, None, None),
    "center": ("an array of finite numbers", None, None, None),
    "n_directions": ("an integer", ">= 1", None, None),
    "filter_threshold": ("a finite number", ">= 0", None, None),
    "matrix": ("an array", None, None, None),
}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the config must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _validate_config(cfg: dict) -> None:
    errors = [("$", f"unknown key {key!r}") for key in cfg if key not in CONFIG]
    for key in cfg.keys() & CONFIG.keys():
        for test in filter(None, CONFIG[key][:2]):
            if not _TESTS[test](cfg[key]):
                errors.append((f"$.{key}", f"{cfg[key]!r} is not {test}"))
                break
    if errors:
        msgs = "; ".join(f"{path}: {msg}" for path, msg in sorted(errors))
        raise ConfigError(f"config validation failed: {msgs}")
    if "scenario" in cfg and "system_spec" in cfg:
        raise ConfigError("config: give either 'scenario' or 'system_spec', not both")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _sanitize(obj):
    """Make results JSON-ready: numpy values to Python ones, non-finite floats
    to the strings "nan", "inf" and "-inf" (their repr)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _default_point(scenario: Scenario):
    """A sphere's north pole e_d, elsewhere the model's retraction of e_1
    (e_1 itself on flat-family models)."""
    e = np.eye(scenario.model.ambient_dim)
    return e[-1] if scenario.name.startswith("sphere") else scenario.model.retract(e[0])


def _resolve_grid(cfg: dict, scenario: Scenario):
    grid = cfg.get("grid")
    return _default_point(scenario) if grid is None else grid


def _resolve_scenario(cfg: dict) -> Scenario:
    if "system_spec" in cfg:
        system = load_system(cfg["system_spec"])
        return Scenario(name=system.name, system=system,
                        curvature=CurvatureData(pole=np.zeros(system.dim)),
                        oracle=None, notes="user system")
    name = cfg.get("scenario", "ou(1)")
    if name.startswith("linear") and "matrix" in cfg:
        return builtin("linear", matrix=cfg["matrix"])
    return builtin(name)


def _write_json(out_dir: str, command: str, body: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(body))
        fh.write("\n")
    return path


def _write_report(out_dir: str, command: str, semantic_cfg: dict, results: dict) -> str:
    cfg = _sanitize(semantic_cfg)
    return _write_json(out_dir, command, {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(canonical_json(cfg).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "results": _sanitize(results),
    })


def _series_csv(header, rows):
    """A writer of a header and rows as CSV, floats written with repr."""
    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return write


# ----------------------------------------------------------------------
# command handlers: each returns (results dict, CSV writer or None, invalid flag)
# ----------------------------------------------------------------------

def _cmd_simulate(cfg, scenario, workers):
    check_paths(cfg["paths"])
    sched = schedule_for(cfg["t"], cfg["dt"])
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    v0 = cfg.get("v0")
    if v0 is None:
        v0 = scenario.model.tangent_project(x0, np.eye(len(x0))[0])
    x, dW = chunk_paths(BrownianDriver(cfg["seed"], scenario.system.noise_dim), 0,
                        cfg["paths"], sched, x0)
    res = record_trajectory(scenario.system, x, dW, sched,
                            v=np.broadcast_to(np.asarray(v0, dtype=float), x.shape).copy())
    exploded = int(res.exploded.sum())
    summary = {
        "paths": cfg["paths"], "exploded": exploded,
        "t": sched.horizon, "dt": cfg["dt"],
        "final_state_mean": list(np.mean(res.final_states(), axis=0)),
    }
    return (summary, lambda fh: write_trajectory_csv(fh, res, include_v=True),
            exploded == cfg["paths"])


def _cmd_derivative_moments(cfg, scenario, workers):
    grid = _resolve_grid(cfg, scenario)
    res = estimators.estimate_sup_derivative_moment(
        scenario.system, grid, p=cfg["p"], t=cfg["t"], n_paths=cfg["paths"],
        seed=cfg["seed"], dt=cfg["dt"], terminal=cfg.get("terminal", False),
        workers=workers)
    return res.to_dict(), None, res.sup.invalid


def _cmd_stopped_moments(cfg, scenario, workers):
    grid = _resolve_grid(cfg, scenario)
    radii = cfg.get("radii") or [2.0, 3.0, 4.0, 5.0]
    res = estimators.estimate_stopped_moment(
        scenario.system, grid, radii, t=cfg["t"], n_paths=cfg["paths"],
        seed=cfg["seed"], dt=cfg["dt"], center=cfg.get("center"), workers=workers)
    rows = [(r, e.value, e.se, e.n_paths) for r, e in zip(res.radii, res.per_radius_sup)]
    return res.to_dict(), _series_csv(["radius", "estimate", "se", "n"], rows), False


def _cmd_exp_functional(cfg, scenario, workers):
    expr = cfg.get("f", "1 + log(1 + x^2)")
    f = compile_expression(expr, scenario.system.dim)
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    main, companion = estimators.estimate_exponential_functional(
        scenario.system, f, x0, t=cfg["t"], theta=cfg.get("theta", 0.05),
        n_paths=cfg["paths"], seed=cfg["seed"], dt=cfg["dt"], workers=workers)
    results = {"estimate": main.to_dict(), "jensen_bound": companion.to_dict(),
               "f": expr, "theta": cfg.get("theta", 0.05),
               "ordering_ok": bool(main.value <= companion.value
                                   + 3.0 * np.hypot(main.se, companion.se))
               if not (main.log_space or companion.log_space)
               else bool(main.value <= companion.value)}
    return results, None, main.invalid or companion.invalid


def _cmd_radial(cfg, scenario, workers):
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    res = estimators.estimate_radial_moment(
        scenario.system, scenario.curvature, x0, p=cfg["p"], t=cfg["t"],
        n_paths=cfg["paths"], seed=cfg["seed"], dt=cfg["dt"],
        radius_ladder=cfg.get("radii") or [2.0, 4.0, 8.0],
        k0=cfg.get("k0"), workers=workers)
    return res.to_dict(), None, res.moment.invalid


def _cmd_exponent(cfg, scenario, workers):
    grid = _resolve_grid(cfg, scenario)
    horizons = cfg.get("horizons") or [1.0, 2.0, 3.0, 4.0]
    res = estimators.estimate_moment_exponent(
        scenario.system, grid, p=cfg["p"], horizons=horizons,
        n_paths=cfg["paths"], seed=cfg["seed"], dt=cfg["dt"], workers=workers)
    rows = [(t, e.value, e.se, e.n_paths)
            for t, e in zip(res.horizons, res.per_horizon)]
    return res.to_dict(), _series_csv(["t", "estimate", "se", "n"], rows), bool(res.excluded)


def _cmd_certify(cfg, scenario, workers):
    config = criteria.CertifyConfig(
        theorems=cfg.get("theorems") or list(scenario.expected_verdicts) or ["Cor5.2"],
        p=cfg["p"], epsilon=cfg.get("epsilon", 0.5),
        n_directions=cfg.get("n_directions", 32),
        curvature=scenario.curvature)
    report = criteria.certify(scenario.system, config)
    return report.to_dict(), None, False


def _cmd_hp_scan(cfg, scenario, workers):
    backends = cfg.get("backends") or ["auto"]
    model = scenario.model
    if model.sampler is not None:
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg["seed"], 0x4B], dtype=np.uint64)))
        points = model.sampler(rng, 16)
    else:
        radii = cfg.get("radii") or [0.5, 1.0, 2.0, 4.0]
        dirs = criteria.direction_sample(model.ambient_dim, 8)
        points = np.concatenate([r * dirs for r in radii])
    samples = []
    for x in points:
        for v in criteria.tangent_directions(model, x, 4):
            samples.append((x, v))
    reports = criteria.hp_report(scenario.system, samples, p=cfg["p"],
                                 backends=backends, curvature=scenario.curvature)
    return {"reports": [r.to_dict() for r in reports]}, None, False


def _cmd_semigroup_check(cfg, scenario, workers):
    expr = cfg.get("f", "x")
    f = compile_expression(expr, scenario.system.dim)
    obs = observable(f)
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    v0 = np.asarray(cfg.get("v0") or [1.0] + [0.0] * (scenario.system.dim - 1), dtype=float)
    report = semigroup.gradient_consistency_check(
        scenario.system, obs, x0, v0, t=cfg["t"], n_paths=cfg["paths"],
        seed=cfg["seed"], dt=cfg["dt"],
        eps_ladder=cfg.get("eps_ladder") or [1e-1, 1e-2, 1e-3], workers=workers)
    return report.to_dict(), None, False


def _cmd_oracle_test(cfg, scenario, workers):
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    res = oracle_convergence_study(
        scenario, x0, t=cfg["t"], dts=cfg.get("dts") or [4e-3, 1e-3, 2.5e-4],
        n_paths=cfg["paths"], seed=cfg["seed"],
        filter_threshold=cfg.get("filter_threshold", 0.25))
    rows = list(zip(res["dts"], res["rms_errors"]))
    return res, _series_csv(["dt", "rms_error"], rows), False


_HANDLERS = {
    "simulate": _cmd_simulate,
    "derivative-moments": _cmd_derivative_moments,
    "stopped-moments": _cmd_stopped_moments,
    "exp-functional": _cmd_exp_functional,
    "radial": _cmd_radial,
    "exponent": _cmd_exponent,
    "certify": _cmd_certify,
    "hp-scan": _cmd_hp_scan,
    "semigroup-check": _cmd_semigroup_check,
    "oracle-test": _cmd_oracle_test,
}

COMMANDS = (*_HANDLERS, "list-scenarios")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flowlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", metavar="PATH")
    for key, (*_, parse) in CONFIG.items():
        flag = "--" + key.replace("_", "-")
        if parse is bool:
            ap.add_argument(flag, dest=key, action="store_true", default=None)
        elif parse is not None:
            ap.add_argument(flag, dest=key, type=parse,
                            metavar="A,B,..." if parse in (_numbers, _names) else None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="flowlab-out")
    ap.add_argument("--format", choices=("json", "csv", "both"), default="json")
    return ap


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    out = dict(cfg)
    out.update((key, val) for key, val in vars(args).items() if key in CONFIG and val is not None)
    env_seed = os.environ.get("FLOWLAB_SEED")
    if env_seed is not None:
        try:
            out["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"FLOWLAB_SEED must be an integer, got {env_seed!r}") from None
    return out


def run(command: str, cfg: dict, out_dir: str, fmt: str = "json", workers: int = 1) -> int:
    """Dispatch one command; returns the process exit status."""
    if command == "list-scenarios":
        print(_write_json(out_dir, command, _sanitize({"schema": SCHEMA_VERSION,
                                                        "scenarios": scenario_listing()})))
        return 0
    _validate_config(cfg)
    merged = {key: spec[2] for key, spec in CONFIG.items() if spec[2] is not None}
    merged.update(cfg)
    scenario = _resolve_scenario(merged)
    merged.setdefault("t", scenario.default_horizon)
    handler = _HANDLERS[command]
    # an integral float seed passes the check above; the noise driver takes an int
    results, write_csv, invalid = handler(dict(merged, seed=int(merged["seed"])), scenario, workers)
    report_path = _write_report(out_dir, command, merged, results)
    print(report_path)
    if fmt in ("csv", "both") and write_csv is not None:
        path = os.path.join(out_dir, f"{command}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh)
        print(path)
    return 3 if invalid else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _merge_flags(cfg, args)
        return run(args.command, cfg, out_dir=args.out, fmt=args.format,
                   workers=args.workers)
    except ConfigError as exc:
        print(f"flowlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except FlowlabError as exc:
        print(f"flowlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
