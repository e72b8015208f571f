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
seed.  Exit codes: 0 success, 2 configuration error, 3 invalid estimate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np
import jsonschema

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
from .geometry import EmbeddedModel
from .scenarios import Scenario, builtin, oracle_convergence_study, scenario_listing
from .semigroup import observable

SCHEMA_VERSION = "flowlab/1"

COMMANDS = ("simulate", "derivative-moments", "stopped-moments", "exp-functional",
            "radial", "exponent", "certify", "hp-scan", "semigroup-check",
            "oracle-test", "list-scenarios")

CONFIG_SCHEMA = {
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


class ConfigError(FlowlabError):
    pass


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _validate_config(cfg: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        msgs = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise ConfigError(f"config validation failed: {msgs}")
    if "scenario" in cfg and "system_spec" in cfg:
        raise ConfigError("config: give either 'scenario' or 'system_spec', not both")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _sanitize(obj):
    """Make results JSON-ready: numpy scalars to floats, non-finite to strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if np.isnan(f):
            return "nan"
        if np.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _default_point(scenario: Scenario):
    model = scenario.model
    d = model.ambient_dim
    if isinstance(model, EmbeddedModel):
        if scenario.name.startswith("sphere"):
            x = np.zeros(d)
            x[-1] = 1.0
            return x
        return model.retract(np.array([1.0] + [0.0] * (d - 1)))
    x = np.zeros(d)
    x[0] = 1.0
    return x


def _resolve_grid(cfg: dict, scenario: Scenario):
    grid = cfg.get("grid")
    return _default_point(scenario) if grid is None else grid


def _resolve_scenario(cfg: dict) -> Scenario:
    if "system_spec" in cfg:
        system = load_system(cfg["system_spec"])
        from .geometry import CurvatureData
        return Scenario(name=system.name, system=system,
                        curvature=CurvatureData(pole=np.zeros(system.dim)),
                        oracle=None, notes="user system")
    name = cfg.get("scenario", "ou(1)")
    if name.startswith("linear") and "matrix" in cfg:
        return builtin("linear", matrix=cfg["matrix"])
    return builtin(name)


def _write_report(out_dir: str, command: str, semantic_cfg: dict, results: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    cfg = _sanitize(semantic_cfg)
    body = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(canonical_json(cfg).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "results": _sanitize(results),
    }
    path = os.path.join(out_dir, f"{command}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(body))
        fh.write("\n")
    return path


def _write_series_csv(out_dir: str, command: str, header, rows) -> str:
    import csv

    path = os.path.join(out_dir, f"{command}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return path


# ----------------------------------------------------------------------
# command handlers: each returns (results dict, csv spec or None, invalid flag)
# ----------------------------------------------------------------------

def _cmd_simulate(cfg, scenario, workers):
    sched = schedule_for(cfg["t"], cfg["dt"])
    x0 = np.asarray(cfg.get("x0") or _default_point(scenario), dtype=float)
    v0 = cfg.get("v0")
    if v0 is None:
        v0 = np.zeros_like(x0)
        v0[0] = 1.0
        if isinstance(scenario.model, EmbeddedModel):
            v0 = scenario.model.tangent_project(x0, v0)
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
    return summary, ("trajectory", res), exploded == cfg["paths"]


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
    return res.to_dict(), ("series", ["radius", "estimate", "se", "n"], rows), False


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
    return res.to_dict(), ("series", ["t", "estimate", "se", "n"], rows), bool(res.excluded)


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
    if isinstance(model, EmbeddedModel) and model.sampler is not None:
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
    return res, ("series", ["dt", "rms_error"], rows), False


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

_DEFAULTS = {"seed": 2026, "paths": 10_000, "dt": 1e-3, "p": 1.0}


def _numbers(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _names(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


#: the semantic flags: config key -> parser of the flag's text (``--key``,
#: with ``_`` as ``-``); None marks a switch
_FLAGS = {
    "scenario": str, "system_spec": str, "seed": int, "paths": int, "dt": float,
    "t": float, "p": float, "theta": float, "f": str, "k0": float,
    "radii": _numbers, "horizons": _numbers, "dts": _numbers, "theorems": _names,
    "x0": _numbers, "v0": _numbers, "terminal": None,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flowlab", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", metavar="PATH")
    for key, parse in _FLAGS.items():
        flag = "--" + key.replace("_", "-")
        if parse is None:
            ap.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            ap.add_argument(flag, dest=key, type=parse,
                            metavar="A,B,..." if parse in (_numbers, _names) else None)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="flowlab-out")
    ap.add_argument("--format", choices=("json", "csv", "both"), default="json")
    return ap


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    out = dict(cfg)
    out.update((key, val) for key, val in vars(args).items() if key in _FLAGS and val is not None)
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
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "list-scenarios.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_json(_sanitize({"schema": SCHEMA_VERSION,
                                               "scenarios": scenario_listing()})))
            fh.write("\n")
        print(path)
        return 0
    _validate_config(cfg)
    merged = dict(_DEFAULTS)
    merged.update(cfg)
    scenario = _resolve_scenario(merged)
    merged.setdefault("t", scenario.default_horizon)
    handler = _HANDLERS[command]
    results, csv_spec, invalid = handler(merged, scenario, workers)
    report_path = _write_report(out_dir, command, merged, results)
    print(report_path)
    if fmt in ("csv", "both") and csv_spec is not None:
        if csv_spec[0] == "series":
            _, header, rows = csv_spec
            print(_write_series_csv(out_dir, command, header, rows))
        elif csv_spec[0] == "trajectory":
            path = os.path.join(out_dir, "simulate.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write_trajectory_csv(fh, csv_spec[1], include_v=True)
            print(path)
    return 3 if invalid else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _merge_flags(cfg, args)
        return run(args.command, cfg, out_dir=args.out, fmt=args.format,
                   workers=args.workers)
    except (ConfigError, jsonschema.ValidationError) as exc:
        print(f"flowlab: configuration error: {exc}", file=sys.stderr)
        return 2
    except FlowlabError as exc:
        print(f"flowlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
