"""Request lists of the benchmark workloads and the checks on their outputs.

Every workload is a fixed list of ``flowlab.cli.run`` requests made from the
workload seed; the seed reaches flowlab only through the generated configs.
Why each workload exists, and which layer each one should move, is written
down in README.md beside this file.

This module imports nothing from flowlab, so the cold-start probe can take
scenario names from it without paying for it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

WORKLOADS = ("certify-mix", "flow-mix")

#: statuses the certificate engine must reproduce, per scenario; written here
#: rather than read from flowlab so that a change to the program cannot move
#: its own reference
GOLDEN_VERDICTS = {
    "sphere(3)": {"Thm8.1": "certified", "Cor8.3": "certified", "Diffeo": "certified"},
    "paraboloid": {"Thm8.1": "certified", "Cor8.3": "certified",
                   "Thm7.1": "certified", "Diffeo": "certified"},
    "kunita": {"Thm6.2": "failed"},
    "ou(1)": {"Cor5.2": "certified", "Thm5.3": "certified",
              "Thm6.2": "certified", "Diffeo": "certified"},
}

#: spec-file system passed inline, so a report's config_hash never depends
#: on a file path; smooth bounded diffusion with a cubic restoring drift
SPEC_SYSTEM = {
    "name": "spec_pendulum", "dim": 2, "noise_dim": 1,
    "diffusion": [["sin(y)"], ["cos(x)"]],
    "drift": ["-x + y/2", "-y - x^3/10"],
    "calculus": "stratonovich",
}

DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class Request:
    label: str
    command: str
    config: dict
    fmt: str = "json"
    workers: int = 1
    work: int = 0              # verdicts, or paths x time steps, it completes


@dataclass
class Expect:
    """References the checks compare against; the self-test perturbs them."""

    verdicts: Dict[str, Dict[str, str]] = field(default_factory=lambda: json.loads(json.dumps(GOLDEN_VERDICTS)))
    basis: str = "sampled-only"
    exit_code: int = 0
    ou_rhs: Callable[[float], float] = lambda t: math.exp(-t)
    ou_rel_tol: float = 1e-5
    invariant_tol: float = 1e-6
    csv_rows: Callable[[int, int], int] = lambda paths, steps: paths * (steps + 1) + 1


def _steps(t: float, dt: float = DEFAULT_DT) -> int:
    return int(round(t / dt))


def fanout_workers() -> int:
    """Worker count of flow-mix's fan-out pass: every CPU this process may
    run on, and at least two so the fork pool is always exercised."""
    return max(2, len(os.sched_getaffinity(0)))


def requests(workload: str, seed: int, tiny: bool = False) -> List[Request]:
    """The request list of one pass of ``workload``.

    ``tiny`` shrinks every size for the self-test; it keeps two chunks per
    Monte Carlo request so flow-mix's fan-out pass still forks.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    seed = int(seed) % 2 ** 32
    if workload == "certify-mix":
        names = ["ou(1)", "kunita"] if tiny else list(GOLDEN_VERDICTS)
        random.Random(seed).shuffle(names)
        return [Request(f"certify {n}", "certify", {"scenario": n, "seed": seed},
                        work=len(GOLDEN_VERDICTS[n])) for n in names]
    return _chunked(seed, tiny) + _per_path(seed, tiny)


def _chunked(seed: int, tiny: bool) -> List[Request]:
    """Four chunked Monte Carlo estimators, 2048 paths each."""
    paths = 2048                      # two chunks of parallel.DEFAULT_CHUNK
    t_sphere, t_ou, t_kunita, t_spec = (0.01, 0.05, 0.02, 0.02) if tiny else (0.125, 1.0, 0.5, 0.25)
    reqs = [
        Request("derivative-moments sphere(3)", "derivative-moments",
                {"scenario": "sphere(3)", "paths": paths, "t": t_sphere, "seed": seed}),
        Request("semigroup-check ou(1)", "semigroup-check",
                {"scenario": "ou(1)", "paths": paths, "t": t_ou, "seed": seed}),
        # starts far out so that a share of the members explode and are frozen
        Request("stopped-moments kunita", "stopped-moments",
                {"scenario": "kunita", "paths": paths, "t": t_kunita, "seed": seed,
                 "grid": [[12.0, 12.0]], "radii": [16.0, 32.0, 64.0, 128.0]}),
        Request("semigroup-check spec", "semigroup-check",
                {"system_spec": SPEC_SYSTEM, "paths": paths, "t": t_spec, "seed": seed}),
    ]
    return [Request(r.label, r.command, r.config,
                    work=paths * _steps(r.config["t"])) for r in reqs]


def _per_path(seed: int, tiny: bool) -> List[Request]:
    """The flow layer at batch size one, and the fine-grid oracle test."""
    sim_paths, sim_t = (2, 0.05) if tiny else (10, 1.0)
    oracle_paths, oracle_t = (32, 0.1) if tiny else (256, 0.5)
    dts = [4e-3, 1e-3, 2.5e-4]
    return [
        Request("simulate sphere(3)", "simulate",
                {"scenario": "sphere(3)", "paths": sim_paths, "t": sim_t, "seed": seed},
                fmt="both", work=sim_paths * _steps(sim_t)),
        Request("oracle-test inversion_plane", "oracle-test",
                {"scenario": "inversion_plane", "paths": oracle_paths, "t": oracle_t,
                 "dts": dts, "seed": seed},
                work=oracle_paths * sum(_steps(oracle_t, d) for d in dts)),
    ]


def scenarios_of(reqs: List[Request]) -> List[str]:
    """Built-in scenario names and inline specs the requests resolve, as
    JSON strings, for the cold-start probe."""
    out = []
    for r in reqs:
        item = json.dumps(r.config.get("system_spec") or r.config["scenario"])
        if item not in out:
            out.append(item)
    return out


# ----------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ----------------------------------------------------------------------

def _nonfinite(obj, path="results") -> List[str]:
    """Paths of non-finite numbers (the CLI writes them as strings) and of
    ``invalid`` flags inside a report's results."""
    bad = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "invalid" and v is True:
                bad.append(f"{path}.invalid")
            else:
                bad += _nonfinite(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            bad += _nonfinite(v, f"{path}[{i}]")
    elif isinstance(obj, str) and obj in ("nan", "inf", "-inf"):
        bad.append(f"{path}={obj}")
    elif isinstance(obj, float) and not math.isfinite(obj):
        bad.append(f"{path}={obj}")
    return bad


def _check_certify(req: Request, rep: dict, out_dir: str, expect: Expect) -> List[str]:
    res = rep["results"]
    golden = expect.verdicts[req.config["scenario"]]
    problems = []
    if res.get("basis") != expect.basis:
        problems.append(f"basis {res.get('basis')!r} != {expect.basis!r}")
    got = {e["theorem"]: e["status"] for e in res["entries"]}
    if got != golden:
        problems.append(f"statuses {got} != {golden}")
    for e in res["entries"]:
        if e["status"] == "failed" and not e.get("failing_sample"):
            problems.append(f"{e['theorem']} failed without a failing_sample")
    return problems


def _check_estimate(req: Request, rep: dict, out_dir: str, expect: Expect) -> List[str]:
    res = rep["results"]
    problems = [f"non-finite or invalid: {p}" for p in _nonfinite(res)]
    if problems:
        return problems
    if req.command == "semigroup-check":
        if res["pass"] is not True:
            problems.append("gradient consistency check did not pass")
        if req.config.get("scenario") == "ou(1)":
            ref = expect.ou_rhs(rep["config"]["t"])
            if abs(res["rhs"] - ref) > expect.ou_rel_tol * abs(ref):
                problems.append(f"ou(1) rhs {res['rhs']!r} not within {expect.ou_rel_tol} of {ref!r}")
    elif req.command == "derivative-moments":
        # the running sup includes s = 0, where the frame operator norm is 1
        if res["sup"]["value"] < 1.0 - 1e-12:
            problems.append(f"running-sup moment {res['sup']['value']!r} < 1")
    elif req.command == "oracle-test":
        rms = res["rms_errors"]          # ordered like the ascending dt ladder
        if not all(a < b for a, b in zip(rms, rms[1:])):
            problems.append(f"rms errors {rms} do not decrease along the dt ladder")
    return problems


def _check_simulate(req: Request, rep: dict, out_dir: str, expect: Expect) -> List[str]:
    problems = _check_estimate(req, rep, out_dir, expect)
    if rep["results"]["exploded"] != 0:
        problems.append("a sphere path exploded")
    with open(os.path.join(out_dir, "simulate.csv"), "rb") as fh:
        raw = fh.read()
    records = raw.split(b"\r\n")
    if records[-1] != b"" or any(b"\n" in r or b"\r" in r for r in records):
        problems.append("CSV records are not CRLF-terminated")
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline=""), strict=True))
    want = expect.csv_rows(req.config["paths"], _steps(req.config["t"]))
    if len(rows) != want:
        problems.append(f"CSV has {len(rows)} rows, expected {want}")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        problems.append("CSV rows differ in field count from the header")
        return problems
    d = sum(1 for h in header if h.startswith("x"))
    xs = [[float(c) for c in r[3:3 + d]] for r in body]
    vs = [[float(c) for c in r[3 + d:3 + 2 * d]] for r in body]
    radial = max(abs(math.sqrt(sum(c * c for c in x)) - 1.0) for x in xs)
    normal = max(abs(sum(a * b for a, b in zip(x, v))) for x, v in zip(xs, vs))
    if radial > expect.invariant_tol or normal > expect.invariant_tol:
        problems.append(f"sphere invariants broken: max ||x|-1| = {radial:.3g}, max |<x,v>| = {normal:.3g}")
    return problems


CHECKS = {
    "certify": _check_certify,
    "derivative-moments": _check_estimate,
    "semigroup-check": _check_estimate,
    "stopped-moments": _check_estimate,
    "oracle-test": _check_estimate,
    "simulate": _check_simulate,
}


def check(req: Request, rc: Optional[int], out_dir: str, expect: Expect) -> List[str]:
    """Problems with one request's exit code and written outputs."""
    if rc != expect.exit_code:
        return [f"exit code {rc}, expected {expect.exit_code}"]
    path = os.path.join(out_dir, f"{req.command}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    try:
        return CHECKS[req.command](req, rep, out_dir, expect)
    except (KeyError, TypeError, ValueError, OSError, csv.Error) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
