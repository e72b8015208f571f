"""flowlab benchmark: one workload through ``flowlab.cli.run``, timed end to
end and checked.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 45 --trace 0

Run from any directory of a checkout that holds ``src/flowlab``.  The
workload's fixed request list runs in this process, in a closed loop (one
client, next request when the previous one has returned), cycling through
the list for about ``--seconds``; every request runs at least once, and none
is cut.  ``wall_s`` is the sum of each request's median latency.  flow-mix
first runs one untimed warm-up pass on the fork pool at ``nproc`` workers,
and the timed one-worker requests must reproduce its outputs byte for byte.
Every output is checked.  Then fresh interpreters time the cold start.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced loop, then one traced pass, and reports per-layer metrics and the
tracing overhead.  A human-readable table goes to stdout first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run records and trace spans are written under
``perfbench-out/`` at the root of the checkout.

Exit status: 0 when the workload ran (whether or not its outputs were
correct), 2 when flowlab cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import tracing
import workloads
from workloads import Expect, Request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

#: cold starts per run; setup_s is their median
SETUP_PROBES = 3

#: end-to-end metrics and their units, in BENCHMARK.json order
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

#: name of the work unit each workload completes
WORK_UNIT = {"certify-mix": "verdicts"}


def load_flowlab():
    """Import flowlab from the checkout's ``src``; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "flowlab", "__init__.py")):
        print(f"perfbench: no flowlab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    try:
        import flowlab.cli
    except ImportError as exc:
        print(f"perfbench: cannot import flowlab: {exc}", file=sys.stderr)
        sys.exit(2)
    return flowlab.cli


@dataclass
class Outcome:
    request: Request
    latency: float
    problems: List[str]
    digest: str
    report_bytes: int


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def execute(cli_run, req: Request, out_dir: str, expect: Expect,
            tamper: Optional[Callable[[Request, str], None]] = None) -> Outcome:
    """One request through ``cli.run``; only the call itself is timed."""
    os.makedirs(out_dir)
    sink = io.StringIO()                     # cli.run prints the paths it writes
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli_run(req.command, copy.deepcopy(req.config), out_dir=out_dir,
                         fmt=req.fmt, workers=req.workers)
    except Exception as exc:                 # a raising request is a failed request
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tamper is not None:
        tamper(req, out_dir)
    problems = [error] if error else workloads.check(req, rc, out_dir, expect)
    report = os.path.join(out_dir, f"{req.command}.json")
    size = os.path.getsize(report) if os.path.exists(report) else 0
    return Outcome(req, latency, problems, _digest(out_dir), size)


def run_pass(cli_run, reqs: List[Request], work_dir: str, tag: str, expect: Expect,
             reference: Dict[str, str], tamper=None, recorder=None) -> List[Outcome]:
    """Run the request list once.  Outputs must match ``reference`` byte for
    byte (the first pass to see a request sets it): reruns, other worker
    counts and tracing must not change a report."""
    outcomes = []
    for i, req in enumerate(reqs):
        out_dir = os.path.join(work_dir, f"{tag}-{i}")
        fn = cli_run
        if recorder is not None:
            recorder.request_id = i
            fn = recorder.wrap("cli.run", cli_run)
        oc = execute(fn, req, out_dir, expect, tamper)
        ref = reference.setdefault(req.label, oc.digest)
        if oc.digest != ref:
            oc.problems.append("outputs differ from the reference pass")
        if recorder is not None:
            recorder.counts["cli.report_bytes"] += oc.report_bytes
        shutil.rmtree(out_dir)
        outcomes.append(oc)
    return outcomes


def run_timed(cli_run, reqs: List[Request], work_dir: str, seconds: float, expect: Expect,
              reference: Dict[str, str], tamper=None) -> List[Outcome]:
    """The timed closed loop: the request list in order, over and over.  Every
    request runs at least once; after that a request starts only if it would
    end, at its last latency, no more than half of it past ``seconds``, so a
    run's measured time centres on ``seconds`` and no request is cut."""
    outcomes: List[Outcome] = []
    last: Dict[str, float] = {}
    t_start = time.perf_counter()
    i = 0
    while True:
        req = reqs[i % len(reqs)]
        if i >= len(reqs) and time.perf_counter() - t_start + last[req.label] / 2 > seconds:
            break
        oc = run_pass(cli_run, [req], work_dir, f"p{i}", expect, reference, tamper)[0]
        last[req.label] = oc.latency
        outcomes.append(oc)
        i += 1
    return outcomes


def summary(values: List[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n, "pct": None, "pct_value": None}
    if n >= 11:
        k = n - 11                            # vals[k] has n - 1 - k = 10 samples above it
        out["pct"] = 100.0 * (k + 1) / n
        out["pct_value"] = vals[k]
    return out


def cold_starts(reqs: List[Request], n: int) -> List[dict]:
    """Time ``n`` fresh interpreters that import flowlab and build the scenarios."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), *workloads.scenarios_of(reqs)]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold-start probe failed: {proc.stderr.strip()}")
        out.append(dict(json.loads(proc.stdout.strip().splitlines()[-1]), wall_s=wall))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child (fork-pool
    workers), whichever is larger."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expect: Optional[Expect] = None, tiny: bool = False,
                 tamper=None, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its metrics, latencies and problems."""
    cli = load_flowlab()
    expect = expect or Expect()
    reqs = workloads.requests(workload, seed, tiny=tiny)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    reference: Dict[str, str] = {}
    outcomes: List[Outcome] = []
    try:
        if workload == "flow-mix":
            # one untimed warm-up pass on the fork pool; the one-worker
            # requests after it must reproduce its outputs byte for byte.
            # certify-mix has none: its request list takes most of a run
            fan = [replace(r, workers=workloads.fanout_workers()) for r in reqs]
            outcomes += run_pass(cli.run, fan, work_dir, "warm", expect, reference, tamper)
        timed = run_timed(cli.run, reqs, work_dir, seconds, expect, reference, tamper)
        outcomes += timed
        rss = peak_rss_mb()
        traced = None
        if trace:
            rec = tracing.Recorder()
            rec.install()
            try:
                traced = run_pass(cli.run, reqs, work_dir, "trace", expect, reference,
                                  tamper, recorder=rec)
            finally:
                rec.uninstall()
            outcomes += traced
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    starts = cold_starts(reqs, probes)

    latencies: Dict[str, List[float]] = {}
    for o in timed:
        latencies.setdefault(o.request.label, []).append(o.latency)
    # a pass made of each request's median latency
    wall = sum(statistics.median(latencies[r.label]) for r in reqs)
    work = sum(r.work for r in reqs)
    failed = [o for o in outcomes if o.problems]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "timed_requests": len(timed), "measured_s": sum(o.latency for o in timed),
        "requests_per_pass": len(reqs), "work_per_pass": work,
        "work_unit": WORK_UNIT.get(workload, "path_steps"),
        "attempted": len(outcomes), "failed": len(failed),
        "problems": [f"{o.request.label}: {p}" for o in failed for p in o.problems],
        "end_to_end": {
            "setup_s": statistics.median(s["wall_s"] for s in starts),
            "wall_s": wall,
            "work_per_s": work / wall,
            "peak_rss_mb": rss,
        },
        "error_rate": len(failed) / len(outcomes),
        "timings": {"setup_s": summary([s["wall_s"] for s in starts]),
                    **{f"latency_s[{k}]": summary(v) for k, v in latencies.items()}},
    }
    if traced is not None:
        traced_wall = sum(o.latency for o in traced)
        result["per_layer"] = per_layer(rec, starts, traced_wall, wall)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        rec.save(os.path.join(OUT, "spans", f"{workload}-seed{seed}.npz"))
    return result


def per_layer(rec, starts: List[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced pass, named as in tracing.PER_LAYER."""
    st = rec.self_times()
    c = rec.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 1.0   # nothing attempted, nothing wasted

    out = {}
    for name, _unit in tracing.PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "total_s"):
            calls, self_s, total_s = st.get(layer, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "self_s": self_s, "total_s": total_s}[kind]
    out.update({
        "cli.run.report_bytes": int(c["cli.report_bytes"]),
        "flow.live_fraction": ratio("flow.members_live", "flow.members_stepped"),
        "flow.write_trajectory_csv.bytes": int(c["flow.csv_bytes"]),
        "criteria.tangent_directions.kept_fraction": ratio("criteria.directions_kept",
                                                           "criteria.directions_requested"),
        "parallel.run_chunks.chunks": int(c["parallel.chunks"]),
        "parallel.run_chunks.workers": int(c["parallel.workers"]),
        "parallel.chunk_fill": ratio("parallel.paths", "parallel.chunk_capacity"),
        "setup.import_s": statistics.median(s["import_s"] for s in starts),
        "setup.build_s": statistics.median(s["build_s"] for s in starts),
        "trace.spans": len(rec.sid),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {name: out[name] for name, _unit in tracing.PER_LAYER}


def git_commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_stats() -> dict:
    """Line count and content hash of the Python sources under src/."""
    h = hashlib.sha256()
    lines = 0
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                h.update(os.path.relpath(os.path.join(base, name), SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()}


def run_record(result: dict) -> dict:
    import numpy
    import scipy

    return {"commit": git_commit(), **src_stats(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "fanout_workers": workloads.fanout_workers(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **result}


def _fmt_timing(t: dict) -> str:
    pct = f"p{t['pct']:.0f} {t['pct_value']:.4f}" if t["pct"] is not None else "no percentile (n < 11)"
    return f"median {t['median']:.4f} s, {pct}, n={t['n']}"


def print_table(result: dict, record: dict) -> None:
    e = result["end_to_end"]
    unit = result["work_unit"]
    print(f"workload {result['workload']}  seed {result['seed']}  timed requests {result['timed_requests']}"
          f" in {result['measured_s']:.1f} s  requests/pass {result['requests_per_pass']}"
          f"  {unit}/pass {result['work_per_pass']}")
    print(f"  commit {record['commit']}  src_lines {record['src_lines']}  python {record['python']}"
          f"  numpy {record['numpy']}  scipy {record['scipy']}  nproc {record['nproc']}")
    print(f"  setup_s          {e['setup_s']:.4f} s     ({_fmt_timing(result['timings']['setup_s'])})")
    print(f"  wall_s           {e['wall_s']:.4f} s     (sum of the per-request medians below)")
    print(f"  {unit}_per_s".ljust(19) + f"{e['work_per_s']:.6g} 1/s")
    print(f"  peak_rss_mb      {e['peak_rss_mb']:.1f} MB")
    print(f"  error_rate       {result['error_rate']:.4f}       ({result['failed']}/{result['attempted']} requests)")
    for key, t in result["timings"].items():
        if key.startswith("latency_s["):
            print(f"  {key:44s} {_fmt_timing(t)}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            print(f"  {name:56s} {value:.6g}")
    for p in result["problems"][:20]:
        print(f"  FAILED {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = run_record(result)
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    with open(os.path.join(OUT, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(result, record)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
