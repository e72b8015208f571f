"""Self-test of the benchmark's output checks, at tiny sizes.

    python3 perfbench/selftest.py

First every workload runs unmodified, traced, and must report an error rate
of 0 with every per-layer metric present.  Then each check is shown able to
fail: a deliberately wrong reference, or an output edited after flowlab wrote
it, must raise the workload's error rate above 0.  Exits 0 when every case
behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import run
import tracing
import workloads
from workloads import Expect


def _edit_report(command: str, edit, tags=("p", "warm")):
    """Tamper that rewrites ``<command>.json`` in passes whose tag starts with one of ``tags``."""
    def tamper(req, out_dir):
        if req.command != command or not os.path.basename(out_dir).startswith(tags):
            return
        path = os.path.join(out_dir, f"{command}.json")
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        edit(req, rep["results"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
    return tamper


def _edit_csv(edit):
    def tamper(req, out_dir):
        if req.command == "simulate":
            path = os.path.join(out_dir, "simulate.csv")
            with open(path, "rb") as fh:
                raw = fh.read()
            with open(path, "wb") as fh:
                fh.write(edit(raw))
    return tamper


def _set(key_path, value, when=lambda req: True):
    def edit(req, res):
        if not when(req):
            return
        obj = res
        for k in key_path[:-1]:
            obj = obj[k]
        obj[key_path[-1]] = value
    return edit


def _drop_failing_sample(req, res):
    for e in res["entries"]:
        e.pop("failing_sample", None)


def _swap_rms(req, res):
    res["rms_errors"] = res["rms_errors"][::-1]


def _move_off_sphere(raw: bytes) -> bytes:
    lines = raw.split(b"\r\n")
    fields = lines[1].split(b",")
    fields[5] = repr(float(fields[5]) + 1e-3).encode()      # x3 of the first row
    lines[1] = b",".join(fields)
    return b"\r\n".join(lines)


def _expect(**changes) -> Expect:
    return dataclasses.replace(Expect(), **changes)


def _wrong_verdicts():
    v = Expect().verdicts
    v["kunita"]["Thm6.2"] = "certified"
    return v


_is_ou = lambda req: req.config.get("scenario") == "ou(1)"          # noqa: E731
_is_spec = lambda req: "system_spec" in req.config                  # noqa: E731

# (case, workload, expectations, tamper)
MUTATIONS = [
    ("wrong expected verdict", "certify-mix", _expect(verdicts=_wrong_verdicts()), None),
    ("wrong expected basis", "certify-mix", _expect(basis="proof"), None),
    ("failed verdict without witness", "certify-mix", Expect(),
     _edit_report("certify", _drop_failing_sample)),
    ("perturbed e^-t reference", "flow-mix",
     _expect(ou_rhs=lambda t: math.exp(-t) * (1 + 1e-4)), None),
    ("gradient check reported as failing", "flow-mix", Expect(),
     _edit_report("semigroup-check", _set(["pass"], False, _is_spec))),
    ("running sup below 1", "flow-mix", Expect(),
     _edit_report("derivative-moments", _set(["sup", "value"], 0.5))),
    ("non-finite estimate", "flow-mix", Expect(),
     _edit_report("stopped-moments", _set(["liminf_proxy"], "nan"))),
    ("unexpected invalid flag", "flow-mix", Expect(),
     _edit_report("semigroup-check", _set(["invalid"], True, _is_ou))),
    ("unexpected exit code", "flow-mix", _expect(exit_code=3), None),
    ("one-worker output differs from fan-out", "flow-mix", Expect(),
     _edit_report("stopped-moments", _set(["liminf_proxy"], 1.0), tags=("p",))),
    ("perturbed fan-out reference", "flow-mix", Expect(),
     _edit_report("derivative-moments", _set(["sup", "se"], 1.0), tags=("warm",))),
    ("wrong CSV row count", "flow-mix",
     _expect(csv_rows=lambda paths, steps: paths * (steps + 1) + 2), None),
    ("point moved off the sphere", "flow-mix", Expect(), _edit_csv(_move_off_sphere)),
    ("LF instead of CRLF", "flow-mix", Expect(), _edit_csv(lambda raw: raw.replace(b"\r\n", b"\n"))),
    ("rms errors not decreasing", "flow-mix", Expect(), _edit_report("oracle-test", _swap_rms)),
]


def _bench_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ok = True

    def report(case, good, detail):
        nonlocal ok
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {case}: {detail}", flush=True)

    bench = _bench_json()
    report("per-layer names", [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracing.PER_LAYER],
           "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    report("end-to-end names", [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    for wl in workloads.WORKLOADS:
        res = run.run_workload(wl, seed=7, seconds=0, trace=True, tiny=True, probes=1)
        missing = [n for n, _ in tracing.PER_LAYER if n not in res["per_layer"]]
        report(f"baseline {wl}", res["failed"] == 0 and not missing,
               f"error_rate {res['error_rate']:.3f}, problems {res['problems'][:3]}, "
               f"missing per-layer {missing}")
    for case, wl, expect, tamper in MUTATIONS:
        res = run.run_workload(wl, seed=7, seconds=0, trace=False, expect=expect, tiny=True,
                               tamper=tamper, probes=1)
        report(case, res["error_rate"] > 0,
               f"{wl} error_rate {res['error_rate']:.3f}; {res['problems'][:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
