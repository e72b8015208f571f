"""Number-level regression of the flow layer.

``data/flow_reference.json`` holds every number that ``cli.run(..., fmt="both")``
writes for ``simulate``, ``derivative-moments`` and ``radial`` on sphere(3) and
the paraboloid, for ``semigroup-check`` on sphere(3), for the exit ladders
of ``stopped-moments`` and ``radial`` on kunita, where paths explode, for a
flat frame on a two-point kunita grid, and for ``simulate`` and
``semigroup-check`` on an inline spec-file system: the JSON
report and, for ``simulate`` and ``stopped-moments``, every cell of the CSV.  A request that raises a
``FlowlabError`` is recorded by the error's class name.  Every number must
agree with the reference to 1e-12 * max(1, |ref|); strings must be equal.  To
record entries again from the code on ``PYTHONPATH`` (all of them when no label
is given):

    python tests/test_flow_regression.py --write ["simulate paraboloid" ...]
"""

import csv
import json
import sys
from pathlib import Path

from flowlab import cli
from flowlab.errors import FlowlabError

REFERENCE = Path(__file__).resolve().parent / "data" / "flow_reference.json"

TOL = 1e-12

SEED = 3

#: the spec-file system of the flow-mix benchmark workload, passed inline
SPEC_SYSTEM = {
    "name": "spec_pendulum", "dim": 2, "noise_dim": 1,
    "diffusion": [["sin(y)"], ["cos(x)"]],
    "drift": ["-x + y/2", "-y - x^3/10"],
    "calculus": "stratonovich",
}

CASES = {
    "simulate sphere(3)": ("simulate", {"scenario": "sphere(3)", "paths": 3, "t": 0.2}),
    "simulate paraboloid": ("simulate", {"scenario": "paraboloid", "paths": 3, "t": 0.2}),
    "derivative-moments sphere(3)": ("derivative-moments",
                                     {"scenario": "sphere(3)", "paths": 256, "t": 0.125}),
    "derivative-moments paraboloid": ("derivative-moments",
                                      {"scenario": "paraboloid", "paths": 256, "t": 0.125}),
    "radial sphere(3)": ("radial", {"scenario": "sphere(3)", "paths": 256, "t": 0.25}),
    "radial paraboloid": ("radial", {"scenario": "paraboloid", "paths": 256, "t": 0.25}),
    "semigroup-check sphere(3)": ("semigroup-check",
                                  {"scenario": "sphere(3)", "paths": 256, "t": 0.125}),
    "stopped-moments kunita": ("stopped-moments",
                               {"scenario": "kunita", "paths": 256, "t": 0.25,
                                "grid": [[12.0, 12.0]], "radii": [16.0, 32.0, 64.0, 128.0]}),
    "radial kunita": ("radial", {"scenario": "kunita", "paths": 256, "t": 0.5,
                                 "x0": [8.0, 8.0], "radii": [8.0, 16.0, 1e5]}),
    "semigroup-check spec": ("semigroup-check",
                             {"system_spec": SPEC_SYSTEM, "paths": 256, "t": 0.25}),
    "derivative-moments kunita": ("derivative-moments",
                                  {"scenario": "kunita", "paths": 256, "t": 0.125,
                                   "grid": [[0.5, 0.5], [1.0, -1.0]]}),
    "simulate spec": ("simulate", {"system_spec": SPEC_SYSTEM, "paths": 3, "t": 0.2}),
}


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def run_case(label, out_dir) -> dict:
    command, cfg = CASES[label]
    try:
        cli.run(command, dict(cfg, seed=SEED, dt=1e-3), str(out_dir), fmt="both")
    except FlowlabError as exc:
        return {"error": type(exc).__name__}
    out = {"report": json.loads((out_dir / f"{command}.json").read_text())}
    table = out_dir / f"{command}.csv"
    if table.exists():
        with open(table, newline="") as fh:
            out["csv"] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return out


def _mismatches(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} "
                    f"!= {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool) \
            and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == want or abs(got - want) <= TOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_flow_reports_match_reference(tmp_path):
    want = json.loads(REFERENCE.read_text())
    assert set(want) == set(CASES)
    problems = []
    for i, label in enumerate(CASES):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        problems += _mismatches(run_case(label, out_dir), want[label], label)
    assert not problems, "\n".join(problems[:20])


def test_comparison_catches_a_perturbed_number():
    want = json.loads(REFERENCE.read_text())
    got = json.loads(REFERENCE.read_text())
    row = got["simulate sphere(3)"]["csv"][-1]
    row[3] += 1e-11 * max(1.0, abs(row[3]))
    assert _mismatches(got, want)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] != ["--write"] or not set(sys.argv[2:]) <= set(CASES):
        sys.exit("usage: python tests/test_flow_regression.py --write [LABEL ...]")
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, label in enumerate(sys.argv[2:] or CASES):
            out_dir = Path(tmp) / str(i)
            out_dir.mkdir()
            ref[label] = run_case(label, out_dir)
    REFERENCE.write_text(json.dumps({k: ref[k] for k in CASES}, indent=1) + "\n")
