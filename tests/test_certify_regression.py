"""Number-level regression of the certificate engine.

``data/certify_reference.json`` holds, for every built-in scenario, the full
``certify`` report over every theorem id (and an unknown one), plus
``hp_report`` tables on six scenarios (kunita and translation(3) pin the
backend ``auto`` picks for a flat system and for a constant diffusion).
Every number must agree with it to 1e-12 relative.  A worst point or failing
sample must be the recorded one, or tie with it: both within
``criteria.TIE_TOLERANCE`` + 1e-12 relative of
the condition's maximum here.  The code names the first near-maximal point in
band order, but where the ratio ties over several points (exactly, by
symmetry, or up to finite-difference noise) which point comes first can hang
on last-bit rounding.  The numbers were recorded with the per-point engine
that preceded the batched one, the worst points of tied conditions with the
tie-break; to record it again from the code on ``PYTHONPATH``:

    python tests/test_certify_regression.py --write
"""

import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np

import pytest

from flowlab import CertifyConfig, builtin, certify, hp_report
from flowlab.criteria import TIE_TOLERANCE, SampleSet, direction_sample, tangent_directions

REFERENCE = Path(__file__).resolve().parent / "data" / "certify_reference.json"

SCENARIOS = ("translation(2)", "punctured_translation(2)", "rescaled_punctured_plane",
             "inversion_plane", "ou(1)", "kunita", "sphere(3)", "paraboloid", "linear")

THEOREMS = ("Cor5.2", "Thm5.1", "Thm5.3", "Thm6.2", "Cor6.3", "Thm7.1", "Prop7.2",
            "Thm8.1", "Thm8.2", "Cor8.3", "Diffeo", "Thm99.9")

HP_CASES = {"ou(1)": ("auto",), "inversion_plane": ("auto",),
            "sphere(3)": ("ricci", "gauss"), "paraboloid": ("auto",),
            "kunita": ("auto",), "translation(3)": ("auto",)}

REL = 1e-12


def _hp_samples(model):
    """Four radii of eight Sobol points (the model's sampler when it has
    one), four tangent directions each, as the hp-scan command draws them."""
    if getattr(model, "sampler", None) is not None:
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0x4B], dtype=np.uint64)))
        points = model.sampler(rng, 16)
    else:
        dirs = direction_sample(model.ambient_dim, 8)
        points = np.concatenate([r * dirs for r in (0.5, 1.0, 2.0, 4.0)])
    return [(x, v) for x in points for v in tangent_directions(model, x, 4)]


@contextlib.contextmanager
def _near_maxima(near: dict):
    """While active, each ``SampleSet.condition`` call adds to
    near[(name, worst ratio)] the sample points whose ratio is within
    (TIE_TOLERANCE + REL) * max(1, |max|) of the maximum."""
    condition = SampleSet.condition

    def watched(self, name, ratio):
        check = condition(self, name, ratio)
        r = np.broadcast_to(np.asarray(ratio, dtype=float), self.x.shape[:1])
        r = np.where(np.isfinite(r), r, np.inf)
        w = check.worst_ratio
        tol = (TIE_TOLERANCE + REL) * max(1.0, abs(w)) if np.isfinite(w) else 0.0
        near.setdefault((name, w), set()).update(map(tuple, self.x[r >= w - tol].tolist()))
        return check

    with mock.patch.object(SampleSet, "condition", watched):
        yield


def record(near: Optional[dict] = None) -> dict:
    """The reference data; with ``near``, also near[scenario] as
    :func:`_near_maxima` collects it."""
    out = {"certify": {}, "hp_report": {}}
    for name in SCENARIOS:
        scn = builtin(name)
        with contextlib.nullcontext() if near is None else _near_maxima(near.setdefault(name, {})):
            rep = certify(scn.system, CertifyConfig(theorems=THEOREMS, curvature=scn.curvature))
        out["certify"][name] = rep.to_dict()
    for name, backends in HP_CASES.items():
        scn = builtin(name)
        reports = hp_report(scn.system, _hp_samples(scn.model), p=2.0, backends=backends,
                            curvature=scn.curvature)
        out["hp_report"][name] = [r.to_dict() for r in reports]
    return out


def _conditions(obj):
    """The condition checks in obj, an entry's nested ones included."""
    if isinstance(obj, dict):
        if "worst_point" in obj:
            yield obj
        for v in obj.values():
            yield from _conditions(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _conditions(v)


def _tied(got: dict, want: dict, key: str, near: dict) -> bool:
    """Whether got[key] and want[key], a condition's worst point or an
    entry's failing sample, are both near-maximal points of one condition of
    got (the condition itself, or one of the entry's)."""
    pair = {tuple(got[key]), tuple(want[key])}
    return any(pair <= near.get((c["name"], c["worst_ratio"]), set()) for c in _conditions(got))


def _mismatches(got, want, path="", near=None) -> list:
    """Differences of got from want; with near, one scenario's near-maximal
    points from :func:`record`, tied worst points and failing samples agree."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        points = ("worst_point", "failing_sample") if near else ()
        return [m for k in want if not (k in points and _tied(got, want, k, near))
                for m in _mismatches(got[k], want[k], f"{path}.{k}", near)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]", near)]
    if isinstance(want, float) or isinstance(got, float):
        g, w = float(got), float(want)
        if math.isnan(w):
            return [] if math.isnan(g) else [f"{path}: {g!r} != nan"]
        if g == w or math.isclose(g, w, rel_tol=REL, abs_tol=0.0):
            return []
        return [f"{path}: {g!r} != {w!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def recorded():
    near = {}
    return _roundtrip(record(near)), near


def _compare(got, want, near) -> list:
    return [m for name in want["certify"]
            for m in _mismatches(got["certify"][name], want["certify"][name],
                                 f".certify.{name}", near[name])] \
        + _mismatches(got["hp_report"], want["hp_report"], ".hp_report")


def test_certify_and_hp_report_match_reference(recorded):
    got, near = recorded
    problems = _compare(got, json.loads(REFERENCE.read_text()), near)
    assert not problems, "\n".join(problems[:20])


def _condition(report, theorem, name):
    entry = next(e for e in report["entries"] if e["theorem"] == theorem)
    return next(c for c in entry["conditions"] if c["name"] == name)


def test_a_worst_point_may_move_only_within_its_ties(recorded):
    got, near = recorded
    # ou(1)'s drift-curvature ratio is -2 up to finite-difference noise over
    # the two outer bands: the recorded point and the far band's maximum tie
    want = _roundtrip(got)
    cond = _condition(want["certify"]["ou(1)"], "Cor5.2", "drift_curvature_upper_bound")
    far = max(near["ou(1)"][("drift_curvature_upper_bound", cond["worst_ratio"])])
    assert far != tuple(cond["worst_point"])
    cond["worst_point"] = list(far)
    assert not _compare(got, want, near)
    # paraboloid's first condition peaks at one point: any other point is caught
    want = _roundtrip(got)
    entry = want["certify"]["paraboloid"]["entries"][0]
    cond = entry["conditions"][0]
    assert len(near["paraboloid"][(cond["name"], cond["worst_ratio"])]) == 1
    other = next(c["worst_point"] for c in _conditions(want) if c["worst_point"] != cond["worst_point"])
    cond["worst_point"] = other
    assert _compare(got, want, near)


def test_comparison_catches_a_perturbed_number():
    want = json.loads(REFERENCE.read_text())
    got = json.loads(REFERENCE.read_text())
    cond = got["certify"]["paraboloid"]["entries"][0]["conditions"][0]
    assert cond["worst_ratio"] != 0.0
    cond["worst_ratio"] *= 1.0 + 1e-10
    assert _mismatches(got, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_certify_regression.py --write")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
