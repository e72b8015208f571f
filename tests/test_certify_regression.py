"""Number-level regression of the certificate engine.

``data/certify_reference.json`` holds, for every built-in scenario, the full
``certify`` report over every theorem id (and an unknown one), plus
``hp_report`` tables on four scenarios.  Every number must agree with it to
1e-12 relative, every worst point and failing sample included; where the worst
ratio is attained at several points by symmetry (``TIES``), the point found
must be one of them.  The reference was recorded with the per-point engine
that preceded the batched one; to record it again from the code on
``PYTHONPATH``:

    python tests/test_certify_regression.py --write
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from flowlab import CertifyConfig, builtin, certify, eval_Hp, hp_report
from flowlab.criteria import direction_sample, tangent_directions

REFERENCE = Path(__file__).resolve().parent / "data" / "certify_reference.json"

SCENARIOS = ("translation(2)", "punctured_translation(2)", "rescaled_punctured_plane",
             "inversion_plane", "ou(1)", "kunita", "sphere(3)", "paraboloid", "linear")

THEOREMS = ("Cor5.2", "Thm5.1", "Thm5.3", "Thm6.2", "Cor6.3", "Thm7.1", "Prop7.2",
            "Thm8.1", "Thm8.2", "Cor8.3", "Diffeo", "Thm99.9")

HP_CASES = {"ou(1)": ("auto",), "inversion_plane": ("auto",),
            "sphere(3)": ("ricci", "gauss"), "paraboloid": ("auto",)}

REL = 1e-12

#: conditions whose ratio is the same at every point of the far band, so that
#: the reference's worst point was picked among exact ties by last-bit
#: rounding, which a batched evaluation does not reproduce: on
#: inversion_plane H_1(x)(v, v) = 4|x|^2|v|^2 for every x and v
TIES = (("inversion_plane", "Thm5.1", "H_p_over_6p"),
        ("inversion_plane", "Thm5.3", "H_1_upper_bound"),
        ("inversion_plane", "Prop7.2", "H_p_growth_eps"))


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


def record() -> dict:
    out = {"certify": {}, "hp_report": {}}
    for name in SCENARIOS:
        scn = builtin(name)
        rep = certify(scn.system, CertifyConfig(theorems=THEOREMS, curvature=scn.curvature))
        out["certify"][name] = rep.to_dict()
    for name, backends in HP_CASES.items():
        scn = builtin(name)
        reports = hp_report(scn.system, _hp_samples(scn.model), p=2.0, backends=backends,
                            curvature=scn.curvature)
        out["hp_report"][name] = [r.to_dict() for r in reports]
    return out


def _mismatches(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
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


def _sup_h1(system, x):
    x = np.asarray(x, dtype=float)
    return max(eval_Hp(system, x, v, 1.0) for v in tangent_directions(system.model, x, 32))


def _settle_ties(got, want):
    """Where the worst point is one of several exact ties, check that the
    point found ties with the reference's (same radius, same sup H_1) and
    then compare it as the reference's."""
    for name, theorem, cond_name in TIES:
        system = builtin(name).system
        g_entry, w_entry = ({e["theorem"]: e for e in rep["certify"][name]["entries"]}[theorem]
                            for rep in (got, want))
        g_cond, w_cond = ({c["name"]: c for c in e["conditions"]}[cond_name]
                          for e in (g_entry, w_entry))
        g, w = g_cond["worst_point"], w_cond["worst_point"]
        assert math.isclose(np.linalg.norm(g), np.linalg.norm(w), rel_tol=REL)
        assert math.isclose(_sup_h1(system, g), _sup_h1(system, w), rel_tol=REL)
        if g_entry.get("failing_sample") == g:
            g_entry["failing_sample"] = w
        g_cond["worst_point"] = w


def test_certify_and_hp_report_match_reference():
    want = json.loads(REFERENCE.read_text())
    got = _roundtrip(record())
    _settle_ties(got, want)
    problems = _mismatches(got, want)
    assert not problems, "\n".join(problems[:20])


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
