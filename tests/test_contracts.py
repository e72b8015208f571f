"""Boundary contracts of the public entry points: bad input raises
ContractError, never a raw Python error, a silent broadcast or a silently
rounded horizon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import (
    BrownianDriver,
    CapabilityError,
    CertifyConfig,
    ContractError,
    CurvatureData,
    FlowlabError,
    builtin,
    certify,
    check_growth,
    estimate_Ptf,
    estimate_deltaPt,
    estimate_exponential_functional,
    estimate_moment_exponent,
    estimate_nested_Ptf,
    estimate_radial_moment,
    estimate_stopped_moment,
    estimate_sup_derivative_moment,
    gradient_consistency_check,
    hp_report,
    integrate_flow,
    load_system,
    lyapunov_drift_bound,
    observable,
    oracle_convergence_study,
    scalar_field,
    schedule_for,
)
from flowlab.criteria import DEFAULT_RADII, TIE_TOLERANCE, SampleSet, direction_sample
from flowlab.estimators import _estimate_from_exponents
from flowlab import flow
from flowlab.flow import NoiseSource, StepSchedule
from flowlab.parallel import chunk_size, run_chunks

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.integers(max_value=0))
def test_run_chunks_needs_a_path(n_paths):
    with pytest.raises(ContractError):
        run_chunks(n_paths, lambda lo, hi: {"k": np.arange(lo, hi)})


@given(st.floats(allow_nan=False).filter(lambda n: n != int(n) if math.isfinite(n) else True)
       | st.integers(1, 5).map(float) | st.just("3"))
def test_run_chunks_needs_a_whole_number_of_paths(n_paths):
    # 2.5 used to raise a raw TypeError from range(); a path count is an int
    with pytest.raises(ContractError):
        run_chunks(n_paths, lambda lo, hi: {"k": np.arange(lo, hi)})


@settings(max_examples=20, deadline=None)
@given(st.floats(allow_nan=False).filter(lambda n: n != int(n) if math.isfinite(n) else True)
       | st.integers(1, 5).map(float) | st.just("3") | st.integers(max_value=0))
def test_oracle_study_needs_a_whole_number_of_paths(n_paths):
    # 2.5 used to raise a raw TypeError from slicing the surviving paths
    tr = builtin("translation(2)")
    with pytest.raises(ContractError):
        oracle_convergence_study(tr, [0.0, 0.0], 0.02, [4e-3, 1e-3], n_paths, seed=0)


@settings(max_examples=20, deadline=None)
@given(st.floats(allow_nan=False).filter(lambda n: n != int(n) if math.isfinite(n) else True)
       | st.integers(1, 5).map(float) | st.just("3") | st.integers(max_value=0),
       st.integers(1, 4))
def test_path_count_is_checked_before_the_chunk_size(n_paths, workers):
    # the chunk size is computed from n_paths: 2.5 must still be a
    # ContractError, not a raw error from the sizing arithmetic
    ou = builtin("ou(1)")
    with pytest.raises(ContractError):
        chunk_size(n_paths, workers)
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(ou.system, [1.0], 1.0, 0.02, n_paths, seed=0, dt=0.01,
                                       workers=workers)


@pytest.mark.parametrize("t, dts", [
    (0.02, [0.0]),                   # a raw ZeroDivisionError
    (0.02, [0.0, 1e-3]),
    (0.02, [math.nan, 1e-3]),        # a raw ValueError from rounding t / nan
    (math.nan, [4e-3, 1e-3]),
    (math.inf, [4e-3, 1e-3]),
    (-0.02, [4e-3, 1e-3]),
    (0.02, [-4e-3, 1e-3]),
    (0.02, []),                      # a raw IndexError
    (0.02, [1e-3]),                  # a slope fitted to one point
    (0.02, [1e-3, 1e-3]),            # a slope fitted to one point, twice
    (0.02, [1e-3, 1e-3 * (1 + 1e-12)]),   # two names for one grid
    (0.02, [0.04, 1e-3]),            # a step longer than the horizon
    (0.02, [3e-3, 1e-3]),            # does not divide the horizon
    (0.02, [4e-3, 2.5e-3]),          # divides it, but does not nest in the finest grid
])
def test_oracle_study_needs_two_distinct_nested_steps(t, dts):
    tr = builtin("translation(2)")
    with pytest.raises(ContractError):
        oracle_convergence_study(tr, [0.0, 0.0], t, dts, 4, seed=0)


def test_oracle_study_checks_its_start():
    # a one-component start on the plane used to raise a raw IndexError
    inv = builtin("inversion_plane")
    for x0 in ([1.0], [1.0, 0.0, 0.0], [math.nan, 0.0]):
        with pytest.raises(FlowlabError):
            oracle_convergence_study(inv, x0, 0.02, [4e-3, 1e-3], 4, seed=0)


@pytest.mark.parametrize("flags", [["--dts", "0"], ["--dts", "nan,0.001"], ["--dts", "0.001"],
                                   ["--t", "nan"], ["--x0", "1"]])
def test_the_oracle_test_command_exits_2_on_a_bad_ladder(tmp_path, capsys, flags):
    from flowlab import cli

    rc = cli.main(["oracle-test", "--scenario", "translation(2)", "--paths", "4", "--t", "0.02",
                   *flags, "--out", str(tmp_path)])
    assert rc == 2 and "flowlab:" in capsys.readouterr().err


def test_simulate_needs_a_whole_number_of_paths(tmp_path):
    # {"paths": 3.0} passes the config check and used to end in a raw
    # TypeError from range(); simulate now checks its count before any draw,
    # as every other Monte Carlo command does
    from flowlab import cli

    with pytest.raises(ContractError):
        cli.run("simulate", {"scenario": "ou(1)", "paths": 3.0, "t": 0.1, "dt": 0.01}, str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_the_noise_source_is_read_forward():
    # a step whose block was drawn over would be silently wrong noise
    noise = NoiseSource(BrownianDriver(3, 2), range(4), StepSchedule(dt=0.1, n_steps=70), block=32)
    assert noise[0].shape == (4, 2)
    noise[31], noise[26]             # the steps of the block in hand, in any order
    with pytest.raises(ContractError):
        noise[33]                    # skips step 32
    noise[32]                        # draws the next block, steps 32..63
    for k in (0, 31, 65, -1):
        with pytest.raises(ContractError):
            noise[k]
    for k in range(33, 70):
        noise[k]
    for spent in (lambda: noise[70], noise.next_block):
        with pytest.raises(ContractError):
            spent()


@settings(max_examples=20, deadline=None)
@given(st.integers(max_value=0))
def test_estimators_need_a_path(n_paths):
    ou = builtin("ou(1)")
    with pytest.raises(ContractError):
        estimate_Ptf(ou.system, observable(lambda x: x[..., 0]), [1.0], 0.1, n_paths, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(ou.system, [1.0], 1.0, 0.1, n_paths, seed=0, dt=0.01)


@pytest.mark.parametrize("n_paths", [True, False])
def test_a_bool_is_no_path_count(n_paths):
    # True used to run one path, since a bool is an int
    ou = builtin("ou(1)")
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(ou.system, [1.0], 1.0, 0.02, n_paths, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        flow.run_paths(ou.system, [1.0], schedule_for(0.02, 0.01), n_paths, 0, chunk=None)


@given(st.integers(max_value=-1) | st.integers(min_value=2 ** 64) | st.booleans()
       | st.just(2.0) | st.just("3"), st.booleans())
def test_seeds_and_streams_are_64_bit_words(bad, as_stream):
    # BrownianDriver(2**64, 1) used to draw seed 0's numbers, and -1 ran
    with pytest.raises(ContractError):
        BrownianDriver(0, 1, stream=bad) if as_stream else BrownianDriver(bad, 1)


def test_path_streams_end_at_the_last_64_bit_word():
    # stream 2^64 used to wrap round to stream 0
    last = BrownianDriver(3, 1, stream=2 ** 64 - 2).for_path(1)
    assert (last.seed, last.stream) == (3, 2 ** 64 - 1)
    with pytest.raises(ContractError):
        last.for_path(1)
    assert BrownianDriver(np.uint64(2 ** 64 - 1), 1, stream=np.int64(0)).seed == 2 ** 64 - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4))
def test_point_dimension_must_match_the_system(dim, n_components):
    if n_components == dim:
        n_components += 1
    system = builtin(f"ou({dim})").system
    x = np.ones(n_components)
    with pytest.raises(ContractError):
        integrate_flow(system, x[None, :], schedule_for(0.02, 0.01), BrownianDriver(0, dim))
    with pytest.raises(ContractError):
        estimate_Ptf(system, observable(lambda y: y[..., 0]), x, 0.02, 3, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(system, x, 1.0, 0.02, 3, seed=0, dt=0.01)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6))
def test_observables_give_one_value_per_point(n_paths):
    # f(x) = x on ou(2) gives two values per point: at n_paths=2 they used to
    # be broadcast into a mean of four numbers, at n_paths=5 a raw ValueError
    ou = builtin("ou(2)")
    ident = observable(lambda x: x, lambda x, v: v)
    x, v, kw = [1.0, 0.0], [1.0, 0.0], dict(n_paths=n_paths, seed=0, dt=0.01)
    calls = [lambda: estimate_Ptf(ou.system, ident, x, 0.02, **kw),
             lambda: estimate_deltaPt(ou.system, ident, x, v, 0.02, **kw),
             lambda: gradient_consistency_check(ou.system, ident, x, v, 0.02, **kw),
             lambda: estimate_exponential_functional(ou.system, ident.f, x, 0.02, 0.1, **kw)]
    for call in calls:
        with pytest.raises(ContractError):
            call()


@given(st.integers(1, 10_000), st.floats(1e-4, 1.0))
def test_whole_number_of_steps_accepted(n, dt):
    sched = schedule_for(n * dt, dt)
    assert sched.n_steps == n
    assert sched.dt == dt


@given(st.integers(1, 1000), st.floats(1e-3, 1.0), st.floats(0.01, 0.49), st.sampled_from([-1, 1]))
def test_fractional_horizon_rejected(n, dt, frac, sign):
    with pytest.raises(ContractError):
        schedule_for((n + sign * frac) * dt, dt)


@given(NON_FINITE | st.floats(max_value=0.0), st.booleans())
def test_bad_horizon_or_step_rejected(bad, as_step):
    with pytest.raises(ContractError):
        schedule_for(1.0, bad) if as_step else schedule_for(bad, 0.1)


@given(NON_FINITE | st.floats(max_value=0.0))
def test_step_schedule_needs_finite_positive_step(dt):
    with pytest.raises(ContractError):
        StepSchedule(dt=dt, n_steps=3)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4), st.floats(0.1, 0.9))
def test_moment_exponent_rejects_off_grid_horizons(n, frac):
    # a horizon between grid times used to be rounded to the nearest one and
    # reported unrounded: (0.015, 0.03, 0.05) at dt 0.01 evaluated t = 0.02
    ou = builtin("ou(1)")
    horizons = [(n + frac) * 0.01, 0.06, 0.08]
    with pytest.raises(ContractError):
        estimate_moment_exponent(ou.system, [1.0], 2.0, horizons, 3, seed=0, dt=0.01)


def test_moment_exponent_on_grid_horizons():
    ou = builtin("ou(1)")
    res = estimate_moment_exponent(ou.system, [1.0], 2.0, [0.02, 0.03, 0.05], 3, seed=0, dt=0.01)
    # the derivative flow of ou(1) is deterministic: Heun multiplies it by
    # 1 - dt + dt^2/2 per step, so log E|T_xF_t|^2 = 2 (t/dt) log(1 - dt + dt^2/2)
    heun = [2 * n * math.log(1 - 0.01 + 0.01 ** 2 / 2) for n in (2, 3, 5)]
    assert res.log_moments == pytest.approx(heun, rel=1e-9)


def test_exponent_mean_does_not_overflow():
    # 1e5 exponents of 699 sum past the largest double in linear space: the
    # estimate used to be inf with se 0, flagged invalid
    est = _estimate_from_exponents(np.full(100_000, 699.0), seed=0)
    assert est.log_space and not est.invalid
    assert est.value == 699.0 and est.se == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(600.0, 720.0), st.integers(1, 6),
       st.lists(st.floats(-2.0, 0.0), min_size=1, max_size=8))
def test_exponent_mean_is_log_mean_exp(top, reps, offsets):
    # near the overflow threshold, linear or log space, the estimate is the
    # finite log-mean-exp of the exponents
    expo = np.tile(top + np.array(offsets), reps * 1000)
    est = _estimate_from_exponents(expo, seed=0)
    assert not est.invalid
    log_value = est.value if est.log_space else math.log(est.value)
    want = top + math.log(np.mean(np.exp(np.array(offsets))))
    assert log_value == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# grids, moment orders, radius ladders and centres
# ----------------------------------------------------------------------

BAD_GRIDS = st.sampled_from([[], [[]], np.zeros((0, 1)), [[1.0], [1.0, 2.0]], [["a"]]]) \
    | NON_FINITE.map(lambda c: [[1.0], [c]]) | NON_FINITE.map(lambda c: [c])


@settings(max_examples=20, deadline=None)
@given(BAD_GRIDS)
def test_grids_must_be_nonempty_and_finite(grid):
    # an empty, ragged or non-numeric grid used to raise a raw IndexError or
    # ValueError, and a NaN point ran and reported 1.0
    ou = builtin("ou(1)")
    kw = dict(n_paths=3, seed=0, dt=0.01)
    calls = [lambda: estimate_sup_derivative_moment(ou.system, grid, 1.0, 0.02, **kw),
             lambda: estimate_stopped_moment(ou.system, grid, [1.0, 2.0], 0.02, **kw),
             lambda: estimate_moment_exponent(ou.system, grid, 1.0, [0.01, 0.02], **kw)]
    for call in calls:
        with pytest.raises(ContractError):
            call()


@settings(max_examples=20, deadline=None)
@given(NON_FINITE | st.floats(max_value=0.0))
def test_moment_order_must_be_finite_and_positive(p):
    # p = nan or inf used to return a nan estimate
    ou = builtin("ou(1)")
    kw = dict(n_paths=3, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(ou.system, [1.0], p, 0.02, **kw)
    with pytest.raises(ContractError):
        estimate_moment_exponent(ou.system, [1.0], p, [0.01, 0.02], **kw)


LADDERS = st.lists(st.floats(0.1, 100.0), min_size=1, max_size=5,
                   unique_by=lambda r: f"{r:g}").map(sorted)


@st.composite
def bad_ladders(draw):
    """A ladder with a NaN rung, or with two rungs out of order or equal."""
    rungs = draw(LADDERS)
    i = draw(st.integers(0, len(rungs)))
    if draw(st.booleans()):
        return rungs[:i] + [math.nan] + rungs[i:]
    j = min(i, len(rungs) - 1)
    return rungs[:j + 1] + [draw(st.floats(0.0, rungs[j]))] + rungs[j + 1:]


def _stopped(radii, grid=(1.0,), center=None):
    ou = builtin(f"ou({len(grid)})")
    return estimate_stopped_moment(ou.system, [list(grid)], radii, 0.02, 3, seed=0, dt=0.01,
                                   center=center)


def _radial(radii):
    tr = builtin("translation(2)")
    return estimate_radial_moment(tr.system, tr.curvature, [0.0, 0.0], 1.0, 0.02, 3, seed=0,
                                  dt=0.01, radius_ladder=radii)


@settings(max_examples=30, deadline=None)
@given(bad_ladders())
def test_radius_ladders_are_strictly_increasing_without_nan(radii):
    # a NaN rung used to run and report radius nan (stopped moments) or the
    # key "nan" (radial), and equal rungs merged into one radial key
    with pytest.raises(ContractError):
        _stopped(radii)
    with pytest.raises(ContractError):
        _radial(radii)


@settings(max_examples=10, deadline=None)
@given(LADDERS)
def test_good_radius_ladders_run(radii):
    assert _stopped(radii).radii == radii
    assert len(_radial(radii).exit_probabilities) == len(radii)


def test_stopped_moments_need_a_rung():
    # radii=[] used to raise a raw ValueError from min(); radial takes no rung
    with pytest.raises(ContractError):
        _stopped([])
    assert _radial([]).exit_probabilities == {}


@given(st.floats(1.0, 1e6).map(lambda r: float(f"{r:g}")))
def test_radial_rungs_need_distinct_report_keys(r):
    # keys are formatted with :g, so a rung just above one that :g prints
    # exactly would share its key
    with pytest.raises(ContractError):
        _radial([r, r * (1 + 1e-9)])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4).filter(lambda n: n != 2) | st.just(0), st.booleans())
def test_stopped_moment_centre_is_one_finite_point(n, bad_value):
    # center=[5.0] on a 2-d grid used to be broadcast, a length-3 one raised a
    # raw ValueError
    center = [5.0] * n if not bad_value else [1.0, math.nan]
    with pytest.raises(ContractError):
        _stopped([1.0, 2.0], grid=(1.0, 0.0), center=center)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4).filter(lambda n: n != 2).map(lambda n: [0.5] * n)
       | NON_FINITE.flatmap(lambda c: st.sampled_from([[c, 0.0], [0.0, c]])))
def test_radial_start_is_one_finite_point(x0):
    # [nan, 0] used to run and report an invalid nan moment with every path
    # truncated; a wrong-length start is no point of the system
    tr = builtin("translation(2)")
    with pytest.raises(ContractError):
        estimate_radial_moment(tr.system, tr.curvature, x0, 1.0, 0.02, 3, seed=0, dt=0.01)


def test_exponential_functional_start_is_one_point():
    # two starts on two paths used to run and report one mean over both
    # starts, with n_paths 4
    ou = builtin("ou(1)")
    with pytest.raises(ContractError):
        estimate_exponential_functional(ou.system, lambda x: x[..., 0], [[0.5], [2.0]], 0.02, 0.1,
                                        2, seed=0, dt=0.01)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 3) | st.just(-1), NON_FINITE)
def test_semigroup_directions_are_one_finite_vector(dim, n, bad):
    # [1.0, 2.0] on ou(1) used to raise a raw ValueError, a NaN v to return nan
    system = builtin(f"ou({dim})").system
    v = [1.0] * n if n != dim and n >= 0 else [bad] + [0.0] * (dim - 1)
    obs = observable(lambda x: x[..., 0], lambda x, w: w[..., 0])
    x, kw = [0.5] * dim, dict(n_paths=3, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        gradient_consistency_check(system, obs, x, v, 0.02, **kw)
    with pytest.raises(ContractError):
        estimate_deltaPt(system, obs, x, v, 0.02, **kw)


@settings(max_examples=20, deadline=None)
@given(st.just([]) | st.lists(st.sampled_from([0.0, -0.0, -1e-2, math.nan, math.inf]), min_size=1,
                              max_size=2).map(lambda bad: [1e-1] + bad))
def test_eps_ladder_needs_finite_positive_rungs(eps_ladder):
    # an empty ladder used to raise IndexError; a zero, negative or NaN rung
    # gave lhs = nan and "pass": false with a RuntimeWarning
    ou = builtin("ou(1)")
    obs = observable(lambda x: x[..., 0], lambda x, w: w[..., 0])
    with pytest.raises(ContractError):
        gradient_consistency_check(ou.system, obs, [0.5], [1.0], 0.02, 3, seed=0, dt=0.01,
                                   eps_ladder=eps_ladder)


#: a flat spec-file system punctured at (1, 2)
PUNCTURED_SPEC = {"name": "punctured_spec", "dim": 2, "noise_dim": 2,
                  "diffusion": [["1", "0"], ["0", "1"]], "drift": ["0", "0"],
                  "model": {"kind": "punctured_flat", "puncture": [1.0, 2.0]}}


@pytest.mark.parametrize("name, x0", [("ou(1)", [math.nan]), ("ou(2)", [0.0, math.inf]),
                                      ("punctured_translation(2)", [0.0, 0.0]),
                                      ("rescaled_punctured_plane", [0.0, 0.0]),
                                      ("punctured spec", [1.0, 2.0])])
def test_monte_carlo_starts_are_finite_and_admissible(monkeypatch, name, x0):
    # a NaN start used to truncate every path and report 0.0, or "pass": true
    # for the gradient check; a grid at a puncture reported a sup moment of
    # 1.0, stopped moments of 0.0 and an exponent slope of 0.0, and the nested
    # estimate from [nan] 0.0; every start is now checked before any chunk runs
    def no_chunks(*args, **kw):
        raise AssertionError("a chunk ran")
    monkeypatch.setattr(flow, "run_chunks", no_chunks)
    system = load_system(PUNCTURED_SPEC) if name == "punctured spec" else builtin(name).system
    curvature = CurvatureData(pole=np.zeros(system.dim))
    obs = observable(lambda x: x[..., 0], lambda x, w: w[..., 0])
    v, kw = [1.0] + [0.0] * (system.dim - 1), dict(n_paths=3, seed=0, dt=0.01)
    calls = [lambda: estimate_Ptf(system, obs, x0, 0.02, **kw),
             lambda: estimate_deltaPt(system, obs, x0, v, 0.02, **kw),
             lambda: gradient_consistency_check(system, obs, x0, v, 0.02, **kw),
             lambda: estimate_exponential_functional(system, obs.f, x0, 0.02, 0.1, **kw),
             lambda: estimate_nested_Ptf(system, obs, x0, 0.02, 0.02, 3, 3, seed=0, dt=0.01),
             lambda: estimate_radial_moment(system, curvature, x0, 1.0, 0.02, **kw),
             lambda: estimate_sup_derivative_moment(system, [x0], 1.0, 0.02, **kw),
             lambda: estimate_stopped_moment(system, [x0], [1.0, 2.0], 0.02, **kw),
             lambda: estimate_moment_exponent(system, [x0], 1.0, [0.01, 0.02], **kw)]
    for call in calls:
        with pytest.raises(FlowlabError):
            call()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4))
def test_semigroup_estimates_take_one_start(dim, coords):
    # [[0.5], [2.0]] on ou(1) used to return one mean over both starts, with
    # n_paths 200 for 100 paths
    system = builtin(f"ou({dim})").system
    starts = [[c] * dim for c in coords]             # G >= 2 starts
    obs = observable(lambda x: x[..., 0], lambda x, w: w[..., 0])
    v, kw = [1.0] * dim, dict(n_paths=3, seed=0, dt=0.01)
    calls = [lambda: estimate_Ptf(system, obs, starts, 0.02, **kw),
             lambda: estimate_deltaPt(system, obs, starts, v, 0.02, **kw),
             lambda: estimate_nested_Ptf(system, obs, starts, 0.02, 0.02, 3, 3, seed=0, dt=0.01)]
    for call in calls:
        with pytest.raises(ContractError):
            call()


#: ratio levels of a condition, and the nudges that make near-ties of them
RATIO_LEVELS = st.sampled_from([-2.0, 0.0, 0.5, 3.0, 1e6, math.inf, math.nan])
NUDGES = st.sampled_from(["none", "up", "down", "far"])


def _nudged(r, how):
    if not np.isfinite(r):
        return r
    return {"none": r, "up": np.nextafter(r, np.inf), "down": np.nextafter(r, -np.inf),
            "far": r - 1e-9 * max(1.0, abs(r))}[how]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_worst_point_is_the_first_near_tie_in_band_order(bands, data):
    n = sum(bands)
    levels = data.draw(st.lists(RATIO_LEVELS, min_size=n, max_size=n))
    nudges = data.draw(st.lists(NUDGES, min_size=n, max_size=n))
    ratio = np.array([_nudged(r, h) for r, h in zip(levels, nudges)])
    x = np.arange(2.0 * n).reshape(n, 2)
    S = SampleSet(x=x, dirs=np.ones((n, 1, 2)), keep=np.ones((n, 1), dtype=bool),
                  starts=np.cumsum([0] + bands[:-1]))
    check = S.condition("c", ratio)
    r = np.where(np.isfinite(ratio), ratio, np.inf)
    # constant and worst ratio stay the global max; non-finite reads as +inf
    assert check.constant == check.worst_ratio == r.max()
    tol = TIE_TOLERANCE * max(1.0, abs(r.max())) if np.isfinite(r.max()) else 0.0
    first = int(np.flatnonzero(r >= r.max() - tol)[0])
    assert check.worst_point == x[first].tolist()
    # last-bit rounding of the ratios does not move the worst point
    again = S.condition("c", np.array([_nudged(q, data.draw(NUDGES.filter(lambda h: h != "far")))
                                       for q in ratio]))
    assert again.worst_point == check.worst_point


BAD_COUNTS = [0, -3, 2.5, 2.0, True, False, "3", None, np.float64(4.0)]


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_certify_needs_a_whole_number_of_directions(n):
    # 0 and -3 used to raise a raw ValueError from an empty max, 2.5 a raw
    # TypeError, and True ran as one direction
    system = builtin("kunita").system
    with pytest.raises(ContractError):
        certify(system, CertifyConfig(theorems=("Cor5.2",), n_directions=n))
    with pytest.raises(ContractError):
        check_growth(system, "linear_growth", n_directions=n)


@pytest.mark.parametrize("bad", BAD_COUNTS)
def test_direction_sample_needs_whole_numbers(bad):
    # (0, 4) used to return a (0, 0) array; True must not hit the cached (1, n)
    direction_sample(1, 4)
    direction_sample(2, 1)
    with pytest.raises(ContractError):
        direction_sample(bad, 4)
    with pytest.raises(ContractError):
        direction_sample(2, bad)


def test_direction_sample_takes_numpy_integers():
    assert direction_sample(np.int64(3), np.int32(8)) is direction_sample(3, 8)


def test_direction_sample_stops_at_the_table():
    # scipy used to raise a raw ValueError past its 21,201 dimensions
    assert direction_sample(21201, 1).shape == (1, 21201)
    with pytest.raises(CapabilityError):
        direction_sample(21202, 4)
    with pytest.raises(CapabilityError):      # 2^31 points; the sequence has 2^30
        direction_sample(2, 2 ** 29)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), True, "1"])
def test_certificates_need_a_finite_order_and_exponent(bad):
    # p or epsilon = nan or inf used to give "certified" on ou(1), and
    # hp_report(p=nan) a list of nan with a RuntimeWarning
    system = builtin("ou(1)").system
    for kw in (dict(p=bad), dict(epsilon=bad)):
        with pytest.raises(ContractError):
            certify(system, CertifyConfig(theorems=("Cor5.2", "Thm5.3", "Thm6.2"), **kw))
        with pytest.raises(ContractError):
            check_growth(system, "epsilon_exponent", n_directions=4, **kw)
    with pytest.raises(ContractError):
        hp_report(system, [(np.array([1.0]), np.array([1.0]))], p=bad)


def test_certificates_take_any_finite_real():
    # an int, a numpy scalar and epsilon = 0 all pass the check
    system = builtin("ou(1)").system
    sample = [(np.array([1.0]), np.array([1.0]))]
    assert hp_report(system, sample, p=2)[0].values == hp_report(system, sample, p=np.float64(2))[0].values
    report = certify(system, CertifyConfig(theorems=("Thm5.3",), p=np.int64(1), epsilon=0))
    assert report.entries[0].status == "certified"


@st.composite
def bad_sample_ladders(draw):
    """A radius ladder a sample set rejects: empty, reversed, or with a rung
    that is not finite, not > 0, or not above the rung before it."""
    rungs = draw(LADDERS)
    how = draw(st.sampled_from(["empty", "reversed", "rung"]))
    if how == "empty":
        return []
    if how == "reversed" and len(rungs) > 1:
        return rungs[::-1]
    i = draw(st.integers(0, len(rungs)))
    bad = draw(st.one_of(NON_FINITE, st.floats(-10.0, 0.0), st.just(rungs[i - 1] if i else 0.0)))
    return rungs[:i] + [bad] + rungs[i:]


@settings(max_examples=40, deadline=None)
@given(bad_sample_ladders(), st.sampled_from(["kunita", "sphere(3)"]))
def test_sample_sets_need_a_positive_increasing_radius_ladder(radii, name):
    # a reversed ladder used to turn kunita's Thm6.2 from failed to certified,
    # radii=() on sphere(3) raised a raw ValueError, a NaN radius warned
    with pytest.raises(ContractError):
        SampleSet.build(builtin(name).model, radii, 4)


@settings(max_examples=10, deadline=None)
@given(LADDERS)
def test_good_sample_ladders_build_one_band_per_rung(radii):
    assert len(SampleSet.build(builtin("kunita").model, radii, 4).starts) == len(radii)


def test_a_reversed_ladder_does_not_certify_kunita():
    system = builtin("kunita").system
    assert certify(system, CertifyConfig(theorems=("Thm6.2",))).status_of("Thm6.2") == "failed"
    with pytest.raises(ContractError):
        certify(system, CertifyConfig(theorems=("Thm6.2",), radii=DEFAULT_RADII[::-1]))


def test_certify_takes_theorem_ids_not_a_string():
    # theorems="Cor5.2" used to report six "unknown theorem id" entries, one per character
    system = builtin("ou(1)").system
    with pytest.raises(ContractError):
        certify(system, CertifyConfig(theorems="Cor5.2"))
    # any iterable of ids is read lazily, one id at a time
    entries = certify(system, CertifyConfig(theorems=iter(["Cor5.2", "Thm6.2"]))).entries
    assert [e.theorem for e in entries] == ["Cor5.2", "Thm6.2"]


def test_the_drift_bound_needs_a_point():
    # an empty point list used to raise a raw TypeError
    g = scalar_field(lambda x: np.sum(x * x, axis=-1))
    with pytest.raises(ContractError):
        lyapunov_drift_bound(builtin("ou(1)").system, g, [])
