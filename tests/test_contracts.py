"""Boundary contracts of the public entry points: bad input raises
ContractError, never a raw Python error, a silent broadcast or a silently
rounded horizon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import (
    BrownianDriver,
    ContractError,
    builtin,
    estimate_Ptf,
    estimate_deltaPt,
    estimate_exponential_functional,
    estimate_moment_exponent,
    estimate_sup_derivative_moment,
    gradient_consistency_check,
    integrate_flow,
    observable,
    schedule_for,
)
from flowlab.estimators import _estimate_from_exponents
from flowlab.flow import StepSchedule
from flowlab.parallel import run_chunks

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.integers(max_value=0))
def test_run_chunks_needs_a_path(n_paths):
    with pytest.raises(ContractError):
        run_chunks(n_paths, lambda lo, hi: {"k": np.arange(lo, hi)})


@settings(max_examples=20, deadline=None)
@given(st.integers(max_value=0))
def test_estimators_need_a_path(n_paths):
    ou = builtin("ou(1)")
    with pytest.raises(ContractError):
        estimate_Ptf(ou.system, observable(lambda x: x[..., 0]), [1.0], 0.1, n_paths, seed=0, dt=0.01)
    with pytest.raises(ContractError):
        estimate_sup_derivative_moment(ou.system, [1.0], 1.0, 0.1, n_paths, seed=0, dt=0.01)


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
