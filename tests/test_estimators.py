"""Monte Carlo estimators: determinism, closed-form cases, bound conformance.

Expected values marked as derived were computed by hand or by an independent
oracle noted inline before being frozen here.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowlab import (
    ContractError,
    builtin,
    eval_Hp,
    estimate_exponential_functional,
    estimate_girsanov_one_completeness,
    estimate_moment_exponent,
    estimate_radial_moment,
    estimate_stopped_moment,
    estimate_sup_derivative_moment,
    graph_model,
    gradient_brownian_from_embedding,
)
from flowlab.criteria import tangent_directions
from flowlab.estimators import (
    Z95,
    MomentEstimate,
    _estimate_from_exponents,
    _mean_estimate,
    _sup_estimate,
    sup_h1_field,
)


class TestSupDerivativeMoment:
    def test_translation_identity(self):
        # the frame stays the identity: operator norm 1, any p, t, grid
        scn = builtin("translation(2)")
        res = estimate_sup_derivative_moment(scn.system, [[0.0, 0.0], [1.0, 2.0]],
                                             p=3.0, t=0.5, n_paths=32, seed=1, dt=1e-2)
        assert res.sup.value == 1.0
        assert res.sup.se == 0.0

    def test_ou_sup_at_time_zero(self):
        scn = builtin("ou(1)")
        res = estimate_sup_derivative_moment(scn.system, [[1.0]], p=1.0, t=1.0,
                                             n_paths=32, seed=2, dt=1e-2)
        assert res.sup.value == pytest.approx(1.0, abs=1e-12)

    def test_ou_terminal_decay(self):
        scn = builtin("ou(1)")
        res = estimate_sup_derivative_moment(scn.system, [[1.0]], p=1.0, t=1.0,
                                             n_paths=32, seed=2, dt=1e-3,
                                             terminal=True)
        assert res.sup.value == pytest.approx(np.exp(-1.0), abs=1e-5)

    def test_seed_determinism_bitwise(self):
        scn = builtin("inversion_plane")
        kw = dict(grid=[[1.0, 0.0]], p=1.0, t=0.3, n_paths=64, seed=42, dt=1e-2)
        a = estimate_sup_derivative_moment(scn.system, **kw)
        b = estimate_sup_derivative_moment(scn.system, **kw)
        assert a.sup.value == b.sup.value and a.sup.se == b.sup.se

    def test_monotone_in_horizon(self):
        # running sup can only grow with t, pathwise, hence in the mean
        scn = builtin("inversion_plane")
        short = estimate_sup_derivative_moment(scn.system, [[1.0, 0.0]], p=1.0,
                                               t=0.2, n_paths=128, seed=3, dt=1e-2)
        long = estimate_sup_derivative_moment(scn.system, [[1.0, 0.0]], p=1.0,
                                              t=0.4, n_paths=128, seed=3, dt=1e-2)
        assert long.sup.value >= short.sup.value - 1e-12

    def test_p_must_be_positive(self):
        scn = builtin("ou(1)")
        with pytest.raises(ContractError):
            estimate_sup_derivative_moment(scn.system, [[1.0]], p=0.0, t=1.0,
                                           n_paths=8, seed=1)

    def test_all_truncated_marks_invalid(self):
        # a tight explosion radius kills every path immediately
        scn = builtin("kunita")
        res = estimate_sup_derivative_moment(scn.system, [[50.0, 50.0]], p=1.0,
                                             t=0.5, n_paths=16, seed=4, dt=1e-2,
                                             r_expl=10.0)
        assert res.sup.truncated == 16
        assert res.sup.invalid

    def test_sup_compares_log_and_linear_estimates(self):
        # the first point's estimate is e^791 (log space), the second 2.5e126
        # (linear); the sup used to compare the stored log 791 with 2.5e126
        scn = builtin("kunita")
        res = estimate_sup_derivative_moment(scn.system, [[3.0, 3.0], [0.2, 0.2]], p=400.0,
                                             t=0.2, n_paths=200, seed=1, dt=0.01)
        big, small = res.per_point
        assert big.log_space and big.value == pytest.approx(791.02, abs=0.01)
        assert not small.log_space and 1e126 < small.value < 1e127
        assert res.sup is big


class TestSupEstimate:
    @staticmethod
    def est(value, log_space=False, invalid=False):
        return MomentEstimate(value=value, se=0.0, n_paths=1, seed=0,
                              log_space=log_space, invalid=invalid)

    def test_log_scale_order(self):
        a, b, c = self.est(800.0, True), self.est(1e300), self.est(900.0, True)
        assert _sup_estimate([a, b, c]) is c
        assert _sup_estimate([b, self.est(3.0, True)]) is b

    def test_linear_ties_keep_the_first_maximum(self):
        a, b, c = self.est(2.0), self.est(5.0), self.est(5.0)
        assert _sup_estimate([a, b, c]) is b

    def test_invalid_points_are_skipped(self):
        bad, good = self.est(float("nan"), invalid=True), self.est(0.5)
        assert _sup_estimate([bad, good]) is good

    def test_all_invalid_gives_the_first_flagged(self):
        a, b = self.est(1.0, invalid=True), self.est(2.0, invalid=True)
        assert _sup_estimate([a, b]) is a and a.invalid


class TestStandardError:
    def test_se_finite_past_the_square_overflow(self):
        # deviations past ~1.3e154 used to overflow np.std to an se of inf
        est = _estimate_from_exponents(np.array([360.0, 359.0, 358.0]), seed=0)
        assert not est.log_space and not est.invalid
        ref = np.exp(360.0) * np.std(np.exp([0.0, -1.0, -2.0])) / np.sqrt(3)
        assert est.se == pytest.approx(ref, rel=1e-12)

    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=20))
    def test_finite_values_give_finite_se(self, values):
        assert np.isfinite(_mean_estimate(values, seed=0).se)


class TestStoppedMoment:
    def test_translation_probability_decreasing(self):
        # |TF| = 1, so each rung estimates P(S_j < t), decreasing in j
        scn = builtin("translation(1)")
        res = estimate_stopped_moment(scn.system, [[0.0]], [0.5, 1.0, 1.5, 2.0],
                                      t=1.0, n_paths=512, seed=5, dt=1e-2)
        vals = [e.value for e in res.per_radius_sup]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_ou_gronwall_bound(self):
        # drift bound c = sup H_1 = -2 gives the e^{ct/2} = e^{-t} ceiling
        scn = builtin("ou(1)")
        res = estimate_stopped_moment(scn.system,
                                      [[x] for x in np.linspace(-0.5, 0.5, 5)],
                                      [2.0, 2.5, 3.0, 4.0], t=1.0,
                                      n_paths=2048, seed=6, dt=1e-2)
        ceiling = np.exp(-1.0)
        for est in res.per_radius_sup:
            assert est.value <= ceiling * (1.0 + 3.0 * est.se) + 1e-12

    def test_translation_gronwall_trivial_bound(self):
        # H_1 = 0: stopped moments sit below e^0 = 1
        scn = builtin("translation(1)")
        res = estimate_stopped_moment(scn.system, [[0.0]], [1.0, 2.0], t=1.0,
                                      n_paths=256, seed=7, dt=1e-2)
        for est in res.per_radius_sup:
            assert est.value <= 1.0 + 3.0 * est.se

    def test_kunita_negative_control_grows(self):
        # no visible ceiling: the ladder climbs monotonically once the flow
        # reaches its blow-up regime (values frozen from this seed: the last
        # rung dominates the first by an order of magnitude)
        scn = builtin("kunita")
        res = estimate_stopped_moment(scn.system, [[3.0, 3.0]],
                                      [4.0, 8.0, 16.0, 32.0, 64.0],
                                      t=2.0, n_paths=1024, seed=8, dt=1e-3)
        vals = [e.value for e in res.per_radius_sup]
        assert vals[-1] > 10.0 * vals[0]
        assert res.liminf_proxy > 1.0

    def test_liminf_proxy_is_tail_min(self):
        scn = builtin("translation(1)")
        res = estimate_stopped_moment(scn.system, [[0.0]], [0.5, 1.0, 1.5, 2.0],
                                      t=1.0, n_paths=128, seed=9, dt=1e-2)
        tail = [e.value for e in res.per_radius_sup[-3:]]
        assert res.liminf_proxy == pytest.approx(min(tail))

    def test_radii_must_increase(self):
        scn = builtin("translation(1)")
        with pytest.raises(ContractError):
            estimate_stopped_moment(scn.system, [[0.0]], [2.0, 1.0], t=1.0,
                                    n_paths=8, seed=1)


class TestExponentialFunctional:
    def test_constant_integrand_exact(self):
        scn = builtin("translation(1)")
        c = 0.7
        main, comp = estimate_exponential_functional(
            scn.system, lambda x: np.full(np.asarray(x).shape[:-1], c),
            [0.0], t=1.0, theta=0.3, n_paths=64, seed=10, dt=1e-2)
        assert main.value == pytest.approx(np.exp(0.3 * c), rel=1e-12)
        assert comp.value == pytest.approx(np.exp(0.3 * c), rel=1e-12)

    def test_theta_zero_is_one(self):
        scn = builtin("translation(1)")
        main, _ = estimate_exponential_functional(
            scn.system, lambda x: np.abs(x[..., 0]), [0.0], t=1.0, theta=0.0,
            n_paths=32, seed=11, dt=1e-2)
        assert main.value == 1.0 and main.se == 0.0

    def test_jensen_ordering_pathwise(self):
        # discrete convexity: the companion dominates on the same paths
        scn = builtin("translation(1)")
        f = lambda x: 1.0 + np.log1p(x[..., 0] ** 2)
        main, comp = estimate_exponential_functional(
            scn.system, f, [0.0], t=1.0, theta=0.05, n_paths=512, seed=12, dt=1e-2)
        assert main.value <= comp.value + 3.0 * np.hypot(main.se, comp.se)

    def test_log_space_fallback(self):
        scn = builtin("translation(1)")
        main, comp = estimate_exponential_functional(
            scn.system, lambda x: np.full(np.asarray(x).shape[:-1], 900.0),
            [0.0], t=1.0, theta=1.0, n_paths=16, seed=13, dt=1e-1)
        assert main.log_space
        assert main.value == pytest.approx(900.0, rel=1e-9)


class TestRadialMoment:
    def test_zero_system_exact(self):
        from dataclasses import replace
        from flowlab.scenarios import _translation_system
        tr = _translation_system(3)
        zero = replace(tr, diffusion=lambda x, e: np.zeros_like(np.asarray(x, dtype=float)),
                       diffusion_jacobian=lambda x, e, v: np.zeros_like(np.asarray(v, dtype=float)))
        scn = builtin("translation(3)")
        res = estimate_radial_moment(zero, scn.curvature, [3.0, 4.0, 0.0], p=2.0,
                                     t=1.0, n_paths=16, seed=14, dt=1e-2)
        assert res.moment.value == pytest.approx(36.0, rel=1e-12)  # (1 + 5)^2
        assert res.moment.se == 0.0

    def test_translation_vs_exact_sampling_oracle(self):
        # independent oracle: B_t ~ N(0, t I3) sampled directly
        scn = builtin("translation(3)")
        res = estimate_radial_moment(scn.system, scn.curvature, [0.0, 0.0, 0.0],
                                     p=2.0, t=1.0, n_paths=4096, seed=15, dt=1e-2)
        rng = np.random.default_rng(999)
        z = rng.standard_normal((200_000, 3))
        oracle_vals = (1.0 + np.linalg.norm(z, axis=1)) ** 2
        oracle = oracle_vals.mean()
        oracle_se = oracle_vals.std() / np.sqrt(oracle_vals.size)
        assert abs(res.moment.value - oracle) <= 4.0 * np.hypot(res.moment.se, oracle_se) + 5e-3

    def test_exit_probabilities_monotone(self):
        scn = builtin("translation(2)")
        res = estimate_radial_moment(scn.system, scn.curvature, [0.0, 0.0], p=1.0,
                                     t=1.0, n_paths=1024, seed=16, dt=1e-2,
                                     radius_ladder=[0.5, 1.0, 2.0, 3.0])
        probs = [res.exit_probabilities[k] for k in ("0.5", "1", "2", "3")]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_bound_comparison(self):
        scn = builtin("translation(2)")
        res = estimate_radial_moment(scn.system, scn.curvature, [0.0, 0.0], p=1.0,
                                     t=1.0, n_paths=512, seed=17, dt=1e-2,
                                     radius_ladder=[2.0], k0=1.0)
        assert res.bound is not None and res.bound_satisfied
        assert res.exit_bounds["2"] == pytest.approx(res.bound / 2.0)


class TestMomentExponent:
    def test_ou_first_and_second_moment_rates(self):
        scn = builtin("ou(1)")
        res1 = estimate_moment_exponent(scn.system, [[1.0]], p=1.0,
                                        horizons=[1.0, 2.0, 3.0, 4.0],
                                        n_paths=64, seed=18, dt=5e-3)
        assert res1.slope == pytest.approx(-1.0, abs=0.05)
        res2 = estimate_moment_exponent(scn.system, [[1.0]], p=2.0,
                                        horizons=[1.0, 2.0, 3.0, 4.0],
                                        n_paths=64, seed=18, dt=5e-3)
        assert res2.slope == pytest.approx(-2.0, abs=0.1)

    def test_translation_zero_rate(self):
        scn = builtin("translation(2)")
        res = estimate_moment_exponent(scn.system, [[0.0, 0.0]], p=1.0,
                                       horizons=[0.5, 1.0, 1.5, 2.0],
                                       n_paths=32, seed=19, dt=1e-2)
        assert res.slope == pytest.approx(0.0, abs=1e-9)

    def test_residuals_reported(self):
        scn = builtin("ou(1)")
        res = estimate_moment_exponent(scn.system, [[1.0]], p=1.0,
                                       horizons=[1.0, 2.0, 3.0], n_paths=16,
                                       seed=20, dt=1e-2)
        assert len(res.residuals) == 3
        assert max(abs(r) for r in res.residuals) < 1e-3

    def test_sup_over_log_space_points_takes_the_larger(self):
        # both grid points give log-space estimates at each horizon; the sup
        # used to rank every log-space estimate as +inf and keep the first
        scn = builtin("kunita")
        grid = [[0.2, 0.2], [3.0, 3.0]]
        res = estimate_moment_exponent(scn.system, grid, p=2000.0, horizons=[0.1, 0.2],
                                       n_paths=200, seed=1, dt=0.01)
        for h, sup in zip(res.horizons, res.per_horizon):
            # the terminal moment at h rides the same increments
            points = estimate_sup_derivative_moment(scn.system, grid, p=2000.0, t=h,
                                                    n_paths=200, seed=1, dt=0.01,
                                                    terminal=True).per_point
            assert all(e.log_space for e in points)
            assert sup.value == max(e.value for e in points)


class TestGirsanovFunctional:
    def test_sphere_constant_integrand(self):
        # sup H_1 = p + 1 - n = -1 on the unit 2-sphere: estimate e^{-T/2} exactly
        scn = builtin("sphere(3)")
        res = estimate_girsanov_one_completeness(scn.system, [[0.0, 0.0, 1.0]],
                                                 t=0.5, n_paths=32, seed=21,
                                                 dt=1e-2, n_directions=8)
        assert res.sup.value == pytest.approx(np.exp(-0.25), rel=1e-10)

    def test_flat_gradient_system_is_one(self):
        # totally geodesic graph embedding: H_1 = 0 identically
        m = graph_model(2, lambda u: np.zeros(u.shape[:-1]), lambda u: np.zeros_like(u),
                        lambda u, w: np.zeros_like(w))
        m.mean_curvature = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        sys0 = gradient_brownian_from_embedding(m)
        res = estimate_girsanov_one_completeness(sys0, [[0.0, 0.0, 0.0]], t=0.5,
                                                 n_paths=16, seed=22, dt=1e-2,
                                                 n_directions=4)
        assert res.sup.value == pytest.approx(1.0, abs=1e-12)

    def test_paraboloid_finite(self):
        scn = builtin("paraboloid")
        res = estimate_girsanov_one_completeness(scn.system, [[0.0, 0.0, 0.0]],
                                                 t=0.3, n_paths=64, seed=23,
                                                 dt=1e-2, n_directions=8)
        assert np.isfinite(res.sup.value)
        assert res.sup.value > 0
        assert np.isfinite(res.sup.se)


@pytest.mark.parametrize("name", ["sphere(3)", "paraboloid"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sup_h1_field_equals_stacked_pairs(name, data):
    scn = builtin(name)
    n = data.draw(st.integers(1, 5))
    xs = data.draw(arrays(float, (n, 3), elements=st.floats(-3.0, 3.0, allow_nan=False)))
    assume(np.all(np.linalg.norm(xs, axis=-1) > 0.1))
    x = scn.model.retract(xs)
    field = sup_h1_field(scn.system, n_directions=16)(x)
    single = [max(eval_Hp(scn.system, p, v, 1.0, backend="gauss")
                  for v in tangent_directions(scn.model, p, 16)) for p in x]
    assert field.shape == (n,)
    np.testing.assert_allclose(field, single, rtol=1e-12,
                               atol=1e-12 * (1.0 + np.max(np.abs(single))))


def test_worker_count_does_not_change_results():
    scn = builtin("ou(1)")
    kw = dict(grid=[[1.0]], p=1.0, t=1.0, n_paths=3000, seed=24, dt=1e-2)
    one = estimate_sup_derivative_moment(scn.system, workers=1, **kw)
    eight = estimate_sup_derivative_moment(scn.system, workers=8, **kw)
    assert one.sup.value == eight.sup.value
    assert one.sup.se == eight.sup.se
