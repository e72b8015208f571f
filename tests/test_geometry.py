"""Geometry backends: projections, second fundamental forms, metric norms,
pole distances.  Oracle values are hand-derived where noted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import (
    CurvatureData,
    DomainError,
    CapabilityError,
    ContractError,
    FlatModel,
    PuncturedFlatModel,
    RescaledFlatModel,
    SingularPointError,
    graph_model,
    metric_norm,
    paraboloid_model,
    pole_distance,
    second_fundamental_form,
    sphere_model,
    tangent_project,
)


def coords(n, lo=-3.0, hi=3.0):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n).map(np.array)


class TestTangentProject:
    def test_flat_identity(self):
        m = FlatModel(2)
        u = np.array([1.0, 2.0])
        assert np.array_equal(tangent_project(m, np.array([5.0, -1.0]), u), u)

    def test_sphere_north_pole(self):
        # subtract <x,u> x by hand: (1,2,3) - 3*(0,0,1) = (1,2,0)
        m = sphere_model(3)
        out = tangent_project(m, np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [1.0, 2.0, 0.0], atol=1e-14)

    def test_sphere_normal_killed(self):
        m = sphere_model(3)
        out = tangent_project(m, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 5.0]))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_puncture_domain_error(self):
        m = PuncturedFlatModel(2, np.zeros(2))
        with pytest.raises(DomainError):
            tangent_project(m, np.zeros(2), np.ones(2))

    @settings(max_examples=50, deadline=None)
    @given(coords(3), coords(3))
    def test_projection_idempotent(self, x, u):
        m = sphere_model(3)
        if np.linalg.norm(x) < 0.3:
            x = x + np.array([1.0, 1.0, 1.0])
        x = x / np.linalg.norm(x)
        once = tangent_project(m, x, u)
        twice = tangent_project(m, x, once)
        assert np.linalg.norm(twice - once) <= 1e-10


class TestSecondFundamentalForm:
    def test_sphere_analytic(self):
        # differentiate the sphere projection field by hand: alpha(v,w) = -<v,w> x
        m = sphere_model(3)
        x = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        out = second_fundamental_form(m, x, v, v)
        assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)

    def test_zero_by_bilinearity(self):
        m = sphere_model(3)
        x = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        out = second_fundamental_form(m, x, v, np.zeros(3))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_flat_graph_totally_geodesic(self):
        m = graph_model(2, lambda u: np.zeros(u.shape[:-1]),
                        lambda u: np.zeros_like(u), lambda u, w: np.zeros_like(w))
        x = np.array([0.3, -0.7, 0.0])
        v = np.array([1.0, 2.0, 0.0])
        w = np.array([-1.0, 0.5, 0.0])
        out = second_fundamental_form(m, x, v, w)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_fd_matches_analytic_on_sphere(self):
        # the closed-form normal derivative against a central difference of the normal
        m = sphere_model(3)
        x = np.array([0.6, 0.0, 0.8])
        v = tangent_project(m, x, np.array([0.2, 1.0, -0.4]))
        exact = m.dnormal(x, v)
        h = 1e-5
        approx = (m.normal(x + h * v) - m.normal(x - h * v)) / (2.0 * h)
        assert np.linalg.norm(approx - exact) < 1e-7

    def test_non_tangent_rejected(self):
        m = sphere_model(3)
        with pytest.raises(ContractError):
            second_fundamental_form(m, np.array([0.0, 0.0, 1.0]),
                                    np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))

    def test_flat_model_rejected(self):
        with pytest.raises(CapabilityError):
            second_fundamental_form(FlatModel(2), np.zeros(2), np.ones(2), np.ones(2))

    @settings(max_examples=40, deadline=None)
    @given(coords(3), coords(3), st.floats(-2, 2), st.floats(-2, 2))
    def test_symmetry_bilinearity(self, a, b, s, tt):
        m = sphere_model(3)
        x = np.array([0.0, 0.0, 1.0])
        v = tangent_project(m, x, a)
        w = tangent_project(m, x, b)
        avw = second_fundamental_form(m, x, v, w)
        awv = second_fundamental_form(m, x, w, v)
        assert np.linalg.norm(avw - awv) <= 1e-10
        lin = second_fundamental_form(m, x, s * v + tt * w, w)
        parts = s * avw + tt * second_fundamental_form(m, x, w, w)
        assert np.linalg.norm(lin - parts) <= 1e-10 * (1 + np.linalg.norm(parts))

    def test_gauss_identity_on_sphere(self):
        # Ric(v,v) = <alpha(v,v), trace alpha> - |alpha(v,.)|_HS^2
        rng = np.random.default_rng(7)
        m = sphere_model(4)
        for _ in range(20):
            x = rng.standard_normal(4)
            x = x / np.linalg.norm(x)
            v = tangent_project(m, x, rng.standard_normal(4))
            frame = m.tangent_frame(x)
            tra = sum(second_fundamental_form(m, x, frame[:, j], frame[:, j])
                      for j in range(frame.shape[1]))
            hs = sum(np.sum(second_fundamental_form(m, x, v, frame[:, j]) ** 2)
                     for j in range(frame.shape[1]))
            avv = second_fundamental_form(m, x, v, v)
            lhs = m.ricci(x, v)
            rhs = float(avv @ tra) - hs
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))


class TestMetricNorm:
    def test_flat_euclidean(self):
        m = FlatModel(3)
        assert metric_norm(m, np.zeros(3), np.array([3.0, 4.0, 0.0])) == 5.0

    def test_rescaled_weight(self):
        m = RescaledFlatModel(2, weight=lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                              excluded=np.zeros(2))
        out = metric_norm(m, np.array([2.0, 0.0]), np.array([3.0, 0.0]))
        assert out == pytest.approx(1.5, abs=1e-14)

    def test_zero_vector(self):
        m = RescaledFlatModel(2, weight=lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                              excluded=np.zeros(2))
        assert metric_norm(m, np.array([2.0, 0.0]), np.zeros(2)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(coords(2, -5, 5), st.floats(0.01, 10))
    def test_homogeneous_degree_one(self, v, lam):
        m = RescaledFlatModel(2, weight=lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                              excluded=np.zeros(2))
        x = np.array([1.5, -0.5])
        a = metric_norm(m, x, lam * v)
        b = lam * metric_norm(m, x, v)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_excluded_set_error(self):
        m = RescaledFlatModel(2, weight=lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                              excluded=np.zeros(2))
        with pytest.raises(DomainError):
            metric_norm(m, np.zeros(2), np.ones(2))


FLAT_FAMILY = [FlatModel(2), PuncturedFlatModel(2, np.zeros(2)),
               RescaledFlatModel(2, weight=lambda x: 1.0 / np.linalg.norm(x, axis=-1),
                                 excluded=np.zeros(2))]


@pytest.mark.parametrize("m", FLAT_FAMILY, ids=lambda m: m.kind)
def test_flat_family_steps_without_copies(m):
    # the stepper retracts and projects every model unconditionally; on a
    # flat-family model both hand back the array they were given
    x, v = np.array([[1.0, 2.0], [3.0, -4.0]]), np.array([[0.5, 0.0], [-1.0, 2.0]])
    assert m.retract(x) is x
    assert m.tangent_project(x, v) is v
    assert np.array_equal(m.tangent_frame(x), np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert m.ricci is None and m.sampler is None


class TestPoleDistance:
    def test_the_model_answers_where_its_pole_is(self):
        # flat-family models measure to CurvatureData's pole; an embedded
        # model has its closed form or nothing, whatever the data say
        assert FlatModel(2).distance_to_pole(CurvatureData()) is None
        r, dr = FlatModel(2).distance_to_pole(CurvatureData(pole=np.ones(2)))(np.array([4.0, 5.0]))
        assert r == 5.0 and np.array_equal(dr, [0.6, 0.8])
        assert sphere_model(3).distance_to_pole(CurvatureData(pole=np.zeros(3))) is None
        assert paraboloid_model().distance_to_pole(CurvatureData()) is not None
        with pytest.raises(CapabilityError):
            pole_distance(sphere_model(3), CurvatureData(pole=np.zeros(3)), np.array([0.0, 0.0, 1.0]))

    def test_flat_euclidean_distance(self):
        m = FlatModel(3)
        data = CurvatureData(pole=np.zeros(3))
        r, dr, bound = pole_distance(m, data, np.array([3.0, 4.0, 0.0]))
        assert r == pytest.approx(5.0)
        assert np.allclose(dr, [0.6, 0.8, 0.0])

    def test_hessian_bound_coth(self):
        # independent evaluation: coth(1) = (e^2 + 1)/(e^2 - 1)
        m = FlatModel(1)
        data = CurvatureData(pole=np.zeros(1))
        _, _, bound = pole_distance(m, data, np.array([1.0]))
        e2 = np.exp(2.0)
        assert bound == pytest.approx((e2 + 1) / (e2 - 1), abs=1e-12)
        assert bound == pytest.approx(1.3130352854993312, abs=1e-10)

    def test_coth_limit_at_large_r(self):
        m = FlatModel(1)
        data = CurvatureData(pole=np.zeros(1))
        _, _, bound = pole_distance(m, data, np.array([50.0]))
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_pole_is_singular(self):
        m = FlatModel(2)
        data = CurvatureData(pole=np.zeros(2))
        with pytest.raises(SingularPointError):
            pole_distance(m, data, np.zeros(2))

    def test_paraboloid_closed_form(self):
        m = paraboloid_model()
        data = CurvatureData()
        rho = 2.0
        x = m.retract(np.array([rho, 0.0, 0.0]))
        r, dr, _ = pole_distance(m, data, x)
        # meridian arclength integral of sqrt(1 + s^2) from 0 to rho
        from scipy.integrate import quad
        expected = quad(lambda s: np.sqrt(1 + s * s), 0, rho)[0]
        assert r == pytest.approx(expected, rel=1e-10)
        assert np.linalg.norm(dr) == pytest.approx(1.0, abs=1e-12)

    def test_l_must_dominate_one(self):
        m = FlatModel(1)
        data = CurvatureData(pole=np.zeros(1), sectional_lower_bound=lambda r: 0.5 * np.ones_like(r))
        with pytest.raises(ContractError):
            pole_distance(m, data, np.array([1.0]))


def test_embedded_invariants_rank():
    m = sphere_model(4)
    x = np.array([0.5, 0.5, 0.5, 0.5])
    frame = m.tangent_frame(x)
    assert frame.shape == (4, 3)
    P = m.projection(x)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-14)
