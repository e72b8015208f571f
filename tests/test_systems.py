"""System algebra: calculus conversions, effective drift, adjoints, gradient
Brownian construction, expression-defined systems."""

import numpy as np
import pytest

from flowlab import (
    FlatModel,
    VectorFieldSystem,
    adjoint,
    apply_generator,
    as_ito,
    as_stratonovich,
    builtin,
    convert_calculus,
    effective_drift,
    gradient_brownian_from_embedding,
    isometry_defect,
    load_system,
    sphere_model,
)
from flowlab.systems import STRATONOVICH, ITO


def scalar_system(calculus="ito"):
    """1-d system X(x) = x, drift 0 in the given calculus."""
    return VectorFieldSystem(
        name="scalar_mult", dim=1, noise_dim=1,
        diffusion=lambda x, e: np.asarray(x, dtype=float) * np.asarray(e, dtype=float),
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion_jacobian=lambda x, e, v: np.asarray(v, dtype=float) * np.asarray(e, dtype=float),
        drift_jacobian=lambda x, v: np.zeros_like(np.asarray(v, dtype=float)),
        calculus=calculus, model=FlatModel(1),
    )


class TestConvertCalculus:
    def test_constant_diffusion_unchanged(self):
        tr = builtin("translation(2)").system
        conv = convert_calculus(tr, ITO)
        x = np.array([0.7, -0.2])
        assert np.array_equal(conv.drift(x), tr.drift(x))
        assert conv.calculus == ITO

    def test_multiplicative_correction_by_hand(self):
        # X(x) = x, Ito drift 0: Stratonovich drift -x/2
        s = convert_calculus(scalar_system("ito"), STRATONOVICH)
        for x in (np.array([1.0]), np.array([-2.5]), np.array([0.3])):
            assert s.drift(x) == pytest.approx(-x / 2.0, abs=1e-12)

    def test_round_trip_drift(self):
        sys0 = scalar_system("ito")
        back = convert_calculus(convert_calculus(sys0, STRATONOVICH), ITO)
        xs = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(back.drift(xs), sys0.drift(xs), atol=1e-9)

    def test_round_trip_ou(self):
        ou = builtin("ou(1)").system
        back = as_stratonovich(as_ito(ou))
        x = np.array([1.3])
        assert np.array_equal(back.drift(x), ou.drift(x))

    def test_inversion_correction_vanishes(self):
        # holomorphic coefficients: the two calculi agree
        inv = builtin("inversion_plane").system
        conv = convert_calculus(inv, ITO)
        x = np.array([0.4, -1.1])
        assert np.allclose(conv.drift(x), inv.drift(x), atol=1e-12)


class TestEffectiveDrift:
    def test_translation_zero(self):
        dec = effective_drift(builtin("translation(2)").system)
        assert np.allclose(dec.a_x(np.array([3.0, 4.0])), 0.0)

    def test_ou_equals_drift(self):
        dec = effective_drift(builtin("ou(2)").system)
        x = np.array([1.0, -2.0])
        assert np.allclose(dec.a_x(x), -x, atol=1e-14)

    def test_sphere_gradient_vanishes(self):
        # sum of covariant derivatives of the projection columns is zero
        dec = effective_drift(builtin("sphere(3)").system)
        x = np.array([0.0, 0.6, 0.8])
        assert np.linalg.norm(dec.a_x(x)) < 1e-10

    def test_decomposition_identity(self):
        sys0 = as_stratonovich(scalar_system("ito"))
        dec = effective_drift(sys0)
        x = np.array([0.9])
        lhs = dec.a_x(x)
        rhs = dec.correction(x) + sys0.drift(x)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_generator_on_quadratic(self):
        # translation generator on f = |x|^2 / 2 is the half-Laplacian: n/2
        tr = builtin("translation(3)").system
        val = apply_generator(tr, grad=lambda x: x,
                              hess_quad=lambda x, u: np.sum(u * u, axis=-1),
                              x=np.array([0.3, -0.5, 1.0]))
        assert val == pytest.approx(1.5, abs=1e-12)


class TestAdjoint:
    def test_ou_sign_flip(self):
        ou = builtin("ou(1)").system
        adj = adjoint(ou)
        x = np.array([0.8])
        assert np.array_equal(adj.drift(x), -ou.drift(x))

    def test_translation_self_adjoint(self):
        tr = builtin("translation(2)").system
        adj = adjoint(tr)
        x = np.array([1.0, 2.0])
        assert np.array_equal(adj.drift(x), tr.drift(x))

    def test_involution_exact(self):
        ou = builtin("ou(1)").system
        twice = adjoint(adjoint(ou))
        for x in np.linspace(-3, 3, 7):
            xv = np.array([x])
            assert np.array_equal(twice.drift(xv), ou.drift(xv))
            assert np.array_equal(twice.drift_jacobian(xv, np.array([1.0])),
                                  ou.drift_jacobian(xv, np.array([1.0])))

    def test_gradient_adjoint_negates_z(self):
        model = sphere_model(3)
        z = lambda x: model.tangent_project(x, np.array([0.1, 0.0, 0.0]))
        sys0 = gradient_brownian_from_embedding(model, drift_z=z)
        adj = adjoint(sys0)
        x = np.array([0.0, 0.0, 1.0])
        assert np.allclose(adj.z_drift(x), -z(x))
        assert adj.is_gradient


class TestGradientBrownian:
    def test_identity_embedding_is_translation(self):
        from flowlab import graph_model
        m = graph_model(2, lambda u: np.zeros(u.shape[:-1]), lambda u: np.zeros_like(u),
                        lambda u, w: np.zeros_like(w))
        sys0 = gradient_brownian_from_embedding(m)
        x = np.array([0.2, -0.7, 0.0])
        e = np.array([1.0, 2.0, 0.0])
        assert np.allclose(sys0.diffusion(x, e), e, atol=1e-12)

    def test_sphere_column_and_jacobian(self):
        # X((0,0,1)) e1 = (1,0,0); grad X^i(v) = -<x, e_i> v on the unit sphere
        sys0 = builtin("sphere(3)").system
        x = np.array([0.0, 0.0, 1.0])
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(sys0.diffusion(x, e1), [1.0, 0.0, 0.0], atol=1e-14)
        v = np.array([1.0, 0.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        j = sys0.model.tangent_project(x, sys0.diffusion_jacobian(x, e3, v))
        assert np.allclose(j, -v, atol=1e-12)

    def test_isometry(self):
        sys0 = builtin("sphere(4)").system
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            assert isometry_defect(sys0, x) <= 1e-10

    def test_gradient_identities(self):
        # sum_i <grad X^i(v), v>^2 = |alpha(v,v)|^2 and
        # sum_i |grad X^i(v)|^2 = |alpha(v,.)|_HS^2
        from flowlab import second_fundamental_form, tangent_project
        model = sphere_model(4)
        sys0 = gradient_brownian_from_embedding(model)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            v = tangent_project(model, x, rng.standard_normal(4))
            s_dir = s_hs = 0.0
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1.0
                j = model.tangent_project(x, sys0.diffusion_jacobian(x, e, v))
                s_dir += float(j @ v) ** 2
                s_hs += float(j @ j)
            avv = second_fundamental_form(model, x, v, v)
            frame = model.tangent_frame(x)
            hs = sum(np.sum(second_fundamental_form(model, x, v, frame[:, k]) ** 2)
                     for k in range(frame.shape[1]))
            assert s_dir == pytest.approx(float(avv @ avv), abs=1e-8)
            assert s_hs == pytest.approx(hs, abs=1e-8)

    def test_diffusion_linear_in_noise(self):
        sys0 = builtin("sphere(3)").system
        x = np.array([0.6, 0.0, 0.8])
        e1, e2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        lhs = sys0.diffusion(x, 2.0 * e1 + 0.5 * e2)
        rhs = 2.0 * sys0.diffusion(x, e1) + 0.5 * sys0.diffusion(x, e2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestExpressionSystems:
    def test_kunita_matches_builtin(self):
        spec = {"name": "kunita_expr", "dim": 2, "noise_dim": 2,
                "diffusion": [["y", "0"], ["0", "x^2/2"]],
                "drift": ["0", "0"], "calculus": "stratonovich"}
        user = load_system(spec)
        ref = builtin("kunita").system
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(2) * 2
            e = rng.standard_normal(2)
            assert np.allclose(user.diffusion(x, e), ref.diffusion(x, e), atol=1e-12)
        # FD jacobian close to analytic
        x = np.array([1.5, -0.5])
        v = np.array([0.3, 0.9])
        e = np.array([0.0, 1.0])
        assert np.allclose(user.diffusion_jacobian(x, e, v),
                           ref.diffusion_jacobian(x, e, v), atol=1e-6)

    def test_expression_functions(self):
        from flowlab import compile_expression
        f = compile_expression("exp(x) + sin(y) * |x - 1| + sqrt(x^2)", 2)
        x = np.array([[0.5, 1.2], [2.0, -0.3]])
        expected = np.exp(x[:, 0]) + np.sin(x[:, 1]) * np.abs(x[:, 0] - 1) + np.abs(x[:, 0])
        assert np.allclose(f(x), expected, atol=1e-14)

    def test_rejects_unknown_symbols(self):
        from flowlab import compile_expression
        from flowlab.expressions import ExpressionError
        with pytest.raises(ExpressionError):
            compile_expression("import_os(x)", 1)
        with pytest.raises(ExpressionError):
            compile_expression("x3", 2)
        with pytest.raises(ExpressionError):
            compile_expression("x +", 1)

    def test_power_right_assoc_and_unary(self):
        from flowlab import compile_expression
        f = compile_expression("-x^2", 1)
        assert f(np.array([3.0])) == pytest.approx(-9.0)
        g = compile_expression("2^x^2", 1)  # 2^(x^2)
        assert g(np.array([2.0])) == pytest.approx(16.0)
