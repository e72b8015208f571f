"""The bilinear forms and the verdict engine, checked against hand-derived
values: the linear restoring system gives -2|v|^2 for every p, the unit sphere
gives (p + 1 - n)|v|^2 in both curvature backends."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import flowlab
from flowlab import (
    CapabilityError,
    ContractError,
    CertifyConfig,
    builtin,
    certify,
    check_growth,
    eval_Hp,
    eval_Htilde,
    hp_report,
    lyapunov_drift_bound,
    scalar_field,
    tangent_project,
)
from flowlab.criteria import SampleSet, SweepSet, direction_sample, tangent_directions
from flowlab.geometry import EmbeddedModel
from flowlab.systems import adjoint, gradient_brownian_from_embedding


class TestEvalHp:
    def test_ou_euclidean_hand_value(self):
        # DA = -1, DX = 0: H_p(v, v) = -2 v^2 for every p
        ou = builtin("ou(1)").system
        for p in (0.5, 1.0, 2.0, 4.0):
            val = eval_Hp(ou, np.array([0.7]), np.array([2.0]), p)
            assert val == pytest.approx(-8.0, abs=1e-9)

    def test_translation_vanishes(self):
        tr = builtin("translation(3)").system
        for p in (1.0, 2.0, 4.0):
            assert eval_Hp(tr, np.ones(3), np.array([0.0, 1.0, 2.0]), p) == 0.0

    def test_sphere_both_backends(self):
        rng = np.random.default_rng(2)
        for n in (3, 4):
            scn = builtin(f"sphere({n})")
            for _ in range(10):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                v = tangent_project(scn.model, x, rng.standard_normal(n))
                if np.linalg.norm(v) < 1e-3:
                    continue
                for p in (1.0, 2.0, 4.0):
                    expected = (p + 1 - n) * float(v @ v)
                    via_ric = eval_Hp(scn.system, x, v, p, backend="ricci",
                                      curvature=scn.curvature)
                    via_gauss = eval_Hp(scn.system, x, v, p, backend="gauss")
                    assert via_ric == pytest.approx(expected, abs=1e-8)
                    assert via_gauss == pytest.approx(expected, abs=1e-8)

    def test_htilde_values(self):
        tr = builtin("translation(2)").system
        assert eval_Htilde(tr, np.zeros(2), np.array([1.0, 0.0])) == 0.0
        ou = builtin("ou(1)").system
        assert eval_Htilde(ou, np.array([0.0]), np.array([1.0])) == pytest.approx(-2.0, abs=1e-9)
        sph = builtin("sphere(3)")
        x = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        assert eval_Htilde(sph.system, x, v, backend="gauss") == pytest.approx(1 - 3, abs=1e-9)

    def test_affine_in_p_three_point(self):
        # H_p is affine in p: collinearity of p in {1, 2, 4}
        inv = builtin("inversion_plane").system
        x = np.array([0.8, -0.4])
        v = np.array([0.3, 1.1])
        h1 = eval_Hp(inv, x, v, 1.0)
        h2 = eval_Hp(inv, x, v, 2.0)
        h4 = eval_Hp(inv, x, v, 4.0)
        assert h4 - h2 == pytest.approx(2.0 * (h2 - h1), abs=1e-10)
        assert h2 - h1 >= -1e-12  # the (p-2) coefficient is nonnegative

    def test_scale_invariance_of_ratio(self):
        inv = builtin("inversion_plane").system
        x = np.array([1.2, 0.3])
        v = np.array([0.5, -0.2])
        r1 = eval_Hp(inv, x, v, 3.0) / float(v @ v)
        for lam in (2.0, -1.0, 17.5):
            w = lam * v
            r2 = eval_Hp(inv, x, w, 3.0) / float(w @ w)
            assert r2 == pytest.approx(r1, rel=1e-9)

    def test_cor52_algebra_on_flat_space(self):
        # 2<grad A^X v, v> + sum |grad X^i v|^2 + (p-2) q reproduces the
        # euclidean backend: the two displayed decompositions agree on R^n
        from flowlab import effective_drift
        from flowlab.systems import fd_directional
        sys0 = builtin("inversion_plane").system
        dec = effective_drift(sys0)
        x = np.array([0.9, -0.6])
        v = np.array([1.0, 0.4])
        nv2 = float(v @ v)
        da = fd_directional(dec.a_x, x, v)
        hs = qdir = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            j = sys0.diffusion_jacobian(x, e, v)
            hs += float(j @ j)
            qdir += float(j @ v) ** 2
        for p in (1.0, 2.0, 4.0):
            lhs = 2.0 * float(da @ v) + hs + (p - 2.0) * qdir / nv2
            rhs = eval_Hp(sys0, x, v, p, backend="euclidean")
            assert lhs == pytest.approx(rhs, abs=1e-6 * (1 + abs(rhs)))

    def test_zero_vector_rejected(self):
        ou = builtin("ou(1)").system
        with pytest.raises(ContractError):
            eval_Hp(ou, np.array([1.0]), np.array([0.0]), 2.0)

    def test_backend_mismatch(self):
        sph = builtin("sphere(3)").system
        with pytest.raises(CapabilityError):
            eval_Hp(sph, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                    2.0, backend="euclidean")
        tr = builtin("translation(2)").system
        with pytest.raises(CapabilityError):
            eval_Hp(tr, np.zeros(2), np.ones(2), 2.0, backend="ricci")

    def test_auto_names_every_backend_when_none_applies(self):
        # the rescaled plane is neither flat nor embedded and has no Ricci
        # data; auto used to try euclidean only
        system = builtin("rescaled_punctured_plane").system
        with pytest.raises(CapabilityError) as exc:
            eval_Hp(system, np.ones(2), np.ones(2), 2.0, backend="auto")
        for name in ("gauss", "euclidean", "ricci"):
            assert f"{name} backend" in str(exc.value)
        with pytest.raises(CapabilityError, match="unknown H_p backend"):
            eval_Hp(builtin("ou(1)").system, np.ones(1), np.ones(1), 2.0, backend="bogus")

    def test_auto_runs_no_later_backend_check(self, monkeypatch):
        # gauss applies to sphere(3), so ricci's isometry check is never run
        def forbidden(*args):
            raise AssertionError("the isometry defect was computed")

        monkeypatch.setattr(flowlab.criteria, "isometry_defect", forbidden)
        scn = builtin("sphere(3)")
        x, v = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        assert eval_Hp(scn.system, x, v, 2.0, curvature=scn.curvature) \
            == eval_Hp(scn.system, x, v, 2.0, backend="gauss")
        with pytest.raises(AssertionError):
            eval_Hp(scn.system, x, v, 2.0, backend="ricci", curvature=scn.curvature)

    def test_a_constant_diffusion_forms_no_column_jacobians(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the column jacobians were formed")

        tr = builtin("translation(3)").system
        x, v = np.ones((5, 3)), np.arange(15.0).reshape(5, 3) - 4.0
        want = eval_Hp(tr, x, v, 1.5)
        assert want.shape == (5,) and not np.any(want)
        monkeypatch.setattr(type(tr), "column_jacobians", forbidden)
        assert eval_Hp(tr, x, v, 1.5).tobytes() == want.tobytes()
        assert certify(tr, CertifyConfig(theorems=("Cor5.2", "Thm6.2"))).entries[0].status == "certified"

    def test_hp_report_marks_a_backend_that_does_not_apply(self):
        scn = builtin("sphere(3)")
        x = np.array([0.6, 0.0, 0.8])
        samples = [(x, v) for v in tangent_directions(scn.model, x, 4)]
        both = hp_report(scn.system, samples, p=2.0, backends=("ricci", "gauss"),
                         curvature=scn.curvature)
        reports = hp_report(scn.system, samples, p=2.0, backends=("ricci", "euclidean", "gauss"),
                            curvature=scn.curvature)
        assert [r.to_dict() for r in (reports[0], reports[2])] == [r.to_dict() for r in both]
        flat = reports[1].to_dict()
        assert flat["reason"] == "euclidean backend needs a flat model"
        assert flat["values"] == [] and flat["max_ratio"] is None and flat["disagreement"] is None
        assert "reason" not in both[0].to_dict()

    def test_hp_report_rejects_an_unknown_backend_name(self):
        scn = builtin("sphere(3)")
        x = np.array([0.6, 0.0, 0.8])
        samples = [(x, v) for v in tangent_directions(scn.model, x, 4)]
        with pytest.raises(CapabilityError, match="unknown H_p backend 'eucldean'"):
            hp_report(scn.system, samples, p=2.0, backends=("gauss", "eucldean"))

    def test_backend_agreement_report(self):
        scn = builtin("sphere(3)")
        rng = np.random.default_rng(4)
        samples = []
        for _ in range(8):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            v = tangent_project(scn.model, x, rng.standard_normal(3))
            samples.append((x, v))
        reports = hp_report(scn.system, samples, p=2.0,
                            backends=("ricci", "gauss"), curvature=scn.curvature)
        assert reports[0].disagreement <= 1e-8 * (1 + max(abs(v) for v in reports[0].values))


class TestCheckGrowth:
    def test_translation_linear_growth_constant(self):
        tr = builtin("translation(2)").system
        prof = check_growth(tr, "linear_growth")
        assert prof.ok()
        coeff = {c.name: c for c in prof.conditions}["coeff_linear_growth"]
        # |X| = sqrt(2) at the origin-most samples: c = sqrt(2)/(1+r0^2)^(1/2)
        assert coeff.constant <= np.sqrt(2.0) + 1e-12
        assert coeff.constant > 0

    def test_kunita_linear_growth_fails(self):
        kun = builtin("kunita").system
        prof = check_growth(kun, "linear_growth")
        assert not prof.ok()
        coeff = {c.name: c for c in prof.conditions}["coeff_linear_growth"]
        assert coeff.diverging
        assert np.linalg.norm(coeff.worst_point) > 100

    def test_ou_sublog_constant(self):
        # |DA| = 1, |DX| = 0: the derivative bound holds with c <= 1
        ou = builtin("ou(1)").system
        prof = check_growth(ou, "sublog_derivative")
        assert prof.ok()
        ga = {c.name: c for c in prof.conditions}["grad_A_sublog"]
        assert ga.constant <= 0.0  # <DA v, v> = -|v|^2 is negative
        gx = {c.name: c for c in prof.conditions}["grad_X_sq_sublog"]
        assert gx.constant == 0.0

    def test_h_bound_profile_ou(self):
        ou = builtin("ou(1)").system
        prof = check_growth(ou, "h_bound", p=1.0)
        cond = prof.conditions[0]
        assert cond.constant == pytest.approx(-2.0, abs=1e-8)
        assert prof.status == "sampled-only"

    def test_pole_conditions_paraboloid(self):
        scn = builtin("paraboloid")
        prof = check_growth(scn.system, "pole_conditions", curvature=scn.curvature,
                            n_directions=8)
        assert prof.ok()

    def test_epsilon_exponent_ou(self):
        ou = builtin("ou(1)").system
        prof = check_growth(ou, "epsilon_exponent", epsilon=0.25)
        assert prof.ok()


class TestLyapunov:
    def test_translation_log_bound(self):
        # g = ln(1 + |x|^2): the drift term is n / (1 + |x|^2), maximal at 0
        tr = builtin("translation(3)").system
        g = scalar_field(lambda x: np.log1p(np.sum(x * x, axis=-1)))
        pts = [np.zeros(3)] + [np.full(3, r) for r in (0.5, 1.0, 2.0)]
        bound = lyapunov_drift_bound(tr, g, pts)
        assert bound.k == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(bound.witness_point, 0.0)

    def test_constant_g_zero(self):
        tr = builtin("translation(2)").system
        g = scalar_field(lambda x: np.zeros(np.asarray(x).shape[:-1]) + 5.0)
        bound = lyapunov_drift_bound(tr, g, [np.zeros(2), np.ones(2)])
        assert bound.k == pytest.approx(0.0, abs=1e-9)

    def test_ou_hand_maximum(self):
        # term(x) = (1 - 2 x^2)/(1 + x^2), maximized at x = 0 with value 1
        ou = builtin("ou(1)").system
        g = scalar_field(lambda x: np.log1p(np.sum(x * x, axis=-1)))
        pts = [np.array([v]) for v in np.linspace(-3, 3, 121)]
        bound = lyapunov_drift_bound(ou, g, pts)
        assert bound.k == pytest.approx(1.0, abs=1e-6)

    def test_certificate_value(self):
        tr = builtin("translation(2)").system
        g = scalar_field(lambda x: np.log1p(np.sum(x * x, axis=-1)))
        bound = lyapunov_drift_bound(tr, g, [np.zeros(2)])
        cert = bound.certificate(c=1.0, g0=0.0, t=2.0)
        assert cert == pytest.approx(np.exp(bound.k * 2.0))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (3, 3), (4, 3, 2)])
    def test_finite_differences_of_a_batch_are_those_of_each_point(self, shape):
        # a batch of exactly d points once stepped point j along axis j
        g = scalar_field(lambda x: np.log1p(np.sum(x * x, axis=-1)) + x[..., 0] * x[..., 1] ** 3)
        x = np.random.default_rng(5).normal(size=shape) * 2.0
        points = x.reshape(-1, shape[-1])
        grad, hess = g.grad(x), g.hessian(x)
        assert grad.shape == shape and hess.shape == shape + shape[-1:]
        assert grad.reshape(-1, shape[-1]).tobytes() == \
            np.stack([g.grad(p) for p in points]).tobytes()
        assert hess.reshape(-1, shape[-1], shape[-1]).tobytes() == \
            np.stack([g.hessian(p) for p in points]).tobytes()


ALL_THEOREMS = ("Cor5.2", "Thm5.1", "Thm5.3", "Thm6.2", "Cor6.3", "Thm7.1", "Prop7.2",
                "Thm8.1", "Thm8.2", "Cor8.3", "Diffeo")


class TestCertify:
    def test_ou_certified(self):
        scn = builtin("ou(1)")
        rep = certify(scn.system, CertifyConfig(theorems=("Cor5.2", "Thm5.3", "Thm6.2"),
                                                curvature=scn.curvature))
        assert rep.status_of("Cor5.2") == "certified"
        assert rep.status_of("Thm5.3") == "certified"
        assert rep.status_of("Thm6.2") == "certified"
        entry = [e for e in rep.entries if e.theorem == "Cor5.2"][0]
        assert entry.constants["drift_curvature_upper_bound"] == pytest.approx(-2.0, abs=1e-6)

    def test_kunita_failed_with_witness(self):
        scn = builtin("kunita")
        rep = certify(scn.system, CertifyConfig(theorems=("Thm6.2",)))
        entry = rep.entries[0]
        assert entry.status == "failed"
        assert entry.failing_sample is not None
        assert np.linalg.norm(entry.failing_sample) > 100

    def test_sphere_thm81(self):
        scn = builtin("sphere(3)")
        rep = certify(scn.system, CertifyConfig(theorems=("Thm8.1", "Cor8.3", "Diffeo"),
                                                curvature=scn.curvature))
        assert rep.status_of("Thm8.1") == "certified"
        assert rep.status_of("Cor8.3") == "certified"
        assert rep.status_of("Diffeo") == "certified"

    def test_paraboloid_pole_theorems(self):
        scn = builtin("paraboloid")
        rep = certify(scn.system, CertifyConfig(
            theorems=("Thm7.1", "Prop7.2", "Thm8.2"), curvature=scn.curvature,
            n_directions=8))
        assert rep.status_of("Thm7.1") == "certified"
        assert rep.status_of("Prop7.2") == "certified"
        assert rep.status_of("Thm8.2") == "certified"

    def test_drift_conditions_closed_forms(self):
        # Z = 0 on both built-ins, so 2<grad_v Z, v> - Ric(v, v) is -Ric(v, v):
        # -(n - 2) = -1 on the unit 2-sphere, -(1 + |u|^2)^{-2} on the paraboloid,
        # whose worst sample point is the one farthest from the vertex
        sph = builtin("sphere(3)")
        rep = certify(sph.system, CertifyConfig(theorems=("Cor5.2",), curvature=sph.curvature))
        assert rep.entries[0].constants["drift_curvature_upper_bound"] == pytest.approx(-1.0, abs=1e-12)
        par = builtin("paraboloid")
        config = CertifyConfig(theorems=("Cor5.2", "Thm7.1"), curvature=par.curvature)
        consts = {e.theorem: e.constants for e in certify(par.system, config).entries}
        u2 = np.sum(SampleSet.build(par.model, config.radii, config.n_directions).x[:, :2] ** 2, axis=-1)
        assert consts["Cor5.2"]["drift_curvature_upper_bound"] == pytest.approx(
            np.max(-1.0 / (1.0 + u2) ** 2), rel=1e-12)
        assert abs(consts["Thm7.1"]["effective_drift_radial"]) <= 1e-15

    def test_punctured_not_applicable(self):
        scn = builtin("punctured_translation(2)")
        rep = certify(scn.system, CertifyConfig(theorems=("Cor5.2", "Thm6.2")))
        assert rep.status_of("Cor5.2") == "not-applicable"
        assert rep.status_of("Thm6.2") == "not-applicable"

    def test_unknown_theorem(self):
        scn = builtin("ou(1)")
        rep = certify(scn.system, CertifyConfig(theorems=("Thm99.9",)))
        assert rep.status_of("Thm99.9") == "not-applicable"

    def test_adjoint_required_for_diffeo(self):
        # the kunita system fails its own certificate, so no diffeo verdict
        scn = builtin("kunita")
        rep = certify(scn.system, CertifyConfig(theorems=("Diffeo",)))
        assert rep.status_of("Diffeo") == "failed"

    def test_thm51_constant_f(self):
        scn = builtin("ou(1)")
        rep = certify(scn.system, CertifyConfig(theorems=("Thm5.1",), p=2.0))
        entry = rep.entries[0]
        assert entry.status == "certified"
        assert entry.constants["f_constant"] >= 0.0

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = SampleSet.build.__func__

        def counted(cls, *args):
            builds.append(args)
            return build(cls, *args)
        monkeypatch.setattr(SampleSet, "build", classmethod(counted))
        return builds

    @pytest.mark.parametrize("name", ["ou(1)", "kunita", "sphere(3)", "paraboloid"])
    def test_one_sample_set_per_request(self, monkeypatch, name):
        # every theorem used to build the set again, Diffeo twice more
        builds = self._count_builds(monkeypatch)
        scn = builtin(name)
        config = CertifyConfig(theorems=ALL_THEOREMS, curvature=scn.curvature, n_directions=8)
        rep = certify(scn.system, config)
        assert len(builds) == 1
        assert rep.status_of("Diffeo") != "not-applicable"
        certify(scn.system, config)
        assert len(builds) == 2

    def test_not_applicable_before_sampling_builds_nothing(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        certify(builtin("sphere(3)").system, CertifyConfig(theorems=("Thm6.2", "Cor6.3", "Thm7.1")))
        certify(builtin("punctured_translation(2)").system, CertifyConfig(theorems=ALL_THEOREMS))
        assert builds == []

    def test_a_model_without_sampler_is_not_applicable_for_each_theorem(self):
        model = EmbeddedModel("unsampled", 3, normal=lambda x: x, dnormal=lambda x, v: v,
                              retraction=lambda x: x, ricci=lambda x, v: np.sum(v * v, axis=-1))
        rep = certify(gradient_brownian_from_embedding(model),
                      CertifyConfig(theorems=("Cor5.2", "Thm5.3", "Thm8.1", "Diffeo")))
        assert [e.reason for e in rep.entries] == ["embedded model has no point sampler"] * 4

    @pytest.mark.parametrize("name, sweeps", [("sphere(3)", 4), ("paraboloid", 5),
                                              ("ou(1)", 5), ("kunita", 2)])
    def test_each_sweep_once_per_system_and_request(self, monkeypatch, name, sweeps):
        # every theorem used to sweep its quantities again: 8, 10, 9 and 2
        # sweeps; Diffeo's adjoint sweeps its drift-dependent entries once
        # more, and reads the forward system's diffusion-only ones
        calls = []
        sup_dirs = SampleSet.sup_dirs
        monkeypatch.setattr(SampleSet, "sup_dirs", lambda S, fn: calls.append(fn) or sup_dirs(S, fn))
        scn = builtin(name)
        certify(scn.system, CertifyConfig(theorems=list(scn.expected_verdicts), curvature=scn.curvature))
        assert len(calls) == sweeps

    @pytest.mark.parametrize("name", ["sphere(3)", "sphere(4)", "paraboloid", "ou(1)", "kunita"])
    def test_the_adjoint_reads_the_forward_diffusion_entries(self, name):
        # systems.adjoint keeps the diffusion, so the entries the adjoint's
        # own sweep set computes are the forward ones, bit for bit
        scn = builtin(name)
        sw = SweepSet(scn.system, CertifyConfig(curvature=scn.curvature))
        own = SweepSet(adjoint(scn.system), sw.config)
        for entry in ("grad_x_sq", "coeff_sq"):
            assert getattr(sw.adjoint(), entry).tobytes() == getattr(own, entry).tobytes()

    @pytest.mark.parametrize("name, theorem, kinds", [
        ("ou(1)", "Thm6.2", ("linear_growth", "sublog_derivative")),
        ("kunita", "Cor6.3", ("epsilon_exponent",)),
        ("paraboloid", "Thm7.1", ("pole_conditions",)),
        ("sphere(3)", "Thm5.3", ("h_bound",)),
    ])
    def test_growth_kinds_are_the_theorem_conditions(self, name, theorem, kinds):
        # Thm5.3 reads h_bound at p = 1 whatever the request's p
        scn = builtin(name)
        config = CertifyConfig(theorems=(theorem,), p=2.5, epsilon=0.3, curvature=scn.curvature)
        entry = certify(scn.system, config).entries[0]
        p = 1.0 if theorem == "Thm5.3" else config.p
        conds = [c.to_dict() for kind in kinds for c in check_growth(
            scn.system, kind, epsilon=config.epsilon, p=p, curvature=scn.curvature).conditions]
        assert entry.status != "not-applicable"
        assert json.dumps(entry.conditions) == json.dumps(conds)

    def test_an_entry_that_raises_is_not_kept(self):
        # doubled columns break X^*X = Id: each theorem that reads the
        # curvature rewriting or H_p (Ricci backend) meets the error itself
        scn = builtin("paraboloid")
        s = scn.system
        big = replace(s, is_gradient=False,
                      diffusion=lambda x, e: 2.0 * s.diffusion(x, e),
                      diffusion_jacobian=lambda x, e, v: 2.0 * s.diffusion_jacobian(x, e, v))
        config = CertifyConfig(theorems=("Cor5.2", "Thm7.1", "Thm5.1", "Thm5.3", "Prop7.2"),
                               curvature=scn.curvature)
        rep = certify(big, config)
        assert [e.reason for e in rep.entries] == (
            ["curvature rewriting needs an isometric system"] * 2
            + ["system is not isometric at x (defect 3.00e+00)"] * 3)
        sweeps = SweepSet(big, config)
        for _ in range(2):
            with pytest.raises(CapabilityError, match="curvature rewriting"):
                sweeps.drift_curvature
        assert "drift_curvature" not in vars(sweeps)


def test_tangent_directions_unit_norm():
    scn = builtin("sphere(3)")
    x = np.array([0.0, 0.0, 1.0])
    dirs = tangent_directions(scn.model, x, 16)
    assert dirs.shape[1] == 3
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(dirs @ x)) < 1e-10


def test_direction_sample_is_cached_and_read_only():
    dirs = direction_sample(3, 32)
    assert direction_sample(3, 32) is dirs
    assert not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 1.0


def test_import_leaves_scipy_stats_out(tmp_path):
    # numpy is the only run-time dependency: importing the CLI and running a
    # certify, an hp-scan and a simulate loads no top-level module beyond the
    # standard library, flowlab and what a bare numpy.random import loads in
    # the same interpreter (site hooks included); __mp_main__ is the alias
    # of __main__ that multiprocessing registers.  scipy (directions come
    # from flowlab.qmc) and jsonschema (one config table) are test-only.
    env = dict(os.environ)
    src = str(Path(flowlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def top_level_modules(code):
        proc = subprocess.run([sys.executable, "-c", code + "\nprint(*sys.modules, file=sys.stderr)"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return {name.split(".")[0] for name in proc.stderr.split()}

    baseline = top_level_modules("import sys, numpy.random")
    out = str(tmp_path)
    loaded = top_level_modules(
        "import sys, flowlab.cli\n"
        f"assert flowlab.cli.main(['certify', '--scenario', 'kunita', '--out', {out!r}]) == 0\n"
        f"assert flowlab.cli.main(['hp-scan', '--scenario', 'translation(3)', '--out', {out!r}]) == 0\n"
        "assert flowlab.cli.main(['simulate', '--scenario', 'sphere(3)', '--paths', '2',"
        f" '--format', 'both', '--out', {out!r}]) == 0\n"
        "assert flowlab.criteria._direction_sample.cache_info().currsize >= 2")
    assert "flowlab" in loaded and "numpy" in baseline
    extra = sorted(loaded - baseline - set(sys.stdlib_module_names) - {"flowlab", "__mp_main__"})
    assert not extra, extra


class TestSampleSetReductions:
    @staticmethod
    def one_point(keep=(True, True, True)):
        keep = np.array([keep])
        return SampleSet(x=np.zeros((1, 1)), dirs=np.ones(keep.shape + (1,)), keep=keep,
                         starts=np.array([0]))

    @pytest.mark.parametrize("values", [[1.0, np.nan, 3.0], [np.nan, 2.0, 3.0],
                                        [1.0, 2.0, np.inf], [-np.inf, 1.0, 2.0]])
    def test_non_finite_in_any_direction_gives_inf(self, values):
        S = self.one_point()
        sup = S.sup_dirs(lambda x, v: np.array(values))
        assert sup.tolist() == [np.inf]
        check = S.condition("c", sup)
        assert check.worst_ratio == np.inf and check.diverging

    def test_dropped_direction_is_not_evaluated(self):
        S = self.one_point(keep=(True, False, True))
        seen = []

        def fn(x, v):
            seen.append(len(v))
            return np.array([1.0, 3.0])
        assert S.sup_dirs(fn).tolist() == [3.0]
        assert seen == [2]

    def test_first_maximum_in_band_order(self):
        x = np.arange(8.0).reshape(4, 2)
        S = SampleSet(x=x, dirs=np.ones((4, 1, 2)), keep=np.ones((4, 1), dtype=bool),
                      starts=np.array([0, 2]))
        check = S.condition("c", np.array([1.0, 5.0, 5.0, 2.0]))
        assert check.band_ratios == [5.0, 5.0]
        assert check.worst_point == [2.0, 3.0]
        assert not check.diverging

    def test_nan_direction_flags_the_condition(self):
        # <DA v, v> is NaN for a few of the 32 directions; taking the max of
        # the others would certify a condition that was never evaluated there
        ou = builtin("ou(2)").system
        sick = replace(ou, drift_jacobian=lambda x, v: np.where(v[..., :1] > 0.9, np.nan, -v))
        prof = check_growth(sick, "sublog_derivative")
        cond = {c.name: c for c in prof.conditions}["grad_A_sublog"]
        assert cond.worst_ratio == np.inf and cond.diverging
        assert not prof.ok()

    def test_point_without_tangent_direction_rejected(self):
        # a degenerate (NaN) normal field kills every direction at every point
        model = EmbeddedModel("degenerate", 2,
                              normal=lambda x: np.full(np.shape(x), np.nan),
                              dnormal=lambda x, v: np.full(np.shape(v), np.nan),
                              retraction=lambda x: x,
                              sampler=lambda rng, k: rng.standard_normal((k, 2)))
        with pytest.raises(ContractError):
            check_growth(gradient_brownian_from_embedding(model), "h_bound")


def _sphere_pairs(xs, us):
    model = builtin("sphere(3)").model
    x = xs / np.linalg.norm(xs, axis=-1, keepdims=True)
    return x, model.tangent_project(x, us)


def _paraboloid_pairs(xs, us):
    model = builtin("paraboloid").model
    x = np.concatenate([xs[:, :2], 0.5 * np.sum(xs[:, :2] ** 2, axis=-1, keepdims=True)], axis=-1)
    return x, model.tangent_project(x, us)


BACKEND_CASES = {
    "euclidean-inversion": ("inversion_plane", 2, "euclidean", None),
    "euclidean-kunita": ("kunita", 2, "euclidean", None),
    "euclidean-ou": ("ou(2)", 2, "euclidean", None),
    "ricci-sphere": ("sphere(3)", 3, "ricci", _sphere_pairs),
    "gauss-sphere": ("sphere(3)", 3, "gauss", _sphere_pairs),
    "gauss-paraboloid": ("paraboloid", 3, "gauss", _paraboloid_pairs),
}


@pytest.mark.parametrize("case", sorted(BACKEND_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.floats(0.0, 6.0))
def test_batched_eval_hp_equals_stacked_pairs(case, data, p):
    name, d, backend, to_pairs = BACKEND_CASES[case]
    n = data.draw(st.integers(1, 6))
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    xs = data.draw(arrays(float, (n, d), elements=coords))
    us = data.draw(arrays(float, (n, d), elements=coords))
    if to_pairs is not None:
        assume(np.all(np.linalg.norm(xs, axis=-1) > 0.1))
        xs, us = to_pairs(xs, us)
    assume(np.all(np.linalg.norm(us, axis=-1) > 0.1))
    scn = builtin(name)
    batch = eval_Hp(scn.system, xs, us, p, backend=backend, curvature=scn.curvature)
    single = [eval_Hp(scn.system, x, u, p, backend=backend, curvature=scn.curvature)
              for x, u in zip(xs, us)]
    assert all(isinstance(h, float) for h in single)
    assert batch.shape == (n,)
    scale = 1.0 + np.max(np.abs(single))
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12 * scale)
