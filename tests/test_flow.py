"""Integrator contracts: driver determinism and statistics, oracle exactness
for additive noise, derivative-flow consistency, the ball-exit predicate on
propagated states, explosion handling."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import (
    BrownianDriver,
    PuncturedFlatModel,
    builtin,
    flow,
    integrate_derivative_flow,
    integrate_flow,
    oracle_flow,
    outside_balls,
    schedule_for,
    write_trajectory_csv,
)
from flowlab.flow import Stepper, chunk_paths, propagate, record_trajectory, run_paths
from flowlab.geometry import sphere_model
from flowlab.parallel import chunk_size
from flowlab.systems import gradient_brownian_from_embedding
from flowlab.scenarios import _translation_system


class TestBrownianDriver:
    def test_bit_identical_increments(self):
        sched = schedule_for(1.0, 0.01)
        a = BrownianDriver(123, 3, stream=5).increments(sched)
        b = BrownianDriver(123, 3, stream=5).increments(sched)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        sched = schedule_for(1.0, 0.01)
        a = BrownianDriver(123, 3, stream=0).increments(sched)
        b = BrownianDriver(123, 3, stream=1).increments(sched)
        assert not np.array_equal(a, b)

    def test_for_path_offsets_stream(self):
        d = BrownianDriver(9, 2, stream=10)
        assert d.for_path(7).stream == 17

    def test_moment_statistics(self):
        # increments over step dt: sample mean -> 0, variance -> dt
        sched = schedule_for(1.0, 0.05)
        dt = sched.dt
        samples = np.concatenate([BrownianDriver(2024, 1, stream=s).increments(sched)
                                  for s in range(500)]).ravel()
        n = samples.size
        assert abs(samples.mean()) < 4 * np.sqrt(dt / n)
        assert abs(samples.var() - dt) < 5 * dt * np.sqrt(2.0 / n)


class TestIntegrateFlow:
    def test_translation_exact(self):
        scn = builtin("translation(2)")
        sched = schedule_for(1.0, 1e-2)
        driver = BrownianDriver(42, 2)
        res = integrate_flow(scn.system, np.array([1.0, -0.5]), sched, driver)
        orc = oracle_flow(scn, np.array([1.0, -0.5]), driver, sched)
        assert np.max(np.abs(res.states[:, 0, :] - orc.states)) < 1e-12

    def test_zero_system_constant(self):
        spec_sys = _translation_system(2)
        from dataclasses import replace
        zero = replace(spec_sys, name="zero",
                       diffusion=lambda x, e: np.zeros_like(np.asarray(x, dtype=float)),
                       diffusion_jacobian=lambda x, e, v: np.zeros_like(np.asarray(v, dtype=float)))
        sched = schedule_for(0.5, 1e-2)
        res = integrate_flow(zero, np.array([2.0, 3.0]), sched, BrownianDriver(1, 2))
        assert np.array_equal(res.states[-1, 0], np.array([2.0, 3.0]))

    def test_inversion_strong_convergence_order(self):
        # log-log slope of the strong error against the exact flow; the flow
        # module contract asks for order >= 0.4
        from flowlab import oracle_convergence_study
        scn = builtin("inversion_plane")
        res = oracle_convergence_study(scn, np.array([1.0, 0.0]), t=0.5,
                                       dts=[4e-3, 1e-3, 2.5e-4], n_paths=150, seed=77)
        assert res["slope"] >= 0.4
        # dts are reported finest-first; the coarsest level has the worst error
        assert res["rms_errors"][-1] > res["rms_errors"][0]

    def test_common_noise_batch(self):
        scn = builtin("ou(2)")
        sched = schedule_for(1.0, 1e-2)
        batch = integrate_flow(scn.system, np.array([[1.0, 0.0], [0.0, 1.0]]),
                               sched, BrownianDriver(3, 2))
        single = integrate_flow(scn.system, np.array([1.0, 0.0]),
                                sched, BrownianDriver(3, 2))
        assert np.array_equal(batch.states[:, 0, :], single.states[:, 0, :])

    def test_explosion_flag_not_crash(self):
        # strong quadratic growth from a large start blows past the radius
        scn = builtin("kunita")
        sched = schedule_for(1.0, 1e-2)
        res = integrate_flow(scn.system, np.array([200.0, 200.0]), sched,
                             BrownianDriver(8, 2), r_expl=1e4)
        assert res.exploded[0]
        assert res.explosion_step[0] <= sched.n_steps
        # states stay frozen at the last finite value
        assert np.all(np.isfinite(res.states))

    def test_puncture_domain_exit_flag(self):
        model = PuncturedFlatModel(2, np.zeros(2), exclusion_radius=0.55)
        sys0 = _translation_system(2, model=model)
        sched = schedule_for(1.0, 1e-2)
        res = integrate_flow(sys0, np.array([0.6, 0.0]), sched, BrownianDriver(4, 2))
        assert res.domain_exit[0]
        assert not res.exploded[0]
        # the path is outside at several steps; the first one is recorded
        outside = np.nonzero(~model.admissible(res.states[:, 0]))[0]
        assert outside.size >= 2
        assert res.domain_exit_step[0] == outside[0]
        # leaving the domain does not freeze the path
        k = outside[0]
        assert not np.array_equal(res.states[k + 1, 0], res.states[k, 0])
        assert not np.array_equal(res.states[-1, 0], res.states[k, 0])


class TestPropagate:
    def test_frame_vectors_ride_their_points_noise(self):
        # a frame steps like each of its vectors stepped on its own
        scn = builtin("sphere(3)")
        x0 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        frames = np.stack([scn.model.tangent_frame(p).T for p in x0])   # (2, 2, 3)
        sched = schedule_for(0.2, 1e-2)
        dW = BrownianDriver(3, 3).increments(sched)
        stepper = Stepper(scn.system)
        *_, framed = propagate(stepper, x0, dW, sched.dt, v=frames)
        assert framed.alive.shape == (2,)
        for j in range(frames.shape[1]):
            *_, single = propagate(stepper, x0, dW, sched.dt, v=frames[:, j])
            np.testing.assert_allclose(framed.x, single.x, rtol=0, atol=1e-14)
            np.testing.assert_allclose(framed.v[:, j], single.v, rtol=0, atol=1e-14)

    def test_unit_mode_carries_the_log_growth(self):
        scn = builtin("inversion_plane")
        x0, v0 = np.array([[1.0, 0.0]]), np.array([[0.4, 0.1]])
        sched = schedule_for(0.3, 1e-3)
        dW = BrownianDriver(9, 2).increments(sched)
        stepper = Stepper(scn.system)
        *_, direct = propagate(stepper, x0, dW, sched.dt, v=v0)
        log_growth = 0.0
        for s in propagate(stepper, x0, dW, sched.dt, v=v0 / np.linalg.norm(v0), unit=True):
            log_growth = log_growth + (s.logw if s.k else 0.0)
            np.testing.assert_allclose(np.linalg.norm(s.v, axis=-1), 1.0, rtol=1e-14)
        vT = np.linalg.norm(direct.v, axis=-1)
        np.testing.assert_allclose(log_growth, np.log(vT / np.linalg.norm(v0)), rtol=1e-10)
        np.testing.assert_allclose(s.v, direct.v / vT[:, None], rtol=1e-10)


class TestDerivativeFlow:
    def test_translation_identity_exact(self):
        scn = builtin("translation(2)")
        sched = schedule_for(1.0, 1e-2)
        res = integrate_derivative_flow(scn.system, np.array([0.0, 0.0]),
                                        np.array([0.3, -0.7]), sched, BrownianDriver(5, 2))
        assert np.max(np.abs(res.vs - np.array([0.3, -0.7]))) == 0.0

    def test_ou_deterministic_decay(self):
        scn = builtin("ou(1)")
        sched = schedule_for(1.0, 1e-4)
        res = integrate_derivative_flow(scn.system, np.array([1.0]), np.array([1.0]),
                                        sched, BrownianDriver(6, 1))
        assert abs(res.vs[-1, 0, 0] - np.exp(-1.0)) < 1e-6

    def test_linearity_bitwise(self):
        scn = builtin("inversion_plane")
        sched = schedule_for(0.3, 1e-3)
        v0 = np.array([0.4, 0.1])
        a = integrate_derivative_flow(scn.system, np.array([1.0, 0.0]), v0,
                                      sched, BrownianDriver(9, 2))
        b = integrate_derivative_flow(scn.system, np.array([1.0, 0.0]), 2.0 * v0,
                                      sched, BrownianDriver(9, 2))
        assert np.array_equal(b.vs, 2.0 * a.vs)

    def test_zero_vector_stays_zero(self):
        scn = builtin("kunita")
        sched = schedule_for(0.3, 1e-2)
        res = integrate_derivative_flow(scn.system, np.array([1.0, 1.0]),
                                        np.zeros(2), sched, BrownianDriver(10, 2))
        assert np.max(np.abs(res.vs)) == 0.0

    def test_finite_difference_consistency(self):
        # |T_xF_t(v) - (F_t(x+eps v) - F_t(x))/eps| = O(eps) under shared noise
        scn = builtin("inversion_plane")
        sched = schedule_for(0.3, 1e-3)
        x0 = np.array([1.0, 0.0])
        v0 = np.array([1.0, 0.5])
        pair = integrate_derivative_flow(scn.system, x0, v0, sched, BrownianDriver(11, 2))
        vT = pair.vs[-1, 0]
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            both = integrate_flow(scn.system, np.stack([x0, x0 + eps * v0]),
                                  sched, BrownianDriver(11, 2))
            fd = (both.states[-1, 1] - both.states[-1, 0]) / eps
            errs.append(np.linalg.norm(fd - vT))
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
        assert 0.7 < slope < 1.3

    def test_log_radial_agrees_with_direct(self):
        scn = builtin("ou(1)")
        sched = schedule_for(1.0, 1e-4)
        a = integrate_derivative_flow(scn.system, np.array([1.0]), np.array([1.0]),
                                      sched, BrownianDriver(12, 1), mode="direct")
        b = integrate_derivative_flow(scn.system, np.array([1.0]), np.array([1.0]),
                                      sched, BrownianDriver(12, 1), mode="log_radial")
        assert abs(a.log_norms[-1, 0] - b.log_norms[-1, 0]) <= 1e-3

    def test_log_radial_accumulators_ou(self):
        # for the linear restoring drift: M = 0, <M,M> = 0, a_t -> -t
        scn = builtin("ou(1)")
        sched = schedule_for(1.0, 1e-3)
        res = integrate_derivative_flow(scn.system, np.array([1.0]), np.array([1.0]),
                                        sched, BrownianDriver(13, 1), mode="log_radial")
        assert res.martingale[-1, 0] == 0.0
        assert res.quad_variation[-1, 0] == 0.0
        assert abs(res.drift_accumulator[-1, 0] + 1.0) < 1e-5
        # exponential representation reproduces the log norm exactly
        recon = res.martingale[-1, 0] - 0.5 * res.quad_variation[-1, 0] + res.drift_accumulator[-1, 0]
        assert recon == pytest.approx(res.log_norms[-1, 0], abs=1e-12)

    def test_log_radial_multiplicative(self):
        scn = builtin("inversion_plane")
        sched = schedule_for(0.3, 1e-3)
        a = integrate_derivative_flow(scn.system, np.array([1.0, 0.0]),
                                      np.array([1.0, 0.0]), sched,
                                      BrownianDriver(14, 2), mode="direct")
        b = integrate_derivative_flow(scn.system, np.array([1.0, 0.0]),
                                      np.array([1.0, 0.0]), sched,
                                      BrownianDriver(14, 2), mode="log_radial")
        assert abs(a.log_norms[-1, 0] - b.log_norms[-1, 0]) <= 1e-3

    def test_sphere_conservation(self):
        scn = builtin("sphere(3)")
        sched = schedule_for(1.0, 1e-3)
        x0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.0, 0.0])
        res = integrate_derivative_flow(scn.system, x0, v0, sched, BrownianDriver(15, 3))
        norms = np.linalg.norm(res.states[:, 0, :], axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6
        tang = np.abs(np.sum(res.states[:, 0, :] * res.vs[:, 0, :], axis=-1))
        assert np.max(tang) <= 1e-6


def _first_exit_steps(system, x0, sched, driver, radii, **kw):
    """First grid step at which the path from x0 is outside each ball about
    the origin, by :func:`outside_balls` on the propagated states; n_steps + 1
    where it never is."""
    x, dW = chunk_paths(driver, 0, 1, sched, x0)
    first = np.full(len(radii), sched.n_steps + 1)
    for s in propagate(Stepper(system, **kw), x, dW, sched.dt):
        out = outside_balls(s, np.linalg.norm(s.x, axis=-1), radii)[0]
        first = np.where(out & (first > sched.n_steps), s.k, first)
    return first, s


class TestStopsAndCurves:
    def test_deterministic_drift_exit(self):
        # dx = dt from 0 first leaves radius 1 at time 1, step 100 of dt 1e-2,
        # up to one step of rounding in the accumulated position
        from dataclasses import replace
        tr = _translation_system(1)
        det = replace(tr, name="unit_drift",
                      diffusion=lambda x, e: np.zeros_like(np.asarray(x, dtype=float)),
                      diffusion_jacobian=lambda x, e, v: np.zeros_like(np.asarray(v, dtype=float)),
                      drift=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        first, _ = _first_exit_steps(det, np.array([0.0]), schedule_for(2.0, 1e-2),
                                     BrownianDriver(1, 1), [1.0])
        assert abs(first[0] - 100) <= 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5, unique=True),
           st.integers(0, 2 ** 32 - 1))
    def test_nested_radii_monotone(self, radii, seed):
        # a larger ball is left no earlier than a smaller one
        radii = sorted(radii)
        first, _ = _first_exit_steps(builtin("translation(2)").system, np.zeros(2),
                                     schedule_for(1.0, 1e-2), BrownianDriver(seed, 2), radii)
        assert np.all(np.diff(first) >= 0)

    def test_exploded_member_is_outside_every_ball(self):
        # explosion leaves every compact set, the ball of radius inf included
        radii = [1.0, 1e3, 1e5, np.inf]
        first, last = _first_exit_steps(builtin("kunita").system, np.array([200.0, 200.0]),
                                        schedule_for(1.0, 1e-2), BrownianDriver(8, 2), radii,
                                        r_expl=1e4)
        assert not last.alive[0]
        assert np.all(outside_balls(last, np.zeros(1), radii))
        assert first[-1] == last.explosion_step[0] <= 100
        assert first[0] == 0 and np.all(np.diff(first) >= 0)


def test_trajectory_csv_deterministic():
    scn = builtin("translation(2)")
    sched = schedule_for(0.1, 1e-2)

    def dump():
        buf = io.StringIO()
        x, dW = chunk_paths(BrownianDriver(42, 2), 0, 3, sched, np.array([1.0, 0.0]))
        write_trajectory_csv(buf, record_trajectory(scn.system, x, dW, sched))
        return buf.getvalue()

    a, b = dump(), dump()
    assert a == b
    assert a.splitlines()[0] == "path_id,step,time,x1,x2,exploded"


class TestCallCounts:
    """What one Heun step evaluates, counted through wrapped callables."""

    @staticmethod
    def counted(fn, log):
        def wrapped(*args):
            log.append(np.shape(args[0]))
            return fn(*args)
        return wrapped

    def test_a_constant_diffusion_is_evaluated_once_per_step(self):
        system = builtin("ou(2)").system
        calls, jac_calls = [], []
        system = replace(system, diffusion=self.counted(system.diffusion, calls),
                         diffusion_jacobian=self.counted(system.diffusion_jacobian, jac_calls))
        sched = schedule_for(0.05, 1e-2)
        x, dW = chunk_paths(BrownianDriver(4, 2), 0, 8, sched, np.array([0.5, -0.5]))
        for _ in propagate(Stepper(system), x, dW, sched.dt):
            pass
        assert len(calls) == sched.n_steps and not jac_calls
        calls.clear()
        x, dW = chunk_paths(BrownianDriver(4, 2), 0, 8, sched, np.array([0.5, -0.5]))
        for _ in propagate(Stepper(system), x, dW, sched.dt, v=np.ones_like(x)):
            pass
        assert len(calls) == len(jac_calls) == sched.n_steps

    def test_a_frame_step_evaluates_the_normal_once_per_point(self):
        model = sphere_model(3)
        shapes = []
        model.normal = self.counted(model.normal, shapes)
        system = gradient_brownian_from_embedding(model)
        C, G, r = 5, 2, 2
        x = np.broadcast_to([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]], (C, G, 3)).copy()
        frames = np.broadcast_to(np.swapaxes(model.tangent_frame(x[0]), -1, -2), (C, G, r, 3)).copy()
        shapes.clear()
        Stepper(system).step_pair(x, frames, np.full((C, 1, 3), 0.01), 1e-2)
        assert shapes and all(int(np.prod(s[:-1])) == C * G for s in shapes)

    def test_the_semigroup_chunk_runs_the_base_point_once_as_the_pair(self, monkeypatch):
        import flowlab.semigroup as semigroup

        runs, steps = [], []

        def recording_propagate(stepper, x, dW, dt, v=None, unit=False):
            runs.append((np.array(x), v is not None))
            for s in propagate(stepper, x, dW, dt, v=v, unit=unit):
                steps.append((v is not None, s.k))
                yield s
        monkeypatch.setattr(semigroup, "propagate", recording_propagate)
        system = builtin("ou(1)").system
        obs = semigroup.observable(lambda x: np.sin(x[..., 0]), lambda x, v: np.cos(x[..., 0]) * v[..., 0])
        x0 = np.array([0.3])
        # one worker runs its 1500 paths as one chunk; a forced size of 500 makes three
        for size, n_chunks in ((None, 1), (500, 3)):
            if size is not None:
                monkeypatch.setattr(flow, "chunk_size", lambda *args: size)
            runs.clear()
            steps.clear()
            semigroup.gradient_consistency_check(system, obs, x0, [1.0], t=0.05, n_paths=1500, seed=2,
                                                 dt=1e-2, eps_ladder=[0.1, 0.01])
            assert len(runs) == 2 * n_chunks            # one x-only and one pair run per chunk
            # in lockstep: each step of the x-only run is followed by that of the pair run
            assert steps == [(paired, k) for _ in range(n_chunks) for k in range(6)
                             for paired in (False, True)]
            pairs = [x for x, paired in runs if paired]
            x_only = [x for x, paired in runs if not paired]
            assert len(pairs) == len(x_only) == n_chunks
            assert all(np.all(x == x0) for x in pairs)
            assert not any(np.any(np.all(x == x0, axis=-1)) for x in x_only)


class TestRunPaths:
    def test_run_paths_is_chunk_paths_then_propagate(self):
        # kunita from (12, 12) explodes on some paths, from (0.5, -0.5) on
        # none, so a truncated path is one with *some* exploded member
        system = builtin("kunita").system
        grid = np.array([[12.0, 12.0], [0.5, -0.5]])
        sched = schedule_for(0.5, 1e-2)

        def chunk(x, dW):
            for s in propagate(Stepper(system), x, dW, sched.dt):
                pass
            return {"x": s.x, "alive": s.alive}

        n = 1500                       # two chunks of 750 paths, one per worker
        with np.errstate(all="ignore"):
            out, truncated = run_paths(system, grid, sched, n, 5, chunk, stream0=3, workers=2)
            x, dW = chunk_paths(BrownianDriver(5, 2, stream=3), 0, n, sched, grid)
            for s in propagate(Stepper(system), x, dW, sched.dt):
                pass
        assert np.array_equal(out["x"].view(np.uint64), s.x.view(np.uint64))
        some = ~s.alive.all(axis=1)
        assert np.array_equal(out["alive"], ~some)
        assert truncated == int(some.sum())
        assert 0 < truncated < n and s.alive.any(axis=1).all()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100_000), st.integers(1, 64))
    def test_one_chunk_per_worker(self, n_paths, workers):
        size = chunk_size(n_paths, workers)
        n_chunks = -(-n_paths // size)
        assert 1 <= size <= n_paths
        # fixed-size chunks cannot always make exactly min(workers, n_paths)
        # (10 paths on 6 workers: 5 chunks of 2), but never make more, and
        # no smaller size keeps to one chunk per worker
        assert n_chunks <= min(workers, n_paths)
        assert size == 1 or -(-n_paths // (size - 1)) > workers
        if n_paths % workers == 0 or workers >= n_paths:
            assert n_chunks == min(workers, n_paths)
