"""Semigroup estimation: P_t f, the derivative semigroup on 1-forms
delta P_t phi(v) = E phi(T_xF_t v) 1{t < explosion}, and the consistency test
d(P_t f) = delta P_t(df) via common-noise finite differences.

The finite-difference side must ride the same Brownian increments as the base
point: with independent noise its variance is O(1) and the comparison is
hopeless at desk scale; with common noise the per-path difference collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import check_ladder, check_per_point, check_vector, check_whole
from .estimators import MomentEstimate, _mean_estimate
from .flow import Stepper, propagate, run_paths, schedule_for
from .geometry import vec_norm
from .systems import VectorFieldSystem

Array = np.ndarray

#: pure floating-point slack for comparisons between near-identical estimators
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class ScalarObservable:
    """Bounded C^1 observable with its differential df(x, v)."""

    f: Callable[[Array], Array]
    df: Callable[[Array, Array], Array]


def observable(f, df=None) -> ScalarObservable:
    """Wrap f; a missing differential is filled by a central finite difference
    (relative step 1e-5, exactly linear in |v| by construction)."""
    if df is None:
        def df(x, v, _f=f):
            x = np.asarray(x, dtype=float)
            v = np.asarray(v, dtype=float)
            nv = np.asarray(vec_norm(v))
            vhat = v / np.where(nv == 0.0, 1.0, nv)[..., None]
            h = np.asarray(1e-5 * (1.0 + vec_norm(x)))
            hv = h[..., None] * vhat
            return (np.asarray(_f(x + hv)) - np.asarray(_f(x - hv))) * nv / (2.0 * h)
    return ScalarObservable(f=f, df=df)


def estimate_Ptf(system: VectorFieldSystem, obs: ScalarObservable, x, t: float,
                 n_paths: int, seed: int, dt: float = 1e-3, stream0: int = 0,
                 workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of f(F_t(x)) 1{t < explosion} from one start x."""
    x = check_vector("x", x, system.dim)
    sched = schedule_for(t, dt)

    def chunk(xs, dW):
        for s in propagate(Stepper(system), xs, dW, sched.dt):
            pass
        return {"vals": np.where(s.alive, check_per_point(obs.f(s.x), s.x), 0.0), "alive": s.alive}

    out, trunc = run_paths(system, x, sched, n_paths, seed, chunk, stream0, workers)
    return _mean_estimate(out["vals"], seed, truncated=trunc)


def estimate_deltaPt(system: VectorFieldSystem, obs: ScalarObservable, x, v, t: float,
                     n_paths: int, seed: int, dt: float = 1e-3, stream0: int = 0,
                     workers: int = 1) -> MomentEstimate:
    """Monte Carlo mean of df(F_t(x), T_xF_t(v)) 1{t < explosion} using the
    coupled derivative flow from one start x; exactly linear in v under a
    shared seed."""
    x = check_vector("x", x, system.dim)
    v = check_vector("v", v, system.dim)
    sched = schedule_for(t, dt)

    def chunk(xs, dW):
        for s in propagate(Stepper(system), xs, dW, sched.dt, v=np.broadcast_to(v, xs.shape).copy()):
            pass
        vals = check_per_point(obs.df(s.x, s.v), s.x)
        return {"vals": np.where(s.alive, vals, 0.0), "alive": s.alive}

    out, trunc = run_paths(system, x, sched, n_paths, seed, chunk, stream0, workers)
    return _mean_estimate(out["vals"], seed, truncated=trunc)


@dataclass
class GradientCheckReport:
    """Common-noise finite difference of P_t f against delta P_t(df)."""

    lhs: float                  # FD gradient at the smallest epsilon
    rhs: float                  # delta P_t (df)(v)
    se_lhs: float
    se_rhs: float
    combined_se: float
    discrepancy: float
    passed: bool                # |lhs - rhs| <= 3 combined SE (+ float slack)
    se_ptf: float               # SE of the underlying P_t f estimate at x
    eps_ladder: List[float]
    lhs_by_eps: List[float]
    se_by_eps: List[float]
    discrepancy_by_eps: List[float]
    richardson_slope: Optional[float]
    n_paths: int
    seed: int
    truncated: int

    def to_dict(self):
        return {
            "lhs": self.lhs, "rhs": self.rhs,
            "se_lhs": self.se_lhs, "se_rhs": self.se_rhs,
            "combined_se": self.combined_se, "discrepancy": self.discrepancy,
            "pass": self.passed, "se_ptf": self.se_ptf,
            "eps_ladder": self.eps_ladder, "lhs_by_eps": self.lhs_by_eps,
            "se_by_eps": self.se_by_eps,
            "discrepancy_by_eps": self.discrepancy_by_eps,
            "richardson_slope": self.richardson_slope,
            "n_paths": self.n_paths, "seed": self.seed, "truncated": self.truncated,
        }


def gradient_consistency_check(system: VectorFieldSystem, obs: ScalarObservable,
                               x, v, t: float, n_paths: int, seed: int,
                               dt: float = 1e-3,
                               eps_ladder: Sequence[float] = (1e-1, 1e-2, 1e-3),
                               stream0: int = 0, workers: int = 1) -> GradientCheckReport:
    """Compare (P_t f(x + eps v) - P_t f(x)) / eps with delta P_t(df)(v).

    All ensembles (base, shifted, derivative) consume the same increments per
    path, drawn once per chunk; the base point is stepped once, as the pair
    run, whose x path is the base flow bit for bit.  The pair run and the
    shifted starts step in lockstep, so both read each step of the noise as
    it is drawn.  The report carries per-epsilon finite differences, the Richardson trend of the discrepancy
    (slope of log |FD(eps) - rhs| vs log eps, omitted when the discrepancy is
    at floating-point level), and the pass/fail of the 3-sigma consistency
    test at the smallest epsilon.
    """
    x = check_vector("x", x, system.dim)
    v = check_vector("v", v, system.dim)
    eps_ladder = check_ladder("eps_ladder", eps_ladder, low=0.0, increasing=False)
    sched = schedule_for(t, dt)
    starts = np.stack([x] + [x + e * v for e in eps_ladder])   # (1+E, d)

    def chunk(xs, dW):                                        # (C, 1+E, d), steps (C, 1, m)
        stepper = Stepper(system)
        xb = xs[:, :1]
        for s, p in zip(propagate(stepper, xs[:, 1:], dW, sched.dt),     # the shifted starts
                        propagate(stepper, xb, dW, sched.dt, v=np.broadcast_to(v, xb.shape).copy())):
            pass
        ends = np.concatenate([p.x, s.x], axis=1)              # (C, 1+E, d)
        alive = np.concatenate([p.alive, s.alive], axis=1)
        f_vals = np.where(alive, check_per_point(obs.f(ends), ends), 0.0)
        xT, vT = p.x[:, 0], p.v[:, 0]
        delta = np.where(p.alive[:, 0], check_per_point(obs.df(xT, vT), xT), 0.0)
        return {"f_vals": f_vals, "delta": delta, "alive": alive}

    out, trunc = run_paths(system, starts, sched, n_paths, seed, chunk, stream0, workers)
    rhs = _mean_estimate(out["delta"], seed)
    base = out["f_vals"][:, 0]
    fds = [_mean_estimate((out["f_vals"][:, 1 + j] - base) / e, seed) for j, e in enumerate(eps_ladder)]
    disc_by_eps = [abs(fd.value - rhs.value) for fd in fds]
    lhs = fds[-1]
    combined = float(np.hypot(lhs.se, rhs.se))
    scale = 1.0 + abs(lhs.value) + abs(rhs.value)
    passed = bool(disc_by_eps[-1] <= 3.0 * combined + FLOAT_SLACK * scale)
    slope = None
    if len(eps_ladder) >= 2 and all(dc > 1e-13 * scale for dc in disc_by_eps):
        slope = float(np.polyfit(np.log(eps_ladder), np.log(disc_by_eps), 1)[0])
    return GradientCheckReport(lhs=lhs.value, rhs=rhs.value, se_lhs=lhs.se, se_rhs=rhs.se,
                               combined_se=combined, discrepancy=disc_by_eps[-1],
                               passed=passed, se_ptf=_mean_estimate(base, seed).se,
                               eps_ladder=eps_ladder, lhs_by_eps=[fd.value for fd in fds],
                               se_by_eps=[fd.se for fd in fds], discrepancy_by_eps=disc_by_eps,
                               richardson_slope=slope, n_paths=rhs.n_paths, seed=seed,
                               truncated=trunc)


def estimate_nested_Ptf(system: VectorFieldSystem, obs: ScalarObservable, x,
                        t: float, s: float, n_outer: int, n_inner: int, seed: int,
                        dt: float = 1e-2) -> MomentEstimate:
    """Coarse nested estimate of P_t(P_s f)(x): outer paths to t, a fresh inner
    ensemble from each endpoint to s.  Used for semigroup-property checks."""
    x = check_vector("x", x, system.dim)
    check_whole("n_inner", n_inner)
    sched = schedule_for(t, dt)

    def chunk(xs, dW):
        for outer in propagate(Stepper(system), xs, dW, sched.dt):
            pass
        return {"x": outer.x, "alive": outer.alive}

    out, trunc = run_paths(system, x, sched, n_outer, seed, chunk)
    inner_means = np.zeros(n_outer)
    for j in np.flatnonzero(out["alive"]):
        inner_means[j] = estimate_Ptf(system, obs, out["x"][j], s, n_inner, seed=seed, dt=dt,
                                      stream0=(j + 1) * 1_000_003).value
    return _mean_estimate(inner_means, seed, truncated=trunc)
