"""Monte Carlo estimation of the moment functionals: derivative-flow moments
over compact grids, stopped moments on radius ladders, exponential functionals
with their convexity companion bound, radial moments against user-supplied
envelopes, and the moment-exponent regression.

Conventions shared by every estimator here:

  * paths come from ``flow.run_paths``, which checks the starts (finite and
    admissible) and gives path k the Brownian stream (seed, stream0 + k);
    results are therefore deterministic for a given seed and independent of
    worker count and chunking;
  * each chunk is advanced by ``flow.propagate`` (one explosion and
    domain-exit policy, see the flow module) and an estimator accumulates
    over the states it is yielded; a path is truncated when any of its
    members exploded;
  * all members of a compact grid ride the same increments per path (common
    noise), which is what sup-over-K quantities require;
  * time integrals are left-endpoint Riemann sums on the step grid and
    stopping times are resolved to grid points, so an exit between two grid
    points is missed (an exit probability's bias is O(sqrt(dt)));
  * the derivative flow is tracked in log scale through a transported tangent
    frame, so norms never overflow; |T_xF_t| means the operator norm of the
    frame matrix;
  * sup over a compact set means max over the finite grid supplied by the
    caller, with the grid recorded in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .criteria import _directions_at, eval_Hp
from .errors import CapabilityError, ContractError
from .flow import Stepper, outside_balls, propagate, run_paths, schedule_for
from .geometry import CurvatureData, EmbeddedModel, vec_norm
from .systems import VectorFieldSystem

Array = np.ndarray

Z95 = 1.959963984540054

EXP_OVERFLOW = 700.0


@dataclass
class MomentEstimate:
    """Monte Carlo mean with its normal confidence interval and diagnostics.

    ``truncated`` counts paths that hit the explosion radius; sup-type
    functionals are then lower bounds only.  When ``log_space`` is set, value
    is the natural log of the estimate and se is the relative standard error.
    """

    value: float
    se: float
    n_paths: int
    seed: int
    confidence: float = 0.95
    truncated: int = 0
    log_space: bool = False
    lower_bound_only: bool = False
    invalid: bool = False
    extra: dict = field(default_factory=dict)

    def ci(self):
        return (self.value - Z95 * self.se, self.value + Z95 * self.se)

    def to_dict(self):
        lo, hi = self.ci()
        out = {
            "value": self.value, "se": self.se, "ci": [lo, hi],
            "n_paths": self.n_paths, "confidence": self.confidence,
            "truncated": self.truncated, "seed": self.seed,
            "log_space": self.log_space,
        }
        if self.lower_bound_only:
            out["lower_bound_only"] = True
        if self.invalid:
            out["invalid"] = True
        if self.extra:
            out["extra"] = self.extra
        return out


def _mean_estimate(values: Array, seed: int, truncated: int = 0, **kw) -> MomentEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    value = float(np.mean(values))
    se = 0.0
    if n > 1:
        with np.errstate(over="ignore"):
            se = float(np.std(values) / np.sqrt(n))
        if not np.isfinite(se) and np.isfinite(values).all():
            # the squared deviations overflow past ~1.3e154: rescale to [-1, 1]
            scale = float(np.max(np.abs(values)))
            se = scale * float(np.std(values / scale) / np.sqrt(n))
    return MomentEstimate(value=value, se=se, n_paths=n, seed=seed,
                          truncated=truncated, invalid=not np.isfinite(value), **kw)


def _estimate_from_exponents(expo: Array, seed: int, truncated: int = 0) -> MomentEstimate:
    """Mean of exp(expo) with log-space fallback past the overflow threshold."""
    expo = np.asarray(expo, dtype=float)
    n = expo.size
    mx = float(np.max(expo))
    if mx <= EXP_OVERFLOW:
        linear = np.exp(expo)
        # the sum overflows, so the mean is inf, only once mx + log(n) passes
        # log(DBL_MAX) ~ 709.78; log space then gives the finite log mean
        with np.errstate(over="ignore"):
            if np.isfinite(np.sum(linear)):
                return _mean_estimate(linear, seed, truncated)
    shifted = np.exp(expo - mx)
    m = float(np.mean(shifted))
    log_value = mx + float(np.log(m))
    rel_se = float(np.std(shifted) / (m * np.sqrt(n)))
    return MomentEstimate(value=log_value, se=rel_se, n_paths=n, seed=seed,
                          truncated=truncated, log_space=True)


def _sup_estimate(ests: List[MomentEstimate]) -> MomentEstimate:
    """The largest valid estimate, compared on the log scale (a log-space
    estimate stores its log); the first one, flagged invalid, when none is
    valid.  Log-scale ties fall back to the linear value, so a list of linear
    estimates gives what the max by value gives."""
    valid = [e for e in ests if not e.invalid]
    if not valid:
        ests[0].invalid = True
        return ests[0]

    def key(e):
        if e.log_space:
            return e.value, -np.inf
        return (np.log(e.value) if e.value > 0 else -np.inf), e.value

    return max(valid, key=key)


def _observed(values, x: Array) -> Array:
    """An observable's values at the points x (..., d) as floats, one per point."""
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape[:-1]:
        raise ContractError(f"observable gave shape {values.shape} at points of shape {x.shape}; "
                            f"expected one value per point, {x.shape[:-1]}")
    return values


def _one_vector(a, dim: int, what: str) -> Array:
    a = np.asarray(a, dtype=float)
    if a.shape != (dim,) or not np.isfinite(a).all():
        raise ContractError(f"{what} must be one finite vector of dimension {dim}, got {a.tolist()!r}")
    return a


def _grid_array(grid) -> Array:
    try:
        g = np.asarray(grid, dtype=float)
    except (TypeError, ValueError):     # ragged, or not numbers: rejected as empty
        g = np.empty(0)
    if g.ndim == 1:
        g = g[None, :]
    if g.ndim != 2 or g.size == 0 or not np.isfinite(g).all():
        raise ContractError("grid must be a point or a nonempty array of points, with finite coordinates")
    return g


def _ladder(values, what: str, min_len: int = 1) -> List[float]:
    """values as floats, checked to form a ladder: at least min_len rungs,
    none NaN, strictly increasing."""
    values = [float(v) for v in values]
    if len(values) < min_len or np.isnan(values).any() \
            or any(b <= a for a, b in zip(values, values[1:])):
        raise ContractError(f"{what} must be strictly increasing, without NaN, "
                            f"with at least {min_len} rung(s); got {values!r}")
    return values


def _check_p(p: float) -> None:
    if not (np.isfinite(p) and p > 0):
        raise ContractError(f"p must be finite and positive, got {p!r}")


def _top_eigenvalue(a: Array, b: Array, c: Array) -> Array:
    """Top eigenvalue of the symmetric 2x2 matrices [[a, b], [b, c]] with
    a + c >= 0, by the steps ``np.linalg.eigvalsh`` takes for them in
    reference LAPACK (dsterf: its two tests for a negligible b, then dlae2),
    so that a Gram matrix whose entries stay near 1 gets eigvalsh's bits."""
    eps = np.finfo(float).eps / 2
    adf, ab = np.abs(a - c), np.abs(b + b)
    big, small = np.maximum(adf, ab), np.minimum(adf, ab)
    with np.errstate(invalid="ignore"):
        rt = np.where(big > 0, big * np.sqrt(1.0 + np.square(small / big)), 0.0)
    split = (np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * eps) \
        | (np.square(b) <= eps * eps * np.abs(a * c))
    return np.where(split, np.maximum(a, c), 0.5 * ((a + c) + rt))


def _log_opnorm(L: Array, U: Array) -> Array:
    """log operator norm of the frame with log-lengths L (..., k) and unit
    directions U (..., k, d); overflow-safe via the shifted Gram matrix,
    whose top eigenvalue is taken in closed form for k = 2."""
    k = L.shape[-1]
    if k == 1:
        return L[..., 0]
    Lm = L.max(axis=-1, keepdims=True)
    s = np.exp(L - Lm)
    W = s[..., None] * U
    if k == 2:
        # one einsum per entry sums in the order of the full Gram einsum
        w0, w1 = W[..., 0, :], W[..., 1, :]
        lam = _top_eigenvalue(*(np.einsum("...i,...i->...", p, q)
                                for p, q in ((w0, w0), (w0, w1), (w1, w1))))
    else:
        lam = np.linalg.eigvalsh(np.einsum("...ki,...li->...kl", W, W))[..., -1]
    return Lm[..., 0] + 0.5 * np.log(np.maximum(lam, 1e-300))


def _frame_scan(system: VectorFieldSystem, x: Array, dW: Array, dt: float, r_expl: float = 1e6):
    """Stream the coupled (x, frame) evolution of a chunk of paths from a grid,
    starts x (C, G, d) and increments dW: yield ``(state, lognorm)`` at step 0
    and after every step, with unit frame directions (C, G, k, d) and
    ``lognorm(rows)`` the (len(rows), G) log of |T_xF| in the model metric,
    relative to the start, for the paths ``rows`` of the chunk (an index
    array; ``slice(None)`` for all of them)."""
    model = system.model
    # orthonormal start frames: the model's tangent frames (G, k, d)
    frames = np.swapaxes(model.tangent_frame(x[0]), -1, -2)
    U = np.broadcast_to(frames, x.shape[:-1] + frames.shape[-2:]).copy()
    L = np.zeros(U.shape[:-1])                                # log-lengths (C, G, k)
    base = np.asarray(model.log_metric_factor(x))
    for s in propagate(Stepper(system, r_expl=r_expl), x, dW, dt, v=U, unit=True):
        if s.k:
            L = np.where(s.alive[..., None], L + s.logw, L)
        yield s, lambda rows, L=L, s=s: (_log_opnorm(L[rows], s.v[rows])
                                         + np.asarray(model.log_metric_factor(s.x[rows])) - base[rows])


# ----------------------------------------------------------------------
# derivative-flow moments
# ----------------------------------------------------------------------

@dataclass
class GridMomentResult:
    sup: MomentEstimate
    per_point: List[MomentEstimate]
    grid: List[list]
    p: float
    t: float
    dt: float

    def to_dict(self):
        return {"sup": self.sup.to_dict(),
                "per_point": [m.to_dict() for m in self.per_point],
                "grid": self.grid, "p": self.p, "t": self.t, "dt": self.dt}


def estimate_sup_derivative_moment(system: VectorFieldSystem, grid, p: float, t: float,
                                   n_paths: int, seed: int, dt: float = 1e-3,
                                   terminal: bool = False, stream0: int = 0,
                                   workers: int = 1, r_expl: float = 1e6) -> GridMomentResult:
    """sup_{x in K} E sup_{s<=t} |T_xF_s|^p over a finite grid K.

    ``terminal=True`` drops the running sup and uses |T_xF_t|^p.  Exploded
    paths keep their running max up to explosion and flag the estimate as a
    lower bound.
    """
    _check_p(p)
    grid = _grid_array(grid)
    sched = schedule_for(t, dt)

    def chunk(x, dW):
        run = -np.inf
        for s, lognorm in _frame_scan(system, x, dW, sched.dt, r_expl=r_expl):
            cur = lognorm(slice(None))
            run = np.where(s.alive, np.maximum(run, cur), run)
        return {"logv": cur if terminal else run, "alive": s.alive}

    out, trunc = run_paths(system, grid, sched, n_paths, seed, chunk, stream0, workers)
    per_point = []
    for g in range(grid.shape[0]):
        est = _estimate_from_exponents(p * out["logv"][:, g], seed, truncated=trunc)
        est.lower_bound_only = trunc > 0 and not terminal
        if trunc == n_paths:
            est.invalid = True
        per_point.append(est)
    return GridMomentResult(sup=_sup_estimate(per_point), per_point=per_point,
                            grid=[list(r) for r in grid], p=p, t=sched.horizon, dt=dt)


@dataclass
class StoppedMomentResult:
    radii: List[float]
    per_radius_sup: List[MomentEstimate]
    per_point: List[List[MomentEstimate]]
    liminf_proxy: float
    grid: List[list]
    t: float
    dt: float

    def to_dict(self):
        return {"radii": self.radii,
                "per_radius_sup": [m.to_dict() for m in self.per_radius_sup],
                "liminf_proxy": self.liminf_proxy, "grid": self.grid,
                "t": self.t, "dt": self.dt}


def estimate_stopped_moment(system: VectorFieldSystem, grid, radii: Sequence[float],
                            t: float, n_paths: int, seed: int, dt: float = 1e-3,
                            center=None, stream0: int = 0, workers: int = 1) -> StoppedMomentResult:
    """sup_{x in K} E(|T_xF_{S_j^K}| 1{S_j^K < t}) along an increasing radius
    ladder, where S_j^K is the first time any grid member is outside ball j
    (:func:`flow.outside_balls`: past radius R_j about ``center``, or
    exploded).  Exits are looked for at grid steps 1..n-1 of the n-step grid:
    the start does not count, and an exit at step n is not before t.

    The diagnostic liminf proxy is the min of the three largest rungs.
    """
    radii = _ladder(radii, "radius ladder")
    grid = _grid_array(grid)
    sched = schedule_for(t, dt)
    c = np.zeros(grid.shape[1]) if center is None else _one_vector(center, grid.shape[1], "center")
    J = len(radii)

    def chunk(x, dW):
        stopped = np.zeros((len(x), J), dtype=bool)
        value = np.zeros((len(x), grid.shape[0], J))
        for s, lognorm in _frame_scan(system, x, dW, sched.dt):
            if s.k == 0:
                continue
            trig = outside_balls(s, vec_norm(s.x - c), radii).any(axis=1)   # (C, J)
            newly = trig & ~stopped
            rows = np.flatnonzero(newly.any(axis=1))
            if s.k < sched.n_steps and rows.size:             # strict S_j < t
                with np.errstate(over="ignore"):
                    value[rows] = np.where(newly[rows, None, :], np.exp(lognorm(rows))[:, :, None],
                                           value[rows])
            stopped |= newly
        return {"value": value, "alive": s.alive}

    out, trunc = run_paths(system, grid, sched, n_paths, seed, chunk, stream0, workers)
    per_point = [[_mean_estimate(out["value"][:, g, j], seed, truncated=trunc)
                  for g in range(grid.shape[0])] for j in range(J)]
    per_radius_sup = [max(col, key=lambda e: e.value) for col in per_point]
    liminf_proxy = float(min(e.value for e in per_radius_sup[-3:]))
    return StoppedMomentResult(radii=radii, per_radius_sup=per_radius_sup,
                               per_point=per_point, liminf_proxy=liminf_proxy,
                               grid=[list(r) for r in grid], t=sched.horizon, dt=dt)


# ----------------------------------------------------------------------
# exponential functionals
# ----------------------------------------------------------------------

def estimate_exponential_functional(system: VectorFieldSystem, f: Callable[[Array], Array],
                                    x0, t: float, theta: float, n_paths: int, seed: int,
                                    dt: float = 1e-3, stream0: int = 0,
                                    workers: int = 1):
    """E exp(theta int_0^t f(x_s) ds) together with its convexity companion
    (1/t) int_0^t E exp(theta t f(x_s)) ds, both on the same paths.

    Returns (estimate, companion_bound_estimate).  Integrals are left-endpoint
    sums; the pathwise convexity inequality holds exactly for the discretized
    quantities, so the companion is never below the estimate up to Monte Carlo
    noise.
    """
    if theta < 0:
        raise ContractError("theta must be nonnegative")
    x0 = _one_vector(x0, system.dim, "x0")
    sched = schedule_for(t, dt)
    horizon = sched.horizon

    def chunk(x, dW):
        integral = np.zeros(len(x))
        lse = np.full(len(x), -np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in propagate(Stepper(system), x, dW, sched.dt):
                if s.k == sched.n_steps:
                    break
                fx = _observed(f(s.x), s.x)
                integral = np.where(s.alive, integral + fx * sched.dt, integral)
                lse = np.where(s.alive,
                               np.logaddexp(lse, theta * horizon * fx + np.log(sched.dt)),
                               lse)
        return {"expo": theta * integral, "jensen_log": lse - np.log(horizon), "alive": s.alive}

    out, trunc = run_paths(system, x0, sched, n_paths, seed, chunk, stream0, workers)
    main = _estimate_from_exponents(out["expo"], seed, truncated=trunc)
    companion = _estimate_from_exponents(out["jensen_log"], seed, truncated=trunc)
    return main, companion


# ----------------------------------------------------------------------
# radial moments
# ----------------------------------------------------------------------

@dataclass
class RadialMomentResult:
    moment: MomentEstimate
    exit_probabilities: Dict[str, float]
    exit_probability_se: Dict[str, float]
    bound: Optional[float]
    bound_satisfied: Optional[bool]
    exit_bounds: Optional[Dict[str, float]]
    r0: float
    p: float
    t: float

    def to_dict(self):
        return {"moment": self.moment.to_dict(),
                "exit_probabilities": self.exit_probabilities,
                "exit_probability_se": self.exit_probability_se,
                "bound": self.bound, "bound_satisfied": self.bound_satisfied,
                "exit_bounds": self.exit_bounds, "r0": self.r0, "p": self.p, "t": self.t}


def estimate_radial_moment(system: VectorFieldSystem, curvature: CurvatureData, x0,
                           p: float, t: float, n_paths: int, seed: int,
                           dt: float = 1e-3, radius_ladder: Sequence[float] = (),
                           k0: Optional[float] = None, stream0: int = 0,
                           workers: int = 1) -> RadialMomentResult:
    """E(1 + r(x_t))^p plus, for each rung R_n of a radius ladder, the
    probability that the path is outside the ball r <= R_n
    (:func:`flow.outside_balls`: past R_n, or exploded) at some grid step
    0..n of the n-step grid, which is P(T_n <= t) on the grid and counts a
    start outside the ball.  The moment is compared against the envelope
    (1 + r(x0))^p e^{k0 (1 + p^2) t} when a k0 is supplied."""
    dist = system.model.distance_to_pole(curvature)
    if dist is None:
        raise CapabilityError("radial estimates need a closed-form pole distance or a pole point")
    x0 = _one_vector(x0, system.dim, "x0")
    sched = schedule_for(t, dt)
    ladder = _ladder(radius_ladder, "radius ladder", min_len=0)
    keys = [f"{n_rad:g}" for n_rad in ladder]
    if len(set(keys)) < len(keys):
        raise ContractError(f"radius ladder rungs {keys!r} must differ in their report keys")

    def chunk(x, dW):
        hits = np.zeros((len(x), len(ladder)), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in propagate(Stepper(system), x, dW, sched.dt):
                r = np.asarray(dist(s.x)[0])
                hits |= outside_balls(s, r, ladder)
        return {"r_final": r, "hits": hits, "alive": s.alive}

    out, trunc = run_paths(system, x0, sched, n_paths, seed, chunk, stream0, workers)
    values = (1.0 + out["r_final"]) ** p
    moment = _mean_estimate(values, seed, truncated=trunc)
    r0 = float(np.asarray(dist(x0[None, :])[0])[0])
    exits = [_mean_estimate(out["hits"][:, j], seed) for j in range(len(keys))]
    exit_p = {key: e.value for key, e in zip(keys, exits)}
    exit_se = {key: e.se for key, e in zip(keys, exits)}
    bound = bound_ok = exit_bounds = None
    if k0 is not None:
        bound = float((1.0 + r0) ** p * np.exp(k0 * (1.0 + p * p) * sched.horizon))
        bound_ok = bool(moment.value <= bound + 3.0 * moment.se)
        exit_bounds = {key: float(bound / float(key) ** p) for key in exit_p}
    return RadialMomentResult(moment=moment, exit_probabilities=exit_p,
                              exit_probability_se=exit_se, bound=bound,
                              bound_satisfied=bound_ok, exit_bounds=exit_bounds,
                              r0=r0, p=p, t=sched.horizon)


# ----------------------------------------------------------------------
# moment exponent
# ----------------------------------------------------------------------

@dataclass
class MomentExponentResult:
    slope: float
    intercept: float
    residuals: List[float]
    horizons: List[float]
    log_moments: List[float]
    per_horizon: List[MomentEstimate]
    excluded: List[int]
    p: float

    def to_dict(self):
        return {"slope": self.slope, "intercept": self.intercept,
                "residuals": self.residuals, "horizons": self.horizons,
                "log_moments": self.log_moments,
                "per_horizon": [m.to_dict() for m in self.per_horizon],
                "excluded": self.excluded, "p": self.p}


def estimate_moment_exponent(system: VectorFieldSystem, grid, p: float,
                             horizons: Sequence[float], n_paths: int, seed: int,
                             dt: float = 1e-3, stream0: int = 0,
                             workers: int = 1) -> MomentExponentResult:
    """Least-squares slope of log sup_K E|T_xF_t|^p over a horizon ladder;
    negative slopes witness p-th-moment stability."""
    _check_p(p)
    horizons = _ladder(horizons, "horizons")
    grid = _grid_array(grid)
    sched = schedule_for(horizons[-1], dt)
    # each horizon must be a grid time, so that the moment reported for t is
    # the one evaluated at t
    steps = [schedule_for(h, dt).n_steps for h in horizons]

    def chunk(x, dW):
        snaps = np.zeros((len(x), grid.shape[0], len(steps)))
        for s, lognorm in _frame_scan(system, x, dW, sched.dt):
            for h_idx, step in enumerate(steps):
                if step == s.k > 0:
                    snaps[:, :, h_idx] = lognorm(slice(None))
        return {"snaps": snaps, "alive": s.alive}

    out, trunc = run_paths(system, grid, sched, n_paths, seed, chunk, stream0, workers)
    per_horizon, ys, excluded = [], [], []
    for h_idx in range(len(horizons)):
        ests = [_estimate_from_exponents(p * out["snaps"][:, g, h_idx], seed, truncated=trunc)
                for g in range(grid.shape[0])]
        sup = _sup_estimate(ests)
        per_horizon.append(sup)
        y = sup.value if sup.log_space else (np.log(sup.value) if sup.value > 0 else np.nan)
        if not np.isfinite(y):
            excluded.append(h_idx)
            ys.append(np.nan)
        else:
            ys.append(float(y))
    use = [i for i in range(len(horizons)) if i not in excluded]
    if len(use) < 2:
        raise ContractError("not enough usable horizons for the regression")
    tarr = np.array([horizons[i] for i in use])
    yarr = np.array([ys[i] for i in use])
    slope, intercept = np.polyfit(tarr, yarr, 1)
    resid = yarr - (slope * tarr + intercept)
    return MomentExponentResult(slope=float(slope), intercept=float(intercept),
                                residuals=[float(r) for r in resid],
                                horizons=horizons, log_moments=ys,
                                per_horizon=per_horizon, excluded=excluded, p=p)


# ----------------------------------------------------------------------
# exponential functional of sup H_1 for gradient systems
# ----------------------------------------------------------------------

def sup_h1_field(system: VectorFieldSystem, n_directions: int = 16) -> Callable[[Array], Array]:
    """x -> sup_{|v|=1} H_1(x)(v, v) over a fixed tangent direction sample,
    one gauss-backend evaluation over all (point, direction) pairs; -inf at a
    point where no direction survives the tangent projection."""
    if not (system.is_gradient and isinstance(system.model, EmbeddedModel)):
        raise CapabilityError("sup H_1 field is for gradient Brownian systems")
    model = system.model

    def f(x):
        x = np.asarray(x, dtype=float)
        v, keep = _directions_at(model, x, n_directions)
        out = np.full(keep.shape, -np.inf)
        out[keep] = eval_Hp(system, np.broadcast_to(x[..., None, :], v.shape)[keep], v[keep],
                            1.0, backend="gauss")
        return out.max(axis=-1)

    return f


def estimate_girsanov_one_completeness(system: VectorFieldSystem, grid, t: float,
                                       n_paths: int, seed: int, dt: float = 1e-2,
                                       n_directions: int = 16, stream0: int = 0,
                                       workers: int = 1) -> GridMomentResult:
    """sup_{x in K} E exp(1/2 int_0^T f(F_s(x)) ds) with f = sup_{|v|=1} H_1;
    finiteness is the one-completeness evidence for gradient systems."""
    f = sup_h1_field(system, n_directions=n_directions)
    grid = _grid_array(grid)
    sched = schedule_for(t, dt)

    def chunk(x, dW):
        integral = np.zeros(x.shape[:-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for s in propagate(Stepper(system), x, dW, sched.dt):
                if s.k == sched.n_steps:
                    break
                integral = np.where(s.alive, integral + f(s.x) * sched.dt, integral)
        return {"expo": 0.5 * integral, "alive": s.alive}

    out, trunc = run_paths(system, grid, sched, n_paths, seed, chunk, stream0, workers)
    per_point = [_estimate_from_exponents(out["expo"][:, g], seed, truncated=trunc)
                 for g in range(grid.shape[0])]
    return GridMomentResult(sup=_sup_estimate(per_point), per_point=per_point,
                            grid=[list(r) for r in grid], p=1.0, t=sched.horizon, dt=dt)
