"""Time stepping of the solution flow F_t(x) and the derivative flow T_xF_t(v).

The integrator is the Stratonovich Heun scheme: an Euler predictor followed by
a trapezoidal corrector in both the noise and the drift, which targets the
Stratonovich solution without forming second derivatives or Levy areas.  It is
exact for additive noise with constant drift.  The derivative flow is stepped
with the same predictor as the base point, so the pair scheme is the exact
differential of the base scheme whenever the supplied jacobians are exact.  A
frame of r tangents at a point is stepped with the point, once: the jacobians
see the point with a size-1 column axis, so a term of the point alone (a
normal field) is evaluated once per point, not once per column.

Common noise: all members of a batch passed to one integration call consume
the same Brownian increments.  That is the flow coupling used everywhere in
flowlab, from transported frames to variance-collapsed finite differences.

Every path is advanced by one kernel, :func:`propagate`, under one policy: a
member explodes when the model's escape coordinate exceeds a finite radius
(default 1e6) or the state leaves floating-point range, and is then frozen at
its last finite state; a member that leaves the admissible set (a punctured
model's exclusion ball) is recorded with its first exit step but keeps moving.
Exits from a ladder of balls are read off the propagated states by one
predicate, :func:`outside_balls`: past the radius or exploded.  Stopping times
are resolved to grid points; an exit between two grid points goes unseen, so
an exit probability is biased by order sqrt(dt).

Every Monte Carlo estimate runs its paths through one runner,
:func:`run_paths`: it checks the starts (:func:`start_points`), gives path k
the stream stream0 + k (:func:`chunk_paths`), maps one chunk per worker
(``parallel.chunk_size``) through ``parallel.run_chunks`` and counts a path as
truncated when any of its members exploded.  A path's numbers do not depend on
the chunk it runs in, so the chunking never changes a result.  A chunk's noise
is a :class:`NoiseSource`: each path's generator stays alive and refills as
many steps as fit in ``NOISE_BYTES`` for the whole chunk, never fewer than
``NOISE_BLOCK``, so a chunk holds one refill of noise whatever its horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .errors import ContractError, check_grid, check_real, check_whole
from .geometry import ManifoldModel, sum_last, vec_norm
from .parallel import chunk_size, run_chunks
from .systems import VectorFieldSystem, as_stratonovich

Array = np.ndarray

DEFAULT_EXPLOSION_RADIUS = 1e6
UNDERFLOW_FLOOR = 1e-300

#: the fewest steps of noise a path draws at a time
NOISE_BLOCK = 32
#: bytes of noise a source refills at a time, when that is NOISE_BLOCK steps or more
NOISE_BYTES = 2 * 2 ** 20

_U64 = np.uint64


@dataclass(frozen=True)
class StepSchedule:
    """Uniform time grid with step dt and n_steps steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        check_real("dt", self.dt, low=0.0)
        check_whole("n_steps", self.n_steps)

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    def times(self) -> Array:
        return np.arange(self.n_steps + 1) * self.dt


def schedule_for(t: float, dt: float) -> StepSchedule:
    """Grid of step dt ending at t, which must be a whole number >= 1 of steps."""
    check_real("t", t)
    check_real("dt", dt, low=0.0)
    n = int(round(t / dt)) if np.isfinite(t / dt) else 0
    if n < 1 or abs(n * dt - t) > 1e-9 * max(1.0, t):
        raise ContractError(f"horizon {t!r} is not a whole number >= 1 of steps of {dt!r}")
    return StepSchedule(dt=dt, n_steps=n)


@cache
def _key_seed_type() -> type:
    """The seed sequence of a keyed Philox.  ``Philox(key=k)`` first fills a
    ``SeedSequence`` from OS entropy, then sets the key k; a Philox seeded by
    this type asks it once for its state, ``generate_state(2, uint64)``, and
    gets k = [seed, stream], so the generator starts in the same state.  Made
    on first use, since numpy.random is not imported until noise is drawn;
    registered rather than subclassed, so that it can be slotted: every live
    generator keeps its seed sequence."""
    from numpy.random.bit_generator import ISeedSequence

    @ISeedSequence.register
    class KeySeed:
        __slots__ = ("seed", "stream")

        def __init__(self, seed: int, stream: int):
            self.seed, self.stream = seed, stream

        def generate_state(self, n_words, dtype=np.uint32) -> Array:
            return np.array([self.seed, self.stream], dtype=_U64)

    return KeySeed


class BrownianDriver:
    """Counter-based Brownian increment source (Philox keyed streams).

    The same (seed, stream, schedule) triple always reproduces bit-identical
    increments, and distinct streams are independent, so assigning stream ids
    by path index gives reproducible parallel Monte Carlo.  The seed and
    the stream are 64-bit key words: ``ContractError`` outside [0, 2^64), so
    no seed or ``for_path`` stream wraps round onto another's numbers.
    """

    def __init__(self, seed: int, dim: int, stream: int = 0):
        check_whole("seed", seed, 0, 2 ** 64)
        check_whole("stream", stream, 0, 2 ** 64)
        self.seed = int(seed)
        self.stream = int(stream)
        self.dim = int(dim)

    def generator(self) -> np.random.Generator:
        """The path's generator: ``Philox(key=[seed, stream])``, built from a
        :func:`_key_seed_type` so that no OS entropy is drawn and thrown away."""
        return np.random.Generator(np.random.Philox(_key_seed_type()(self.seed, self.stream)))

    def increments(self, sched: StepSchedule) -> Array:
        """Gaussian increments with variance dt, shape (n_steps, dim)."""
        g = self.generator()
        return g.standard_normal((sched.n_steps, self.dim)) * np.sqrt(sched.dt)

    def for_path(self, k: int) -> "BrownianDriver":
        return BrownianDriver(self.seed, self.dim, stream=self.stream + int(k))

    def __repr__(self):
        return f"BrownianDriver(seed={self.seed}, stream={self.stream}, dim={self.dim})"


# ----------------------------------------------------------------------
# stepping kernel
# ----------------------------------------------------------------------

class Stepper:
    """Heun stepping with explosion bookkeeping, shared by every estimator."""

    def __init__(self, system: VectorFieldSystem, r_expl: float = DEFAULT_EXPLOSION_RADIUS):
        self.system = as_stratonovich(system)
        self.model: ManifoldModel = system.model
        self.r_expl = float(r_expl)

    def _heun(self, x: Array, dB: Array, dt: float):
        """The Euler predictor of x and the retracted Heun step; a constant
        diffusion is evaluated once, as 0.5 * (b0 + b0) is b0 bit for bit."""
        s = self.system
        a0 = s.drift(x)
        b0 = s.diffusion(x, dB)
        xp = x + b0 + a0 * dt
        b = b0 if s.constant_diffusion else 0.5 * (b0 + s.diffusion(xp, dB))
        x1 = x + b + 0.5 * dt * (a0 + s.drift(xp))
        return xp, self.model.retract(x1)

    def step_x(self, x: Array, dB: Array, dt: float) -> Array:
        return self._heun(x, dB, dt)[1]

    def step_pair(self, x: Array, v: Array, dB: Array, dt: float):
        """Coupled (x, v) step; the v update is the differential of the x update.
        v is shaped like x, or a frame (..., r, d) riding its point's noise:
        the point is stepped once, and seen by the jacobians and the tangent
        projection with a size-1 column axis; a constant diffusion's (zero)
        jacobian is evaluated once."""
        s = self.system
        xp, x1 = self._heun(x, dB, dt)
        x0, xr = x, x1
        if v.ndim > x.ndim:
            x0, xp, xr, dB = (a[..., None, :] for a in (x, xp, x1, dB))
        ja0 = s.drift_jacobian(x0, v)
        jb0 = s.diffusion_jacobian(x0, dB, v)
        vp = v + jb0 + ja0 * dt
        jb = jb0 if s.constant_diffusion else 0.5 * (jb0 + s.diffusion_jacobian(xp, dB, vp))
        v1 = v + jb + 0.5 * dt * (ja0 + s.drift_jacobian(xp, vp))
        return x1, self.model.tangent_project(xr, v1)

    def classify(self, x: Array):
        """(exploded, domain_exit) masks for candidate states; a batch whose
        row sums are all finite is finite, and needs no zero-filling."""
        x = np.asarray(x, dtype=float)
        model = self.model
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(sum_last(x)).all():
                exploded = model.escape_coordinate(x) > self.r_expl
                return exploded, ~model.in_domain(x) & ~exploded
            finite = np.isfinite(x).all(axis=-1)
            x = np.where(finite[..., None], x, 0.0)
            exploded = ~finite | (np.where(finite, model.escape_coordinate(x), np.inf) > self.r_expl)
            return exploded, finite & ~model.admissible(x) & ~exploded


@dataclass
class PathState:
    """State of a batch after ``k`` steps of :func:`propagate`."""

    k: int
    x: Array                     # (..., d)
    v: Optional[Array]           # (..., d), or a frame (..., r, d) of r vectors
    alive: Array                 # (...,) not exploded
    explosion_step: Array        # (...,) n_steps + 1 if never
    exit_step: Array             # (...,) first inadmissible step, n_steps + 1 if never
    logw: Optional[Array] = None  # unit mode: log|w| of step k (None at k = 0)


def propagate(stepper: Stepper, x, dW: Array, dt: float, v=None, unit: bool = False):
    """Yield the :class:`PathState` of a batch at step 0 and after every Heun
    step under the increments dW, applying the module's explosion and
    domain-exit policy.  dW is an array (n_steps, ..., m) or a
    :class:`NoiseSource`: ``len(dW)`` steps, read in order as ``dW[k]``
    (..., m), which broadcasts against the batch.

    A tangent v shaped like x is stepped with the pair scheme; a v with one
    more axis is a frame (..., r, d) riding its point's noise, stepped with its
    point by one :meth:`Stepper.step_pair` call and classified once per point.
    ``unit=True`` renormalizes v after every step and reports the
    step's log|w| as ``logw`` (a zero vector stays zero, log|w| = 0).  States
    are never modified in place.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != stepper.system.dim:
        raise ContractError(f"points of dimension {x.shape[-1]}, system of dimension {stepper.system.dim}")
    frame = v is not None and v.ndim == x.ndim + 1
    alive = np.ones(x.shape[:-1], dtype=bool)
    expl_step = exit_step = np.full(alive.shape, len(dW) + 1, dtype=int)
    yield PathState(0, x, v, alive, expl_step, exit_step)
    logw = None
    for k in range(len(dW)):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if v is None:
                x1 = stepper.step_x(x, dW[k], dt)
            else:
                x1, v1 = stepper.step_pair(x, v, dW[k], dt)
            bad, out = stepper.classify(x1)
            if bad.any():
                expl_step = np.where(alive & bad, k + 1, expl_step)
            if out.any():    # exit_step > k: no exit recorded yet, so the first one is kept
                exit_step = np.where(alive & out & (exit_step > k), k + 1, exit_step)
            keep = alive & ~bad
            every = keep.all()       # nothing to freeze: take the step as it is
            x = x1 if every else np.where(keep[..., None], x1, x)
            if v is not None:
                keep_v = keep[..., None, None] if frame else keep[..., None]
                if unit:
                    nw = vec_norm(v1)
                    logw = np.where(nw > 0, np.log(np.maximum(nw, UNDERFLOW_FLOOR)), 0.0)
                    grow = keep_v & (nw > 0)[..., None]
                    v = v1 / nw[..., None] if grow.all() else \
                        np.where(grow, v1 / np.where(nw == 0.0, 1.0, nw)[..., None], v)
                else:
                    v = v1 if every else np.where(keep_v, v1, v)
            alive = keep
        yield PathState(k + 1, x, v, alive, expl_step, exit_step, logw)


def start_points(system: VectorFieldSystem, x) -> Array:
    """x as float points of the system's dimension, each finite and admissible
    (``ContractError``, ``DomainError`` otherwise), checked before any step."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != system.dim:
        raise ContractError(f"start points of shape {x.shape}, system of dimension {system.dim}")
    system.model.check_admissible(x)
    return x


def outside_balls(state: PathState, dist: Array, radii) -> Array:
    """The one exit rule for a radius ladder: a member of ``state`` is outside
    ball j once it is past radius R_j, ``dist > radii[j]``, or has exploded,
    since explosion leaves every compact set.  ``dist`` (...,) is each
    member's distance from the centre; the result is (..., J)."""
    return (dist[..., None] > np.asarray(radii)) | ~state.alive[..., None]


def refill_steps(n_paths: int, dim: int) -> int:
    """Steps a source of n_paths paths with dim noise columns refills at a
    time: as many as fit in ``NOISE_BYTES``, never fewer than ``NOISE_BLOCK``."""
    return max(NOISE_BLOCK, NOISE_BYTES // (8 * max(1, n_paths * dim)))


class NoiseSource:
    """Forward-only Brownian increments of the Monte Carlo paths ``streams``
    under a schedule; path ``streams[c]`` draws from ``driver.for_path``.

    Each path's generator stays alive and refills ``block`` steps at a time,
    by default :func:`refill_steps` (one draw call per path per refill), which
    gives the numbers of one whole draw bit for bit.  ``len(noise)`` is
    n_steps and ``noise[k]`` is step k as a (C, [1, ...,] m) view, with
    ``lead`` size-1 axes before m; steps are read in order, and a view is
    valid until the next refill.
    """

    def __init__(self, driver: BrownianDriver, streams, sched: StepSchedule, lead: int = 0,
                 block: Optional[int] = None):
        self._gens = [driver.for_path(k).generator() for k in streams]
        self._n = sched.n_steps
        self._scale = np.sqrt(sched.dt)
        self._lead = tuple(range(2, lead + 2))
        if block is None:
            block = refill_steps(len(self._gens), driver.dim)
        self._buf = np.empty((len(self._gens), min(block, self._n), driver.dim))
        self._lo = self._hi = 0

    def __len__(self) -> int:
        return self._n

    def next_block(self) -> Array:
        """The steps after the last refill, time-major (b, C, [1, ...,] m)."""
        if self._hi == self._n:
            raise ContractError("the noise source is spent")
        b = min(self._buf.shape[1], self._n - self._hi)
        buf = self._buf[:, :b]
        for row, gen in zip(buf, self._gens):
            gen.standard_normal(out=row)
        buf *= self._scale
        self._lo, self._hi = self._hi, self._hi + b
        self._steps = np.expand_dims(np.moveaxis(buf, 1, 0), self._lead)
        return self._steps

    def __getitem__(self, k: int) -> Array:
        if k == self._hi:
            self.next_block()
        elif not self._lo <= k < self._hi:
            raise ContractError(f"noise step {k} read out of order: the source holds "
                                f"steps {self._lo}..{self._hi - 1}")
        return self._steps[k - self._lo]


def chunk_paths(driver: BrownianDriver, lo: int, hi: int, sched: StepSchedule, x):
    """Start points (C, d) or (C, G, d) of Monte Carlo paths lo..hi-1 from a
    point or grid x, and their :class:`NoiseSource`, whose step k is
    (C, m) or (C, 1, m).  Path k draws from ``driver.for_path(k)`` whatever
    the chunking; the points of a grid share their path's noise."""
    x = np.asarray(x, dtype=float)
    xs = np.broadcast_to(x, (hi - lo,) + x.shape).copy()
    return xs, NoiseSource(driver, range(lo, hi), sched, lead=x.ndim - 1)


def run_paths(system: VectorFieldSystem, x, sched: StepSchedule, n_paths: int, seed: int,
              chunk, stream0: int = 0, workers: int = 1):
    """Run n_paths Monte Carlo paths from the starts x, a point or a grid,
    checked by :func:`start_points` before any chunk.  ``chunk(xs, dW)`` gets
    one chunk's starts and noise source from :func:`chunk_paths` (path k on
    stream stream0 + k), reads the noise once, in order, and returns per-path
    arrays plus ``alive``, the alive mask of its last state.  Returns the
    arrays concatenated in path order, with ``alive`` reduced to one flag per
    path (every member alive), and the number of truncated paths, those with
    an exploded member.  Each worker gets one chunk (``parallel.chunk_size``)."""
    x = start_points(system, x)
    driver = BrownianDriver(seed, system.noise_dim, stream=stream0)
    size = chunk_size(n_paths, workers)

    def span(lo, hi):
        out = chunk(*chunk_paths(driver, lo, hi, sched, x))
        out["alive"] = out["alive"].reshape(hi - lo, -1).all(axis=1)
        return out

    out = run_chunks(n_paths, span, workers=workers, chunk=size)
    return out, int((~out["alive"]).sum())


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class FlowResult:
    """Recorded trajectory of a common-noise member batch."""

    times: Array                 # (n_steps + 1,)
    states: Array                # (n_steps + 1, B, d)
    exploded: Array              # (B,) bool
    explosion_step: Array        # (B,) int, n_steps + 1 if never
    domain_exit: Array           # (B,) bool
    domain_exit_step: Array      # (B,) int, first inadmissible step, n_steps + 1 if never

    @property
    def n_members(self) -> int:
        return self.states.shape[1]

    def final_states(self) -> Array:
        return self.states[-1]


@dataclass
class DerivativeFlowResult(FlowResult):
    mode: str = "direct"
    vs: Optional[Array] = None          # (n_steps + 1, B, d) in direct mode
    log_norms: Optional[Array] = None   # (n_steps + 1, B), natural log of |v_t|
    directions: Optional[Array] = None  # (n_steps + 1, B, d) in log_radial mode
    martingale: Optional[Array] = None  # (n_steps + 1, B) M_t accumulator
    quad_variation: Optional[Array] = None
    drift_accumulator: Optional[Array] = None  # a_t


def _flow_fields(sched: StepSchedule, states: Array, last: PathState) -> dict:
    return dict(times=sched.times(), states=states, exploded=~last.alive,
                explosion_step=last.explosion_step,
                domain_exit=last.exit_step <= sched.n_steps, domain_exit_step=last.exit_step)


def record_trajectory(system: VectorFieldSystem, x: Array, dW: Array, sched: StepSchedule,
                      v=None, r_expl: float = DEFAULT_EXPLOSION_RADIUS) -> FlowResult:
    """Step a batch x (B, d), and its tangents v (B, d) when given, through the
    increments dW (n_steps, [B,] m), an array or a :class:`NoiseSource`, and
    record the trajectory: a FlowResult, or a direct-mode
    DerivativeFlowResult when v is given."""
    x = start_points(system, x)
    states = np.empty((sched.n_steps + 1,) + x.shape)
    vs = None if v is None else np.empty(states.shape)
    for s in propagate(Stepper(system, r_expl=r_expl), x, dW, sched.dt, v=v):
        states[s.k] = s.x
        if v is not None:
            vs[s.k] = s.v
    if v is None:
        return FlowResult(**_flow_fields(sched, states, s))
    log_norms = np.log(np.maximum(vec_norm(vs), UNDERFLOW_FLOOR))
    return DerivativeFlowResult(**_flow_fields(sched, states, s), mode="direct", vs=vs,
                                log_norms=log_norms)


def integrate_flow(system: VectorFieldSystem, x0, sched: StepSchedule,
                   driver: BrownianDriver, r_expl: float = DEFAULT_EXPLOSION_RADIUS) -> FlowResult:
    """Integrate the flow from one point or a common-noise batch of points.

    NaN or overflow is reported through the explosion flags, never raised.
    """
    if driver.dim != system.noise_dim:
        raise ContractError("driver dimension does not match system noise dimension")
    members = check_grid("x0", x0)
    return record_trajectory(system, members, driver.increments(sched), sched, r_expl=r_expl)


def integrate_derivative_flow(system: VectorFieldSystem, x0, v0, sched: StepSchedule,
                              driver: BrownianDriver, mode: str = "direct",
                              r_expl: float = DEFAULT_EXPLOSION_RADIUS) -> DerivativeFlowResult:
    """Integrate the coupled pair (x_t, v_t = T_xF_t v0).

    direct mode steps v with the linearized Heun scheme.  log_radial mode
    steps the unit direction u_t and log|v_t| together with the exponential
    representation accumulators M_t, <M, M>_t and a_t; it cannot overflow or
    underflow and agrees with direct mode within discretization tolerance.
    """
    if mode not in ("direct", "log_radial"):
        raise ContractError(f"unknown derivative-flow mode {mode!r}")
    members, vs0 = check_grid("x0", x0), check_grid("v0", v0)
    if vs0.shape != members.shape:
        vs0 = np.broadcast_to(vs0, members.shape).copy()
    dW = driver.increments(sched)
    if mode == "direct":
        return record_trajectory(system, members, dW, sched, v=vs0, r_expl=r_expl)
    start_points(system, members)
    stepper = Stepper(system, r_expl=r_expl)
    B, d = members.shape
    n = sched.n_steps
    states = np.empty((n + 1, B, d))
    n0 = vec_norm(vs0)
    zero_members = n0 == 0.0
    u = np.where(zero_members[:, None], 0.0, vs0 / np.where(n0 == 0.0, 1.0, n0)[:, None])
    L = np.where(zero_members, -np.inf, np.log(np.where(n0 == 0.0, 1.0, n0)))
    logs, Ms, QVs, As = (np.empty((n + 1, B)) for _ in range(4))
    dirs = np.empty((n + 1, B, d))
    M = QV = acc = np.zeros(B)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in propagate(stepper, members, dW, sched.dt, v=u, unit=True):
            if s.k:
                L = np.where(s.alive, L + s.logw, L)
                M = np.where(s.alive, M + dM, M)
                QV = np.where(s.alive, QV + dQV, QV)
                # a_t fills in so that log|v| = log|v0| + M - QV/2 + a holds exactly
                acc = np.where(s.alive, acc + s.logw - dM + 0.5 * dQV, acc)
            states[s.k], logs[s.k], dirs[s.k] = s.x, L, s.v
            Ms[s.k], QVs[s.k], As[s.k] = M, QV, acc
            if s.k == n:
                break
            # left-endpoint Ito accumulators for M and <M, M> over the next step:
            # g_i = <D_u X^i, u>, one per noise column
            g = sum_last(np.swapaxes(stepper.system.column_jacobians(s.x, s.v), -1, -2) * s.v[:, None, :])
            dM = sum_last(g * dW[s.k])
            dQV = sum_last(g * g) * sched.dt
    return DerivativeFlowResult(**_flow_fields(sched, states, s), mode=mode,
                                log_norms=logs, directions=dirs, martingale=Ms,
                                quad_variation=QVs, drift_accumulator=As)


# ----------------------------------------------------------------------
# CSV trajectory dump
# ----------------------------------------------------------------------

def write_trajectory_csv(fh, result, include_v: bool = False) -> None:
    """RFC-4180 dump of a FlowResult, one path id per member.

    Header: path_id, step, time, state components, v components (optional),
    exploded flag.
    """
    import csv

    writer = csv.writer(fh)
    d = result.states.shape[-1]
    head = ["path_id", "step", "time"] + [f"x{i+1}" for i in range(d)]
    if include_v:
        head += [f"v{i+1}" for i in range(d)]
    head.append("exploded")
    writer.writerow(head)
    times = list(map(repr, result.times.tolist()))
    cols = np.concatenate([result.states, result.vs], axis=-1) if include_v else result.states
    for pid in range(result.n_members):
        # the exploded flag is set from the explosion step on
        flagged = result.explosion_step[pid] if result.exploded[pid] else len(times)
        writer.writerows([pid, k, times[k], *map(repr, row), int(k >= flagged)]
                         for k, row in enumerate(cols[:, pid].tolist()))
