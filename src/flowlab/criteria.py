"""The H_p bilinear form in its three incarnations, growth-condition
certification over sampled regions, Lyapunov drift bounds, and the verdict
engine mapping certified bounds to completeness theorems.

A word on semantics: sampling cannot prove a global inequality.  Every
certificate issued here is labeled ``sampled-only`` evidence; "failed" means a
diverging trend or an explicit witness was found on the sample set.

Every condition is evaluated in one broadcast call over a ``SampleSet``: the
points of all radius bands in band order with their tangent directions.  The
per-point quantities the conditions read are entries of a ``SweepSet``, one
per system and request (or ``check_growth`` call), each computed once on the
request's one sample set, which is built when a theorem first needs it.
Per-direction values are reduced to a per-point ratio (the max over kept
directions), then to the per-band maxima, the global maximum and the first
point in band order that attains it up to ``TIE_TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import qmc
from .errors import CapabilityError, ContractError, check_grid, check_ladder, check_real, check_whole
from .geometry import (
    CurvatureData,
    EmbeddedModel,
    FlatModel,
    ManifoldModel,
    PuncturedFlatModel,
    RescaledFlatModel,
    pole_distance,
    second_fundamental_form,
    vec_norm,
)
from .systems import (
    VectorFieldSystem,
    as_ito,
    as_stratonovich,
    effective_drift,
    fd_directional,
    adjoint,
    isometry_defect,
)

Array = np.ndarray

#: ratio growth across the sampled radius range that flags a diverging trend
DIVERGENCE_FACTOR = 4.0

#: smallest worst ratio a diverging trend can have; below this the growth is
#: within the noise/transient band of a bounded condition
MIN_DIVERGENT_RATIO = 0.5

#: ratios this close to a condition's max, relative to max(1, |max|), tie with it
TIE_TOLERANCE = 1e-12

#: default radius sweep for growth certification
DEFAULT_RADII = tuple(np.geomspace(0.5, 1.0e3, 12))

DEFAULT_DIRECTIONS = 32

ISOMETRY_TOL = 1e-6


# ----------------------------------------------------------------------
# deterministic sample sets
# ----------------------------------------------------------------------

def direction_sample(dim: int, n: int) -> Array:
    """n unit directions in R^dim from an unscrambled Sobol set (deterministic).

    Cached by ``(dim, n)``; the array is read-only.  The points come from
    ``flowlab.qmc`` (Joe-Kuo direction numbers, Gray-code order, Cephes
    ndtri), read on the first call for each ``(dim, n)``.  ``ContractError``
    unless dim and n are whole numbers >= 1; ``CapabilityError`` beyond the
    table's 21,201 dimensions.
    """
    check_whole("the dimension", dim)
    check_whole("the number of directions", n)
    if dim > qmc.MAX_DIM:
        raise CapabilityError(f"Sobol directions go up to dimension {qmc.MAX_DIM}, got {dim}")
    return _direction_sample(int(dim), int(n))


@lru_cache(maxsize=None)
def _direction_sample(dim: int, n: int) -> Array:
    m = int(np.ceil(np.log2(2 * n + 8)))
    if m > qmc.BITS:
        raise CapabilityError(f"the Sobol sequence has 2^{qmc.BITS} points, too few for {n} directions")
    pts = qmc.sobol_points(dim, m)[1:]  # drop the all-zeros point
    g = qmc.ndtri(np.clip(pts, 1e-12, 1.0 - 1e-12))
    nz = vec_norm(g) > 1e-9
    g = g[nz][:n]
    out = g / vec_norm(g)[..., None]
    out.setflags(write=False)
    return out


def _directions_at(model: ManifoldModel, x: Array, n: int):
    """Unit tangent directions at every point of x (..., d): the directions
    (..., K, d) and the mask (..., K) of those that survive the tangent
    projection (ambient Sobol directions projected for embedded models)."""
    dirs = direction_sample(model.ambient_dim, n)
    x = np.asarray(x, dtype=float)
    shape = x.shape[:-1] + dirs.shape
    if not isinstance(model, EmbeddedModel):
        return np.broadcast_to(dirs, shape), np.ones(shape[:-1], dtype=bool)
    proj = model.tangent_project(x[..., None, :], dirs)
    norm = vec_norm(proj)
    keep = norm > 1e-8
    return proj / np.where(keep, norm, 1.0)[..., None], keep


def tangent_directions(model: ManifoldModel, x: Array, n: int) -> Array:
    """Unit tangent directions at the point x, shape (k, d); ambient Sobol
    directions projected for embedded models."""
    dirs, keep = _directions_at(model, x, n)
    return dirs[keep]


def sample_states(model: ManifoldModel, radii: Sequence[float], n_dirs: int) -> List[Array]:
    """Sample points grouped by radius band.

    Flat-family models: points r * direction per radius.  Embedded models with
    a radial sampler use it; otherwise the model's generic sampler is used and
    the radius grouping is nominal (compact manifolds).
    """
    if isinstance(model, EmbeddedModel):
        if model.sampler is None:
            raise CapabilityError("embedded model has no point sampler")
        rng = np.random.Generator(np.random.Philox(key=np.array([0x5EED, 0xD1CE], dtype=np.uint64)))
        pts = model.sampler(rng, n_dirs * max(1, len(radii) // 2))
        # nominal single band for compact models; unbounded ones sort by escape
        esc = model.escape_coordinate(pts)
        order = np.argsort(esc, kind="stable")
        pts = pts[order]
        bands = np.array_split(pts, min(len(radii), max(1, len(pts) // n_dirs)))
        return [b for b in bands if len(b)]
    dirs = direction_sample(model.ambient_dim, n_dirs)
    return [np.asarray(r) * dirs for r in radii]


# ----------------------------------------------------------------------
# H_p backends
# ----------------------------------------------------------------------

def _flat_metric(model: ManifoldModel) -> bool:
    """Whether the model carries the flat metric of R^n (punctured or not);
    the rescaled plane is a conformal metric and is not flat."""
    return isinstance(model, FlatModel)


def _column_terms(system: VectorFieldSystem, x: Array, v: Array, directional: bool = True):
    """(hs, qdir): sum_i |grad X^i(v)|^2 and sum_i <grad X^i(v), v>^2 (None
    unless directional), the ambient derivative projected onto the tangent
    space for embedded models.  A constant diffusion gives exact zeros of the
    batch shape and forms no (..., dim, m) stack of column jacobians."""
    if system.constant_diffusion:
        zero = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(v))[:-1])
        return zero, zero
    J = as_stratonovich(system).column_jacobians(x, v)
    model = system.model
    if isinstance(model, EmbeddedModel):
        J = np.stack([model.tangent_project(x, J[..., i]) for i in range(J.shape[-1])], axis=-1)
    hs = np.sum(J * J, axis=(-2, -1))
    if not directional:
        return hs, None
    inner = np.einsum("...im,...i->...m", J, v)
    return hs, np.sum(inner * inner, axis=-1)


def _z_field(system: VectorFieldSystem):
    """The Brownian-with-drift field Z = A^X and its directional derivative."""
    if system.z_drift is not None and system.z_drift_jacobian is not None:
        return system.z_drift, system.z_drift_jacobian
    z = effective_drift(system).a_x
    return z, partial(fd_directional, z)


def _grad_z_quad(system: VectorFieldSystem, x: Array, v: Array) -> Array:
    z, zjac = _z_field(system)
    dz = system.model.tangent_project(x, np.asarray(zjac(x, v), dtype=float))
    return np.sum(dz * v, axis=-1)


def _ricci_fn(model: ManifoldModel, curvature: Optional[CurvatureData]):
    """Ric(v, v) from the curvature data, else the model's own (or None)."""
    return getattr(curvature, "ricci", None) or model.ricci


def _gauss(system: VectorFieldSystem, x, v, p, nv2, curvature) -> Array:
    model = system.model
    avv = second_fundamental_form(model, x, v, v)
    # alpha(v, .) = -<D_v nu, .> nu, so |alpha(v, .)|_HS^2 = |P D_v nu|^2
    a_v = model.tangent_project(x, model.dnormal(x, v))
    return (-np.sum(avv * model.mean_curvature(x), axis=-1) + 2.0 * np.sum(a_v * a_v, axis=-1)
            + (p - 2.0) * np.sum(avv * avv, axis=-1) / nv2
            + 2.0 * _grad_z_quad(system, x, v))


def _euclidean(system: VectorFieldSystem, x, v, p, nv2, curvature) -> Array:
    da = np.asarray(as_ito(system).drift_jacobian(x, v), dtype=float)
    hs, qdir = _column_terms(system, x, v)
    return 2.0 * np.sum(da * v, axis=-1) + (hs + (p - 2.0) * qdir / nv2)


def _ricci(system: VectorFieldSystem, x, v, p, nv2, curvature) -> Array:
    defect = np.max(isometry_defect(system, x))
    if defect > ISOMETRY_TOL:
        raise CapabilityError(f"system is not isometric at x (defect {defect:.2e})")
    hs, qdir = _column_terms(system, x, v)
    ric = _ricci_fn(system.model, curvature)
    return (2.0 * _grad_z_quad(system, x, v) - np.asarray(ric(x, v), dtype=float)
            + (hs + (p - 2.0) * qdir / nv2))


#: H_p backend name -> (why_not(system, curvature): the reason it does not
#: apply, or None; evaluate(system, x, v, p, |v|^2, curvature)), in the order
#: ``auto`` tries them
_HP_BACKENDS = {
    "gauss": (lambda s, c: None if isinstance(s.model, EmbeddedModel) and s.is_gradient
              else "gauss backend needs a gradient Brownian system of an embedding", _gauss),
    "euclidean": (lambda s, c: None if _flat_metric(s.model)
                  else "euclidean backend needs a flat model", _euclidean),
    "ricci": (lambda s, c: None if _ricci_fn(s.model, c) is not None
              else "ricci backend needs Ricci curvature data", _ricci),
}


def eval_Hp(system: VectorFieldSystem, x, v, p: float, backend: str = "auto",
            curvature: Optional[CurvatureData] = None):
    """H_p(x)(v, v), the bilinear form driving d|v_t|^p.

    x and v broadcast over leading axes (one pair per leading index); a single
    pair gives a float, a batch an array of the leading shape.

    Backends, in the order ``auto`` tries them (it takes the first that
    applies, and checks none after it):
      * ``gauss`` (embedded gradient systems): -<alpha(v,v), trace alpha>
        + 2|alpha(v,.)|_HS^2 + (p-2)|alpha(v,v)|^2/|v|^2 + 2<grad Z v, v>.
      * ``euclidean`` (flat models): 2<DA v, v> + sum|DX^i v|^2
        + (p-2) sum <DX^i v, v>^2 / |v|^2 with the Ito-form drift A.
      * ``ricci`` (isometric X^*X = Id systems with Ricci data):
        2<grad Z v, v> - Ric(v,v) + sum|grad X^i v|^2 + (p-2) q.

    ``CapabilityError`` names the reason a named backend does not apply, or
    every backend's reason when none applies to ``auto``.  A constant
    diffusion's column terms are exact zeros, formed without its jacobians.
    """
    check_real("p", p)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv2 = np.sum(v * v, axis=-1)
    if np.any(nv2 == 0.0):
        raise ContractError("H_p is evaluated at v != 0")
    reasons = []
    for name in _HP_BACKENDS if backend == "auto" else (backend,):
        if name not in _HP_BACKENDS:
            raise CapabilityError(f"unknown H_p backend {name!r}")
        why_not, evaluate = _HP_BACKENDS[name]
        reason = why_not(system, curvature)
        if reason is None:
            h = evaluate(system, x, v, p, nv2, curvature)
            return float(h) if np.ndim(h) == 0 else h
        reasons.append(reason)
    raise CapabilityError("; ".join(reasons))


def eval_Htilde(system: VectorFieldSystem, x, v, backend: str = "auto",
                curvature: Optional[CurvatureData] = None):
    """The variant form with coefficient -2 on the directional term: the
    member of the affine family H_p at p = 0."""
    return eval_Hp(system, x, v, 0.0, backend=backend, curvature=curvature)


@dataclass
class HpReport:
    backend: str
    p: float
    points: List[list]
    values: List[float]
    max_ratio: Optional[float]
    disagreement: Optional[float] = None
    reason: Optional[str] = None     # why the backend does not apply

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k != "reason" or v is not None}


def hp_report(system: VectorFieldSystem, samples, p: float,
              backends: Sequence[str] = ("auto",),
              curvature: Optional[CurvatureData] = None) -> List[HpReport]:
    """Evaluate H_p over (x, v) samples per backend and record the worst ratio
    H_p(v, v)/|v|^2.  A backend that does not apply (``CapabilityError``) is
    reported with no values and its reason, as ``certify`` reports a theorem
    not-applicable; when two or more backends apply their max disagreement is
    reported on each of them."""
    check_real("p", p)
    xs = np.array([np.ravel(x) for x, _ in samples], dtype=float)
    vs = np.array([np.ravel(v) for _, v in samples], dtype=float)
    for b in backends:   # a misspelt name is malformed input, not a backend that does not apply
        if b != "auto" and b not in _HP_BACKENDS:
            raise CapabilityError(f"unknown H_p backend {b!r}")
    reports, tables = [], []
    for b in backends:
        try:
            vals = eval_Hp(system, xs, vs, p, backend=b, curvature=curvature)
        except CapabilityError as exc:
            reports.append(HpReport(backend=b, p=p, points=xs.tolist(), values=[],
                                    max_ratio=None, reason=str(exc)))
            continue
        tables.append(vals)
        reports.append(HpReport(backend=b, p=p, points=xs.tolist(), values=vals.tolist(),
                                max_ratio=float(np.max(vals / np.sum(vs * vs, axis=-1)))))
    if len(tables) >= 2:
        arr = np.array(tables)
        dis = float(np.max(np.abs(arr - arr[0])))
        for r in reports:
            r.disagreement = dis if r.reason is None else None
    return reports


# ----------------------------------------------------------------------
# growth certification
# ----------------------------------------------------------------------

@dataclass
class ConditionCheck:
    name: str
    constant: float            # minimal c certifying the inequality on the samples
    worst_ratio: float
    worst_point: list
    diverging: bool
    band_ratios: List[float]   # max ratio per radius band

    def to_dict(self):
        return dict(vars(self))


@dataclass
class GrowthProfile:
    kind: str
    conditions: List[ConditionCheck]
    radii: List[float]
    n_directions: int
    status: str = "sampled-only"

    def ok(self) -> bool:
        return all(not c.diverging and np.isfinite(c.worst_ratio) for c in self.conditions)

    def to_dict(self):
        return {"kind": self.kind, "status": self.status, "radii": self.radii,
                "n_directions": self.n_directions,
                "conditions": [c.to_dict() for c in self.conditions]}


@dataclass(frozen=True)
class SampleSet:
    """The points of all radius bands in band order, x (N, d), their unit
    tangent directions (N, K, d) and the mask keep (N, K) of directions that
    survived the tangent projection; band b starts at point starts[b]."""

    x: Array
    dirs: Array
    keep: Array
    starts: Array

    @classmethod
    def build(cls, model: ManifoldModel, radii: Sequence[float], n_directions: int) -> "SampleSet":
        """The sample set of a model on a radius ladder; ``ContractError``
        unless the ladder is nonempty, finite, > 0 and strictly increasing."""
        bands = sample_states(model, check_ladder("radii", radii, low=0.0), n_directions)
        if not bands:
            raise ContractError("the sample set is empty: the model's sampler gave no points")
        x = np.concatenate(bands)
        dirs, keep = _directions_at(model, x, n_directions)
        bare = ~keep.any(axis=-1)
        if np.any(bare):
            raise ContractError("no tangent direction survives the projection at sample point "
                                f"{x[np.argmax(bare)].tolist()}")
        starts = np.cumsum([0] + [len(b) for b in bands[:-1]])
        for a in (x, keep):     # shared by every theorem of a request
            a.setflags(write=False)
        return cls(x=x, dirs=dirs, keep=keep, starts=starts)

    def sup_dirs(self, fn: Callable[[Array, Array], Array]) -> Array:
        """Per point, the max of fn(x, v) over its kept directions, fn called
        once on all (point, direction) pairs.  A non-finite value in any kept
        direction makes the point's value +inf."""
        i, k = np.nonzero(self.keep)
        vals = np.broadcast_to(np.asarray(fn(self.x[i], self.dirs[i, k]), dtype=float), i.shape)
        out = np.full(self.keep.shape, -np.inf)
        out[i, k] = np.where(np.isfinite(vals), vals, np.inf)
        return out.max(axis=-1)

    def condition(self, name: str, ratio: Array) -> ConditionCheck:
        """Reduce per-point ratios (non-finite read as +inf) to a check: the
        band maxima, the global maximum and, as its point, the first in band
        order within ``TIE_TOLERANCE * max(1, |max|)`` of it, so that exact
        ties do not hang on last-bit rounding."""
        r = np.broadcast_to(np.asarray(ratio, dtype=float), self.x.shape[:1])
        r = np.where(np.isfinite(r), r, np.inf)
        band_ratios = np.maximum.reduceat(r, self.starts).tolist()
        worst = float(r.max())
        tol = TIE_TOLERANCE * max(1.0, abs(worst)) if np.isfinite(worst) else 0.0
        i = int(np.argmax(r >= worst - tol))
        top, bottom = band_ratios[-1], band_ratios[0]
        # a diverging trend: the far band holds the global max, dwarfs the near
        # band, and is large in absolute terms (sign-crossing transients and
        # finite-difference noise live below MIN_DIVERGENT_RATIO)
        diverging = (not np.isfinite(worst)) or (
            top > MIN_DIVERGENT_RATIO and top >= worst
            and top > DIVERGENCE_FACTOR * max(bottom, 1e-6)
        )
        return ConditionCheck(name=name, constant=worst, worst_ratio=worst,
                              worst_point=self.x[i].tolist(), diverging=bool(diverging),
                              band_ratios=band_ratios)


def _flat_ito(system: VectorFieldSystem) -> VectorFieldSystem:
    return system if isinstance(system.model, EmbeddedModel) else as_ito(system)


def _has_r_term(system: VectorFieldSystem, curvature: Optional[CurvatureData]) -> bool:
    return _flat_metric(system.model) or _ricci_fn(system.model, curvature) is not None


class SweepSet:
    """The per-point quantities of one system on one request's sample set
    ``S`` (built on first read); each entry is evaluated when first read and
    kept while the object lives, and one that raises is not kept.  Sups over
    directions: ``grad_x_sq`` sum_i |grad X^i(v)|^2, ``grad_z`` <grad_v Z, v>,
    ``drift_quad`` <DA v, v>, ``hp(p)`` H_p(v, v), ``drift_curvature``
    2<grad_v A^X, v> + sum_i <R(X^i, v)X^i, v> (0 on flat models, -Ric(v, v)
    on isometric ones).  Per point: ``coeff_sq`` sum_i |X^i|^2, ``drift_radial``
    <x, A>, ``r2`` |x|^2, ``pole`` (r, dr, Hessian bound), ``z_radial`` <dr, Z>.
    An adjoint's set (:meth:`adjoint`) reads the sample set and the
    diffusion-only entries ``grad_x_sq`` and ``coeff_sq`` of its forward set."""

    def __init__(self, system: VectorFieldSystem, config: "CertifyConfig"):
        self.system, self.config = system, config
        self.curvature = config.curvature or CurvatureData()
        self._samples = cache(lambda: SampleSet.build(system.model, config.radii, config.n_directions))
        self._forward: Optional[SweepSet] = None
        self._hp: Dict[float, Array] = {}

    @property
    def S(self) -> SampleSet:
        return self._samples()

    def adjoint(self) -> "SweepSet":
        """The adjoint system's sweep set; ``systems.adjoint`` keeps the
        diffusion, so its diffusion-only entries are this set's."""
        out = SweepSet(adjoint(self.system), self.config)
        out._samples, out._forward = self._samples, self
        return out

    @cached_property
    def grad_x_sq(self) -> Array:
        if self._forward:
            return self._forward.grad_x_sq
        return self.S.sup_dirs(lambda x, v: _column_terms(self.system, x, v, directional=False)[0])

    @cached_property
    def grad_z(self) -> Array:
        return self.S.sup_dirs(partial(_grad_z_quad, self.system))

    @cached_property
    def drift_quad(self) -> Array:
        S, s = self.S, _flat_ito(self.system)
        return S.sup_dirs(lambda x, v: np.sum(s.drift_jacobian(x, v) * v, axis=-1))

    @cached_property
    def drift_radial(self) -> Array:
        x = self.S.x
        return np.sum(x * _flat_ito(self.system).drift(x), axis=-1)

    @cached_property
    def coeff_sq(self) -> Array:
        if self._forward:
            return self._forward.coeff_sq
        B = as_stratonovich(self.system).diffusion_columns(self.S.x)
        return np.sum(B * B, axis=(-2, -1))

    @cached_property
    def r2(self) -> Array:
        return np.sum(self.S.x * self.S.x, axis=-1)

    @cached_property
    def pole(self):
        return pole_distance(self.system.model, self.curvature, self.S.x)

    @cached_property
    def z_radial(self) -> Array:
        z, _ = _z_field(self.system)
        return np.sum(self.pole[1] * z(self.S.x), axis=-1)

    @cached_property
    def drift_curvature(self) -> Array:
        system, S = self.system, self.S
        ric = None if _flat_metric(system.model) else _ricci_fn(system.model, self.curvature)
        if ric is not None and np.any(isometry_defect(system, S.x) > ISOMETRY_TOL):
            raise CapabilityError("curvature rewriting needs an isometric system")
        return S.sup_dirs(lambda x, v: 2.0 * _grad_z_quad(system, x, v)
                          + (0.0 if ric is None else -np.asarray(ric(x, v), dtype=float)))

    def hp(self, p: float) -> Array:
        if p not in self._hp:
            self._hp[p] = self.S.sup_dirs(partial(eval_Hp, self.system, p=p, curvature=self.curvature))
        return self._hp[p]


def _linear_growth(sw: SweepSet) -> List[ConditionCheck]:
    return [
        sw.S.condition("coeff_linear_growth", np.sqrt(sw.coeff_sq) / np.sqrt(1.0 + sw.r2)),
        sw.S.condition("drift_radial_growth", sw.drift_radial / (1.0 + sw.r2)),
    ]


def _sublog_derivative(sw: SweepSet) -> List[ConditionCheck]:
    env = 1.0 + np.log1p(sw.r2)
    return [
        sw.S.condition("grad_X_sq_sublog", sw.grad_x_sq / env),
        sw.S.condition("grad_A_sublog", sw.drift_quad / env),
    ]


def _epsilon_exponent(sw: SweepSet) -> List[ConditionCheck]:
    S, eps, r2 = sw.S, sw.config.epsilon, sw.r2
    cols = np.max(vec_norm(as_stratonovich(sw.system).diffusion_columns(S.x), axis=-2), axis=-1)
    return [
        S.condition("coeff_columns_growth", cols / (1.0 + r2) ** (0.5 - eps)),
        S.condition("drift_radial_growth", sw.drift_radial / (1.0 + r2) ** (1.0 - eps)),
        S.condition("column_jacobian_growth", sw.grad_x_sq / (1.0 + r2) ** eps),
        S.condition("grad_A_growth", sw.drift_quad / (1.0 + r2) ** eps),
    ]


def _pole_conditions(sw: SweepSet) -> List[ConditionCheck]:
    S = sw.S
    z_radial, (r, _, hess) = sw.z_radial, sw.pole     # Z is formed before the pole distance
    sublog = 1.0 + np.log1p(r)
    conds = [
        S.condition("coeff_vs_hessian_bound", sw.coeff_sq * hess / (1.0 + r)),
        S.condition("effective_drift_radial", z_radial / (1.0 + r)),
        S.condition("grad_X_sq_sublog_r", sw.grad_x_sq / sublog),
    ]
    if _has_r_term(sw.system, sw.curvature):
        conds.append(S.condition("drift_curvature_sublog_r", sw.drift_curvature / sublog))
    return conds


def _h_bound(sw: SweepSet, p: float) -> List[ConditionCheck]:
    return [sw.S.condition(f"H_{p:g}_upper_bound", sw.hp(p))]


#: kind -> conditions(sweep set), p and epsilon read from the set's config
_GROWTH_KINDS = {
    "linear_growth": _linear_growth,
    "sublog_derivative": _sublog_derivative,
    "epsilon_exponent": _epsilon_exponent,
    "pole_conditions": _pole_conditions,
    "h_bound": lambda sw: _h_bound(sw, sw.config.p),
}


def check_growth(system: VectorFieldSystem, kind: str,
                 radii: Sequence[float] = DEFAULT_RADII,
                 n_directions: int = DEFAULT_DIRECTIONS,
                 epsilon: float = 0.5, p: float = 1.0,
                 curvature: Optional[CurvatureData] = None) -> GrowthProfile:
    """Certify a growth-condition family on a sampled region.

    kinds: ``linear_growth`` (|X| and <x, A> against (1+|x|^2) envelopes),
    ``sublog_derivative`` (derivative envelopes 1 + ln(1+|x|^2)),
    ``epsilon_exponent`` (the relaxed-exponent family), ``pole_conditions``
    (radial envelopes with the Hessian comparison bound) and ``h_bound``
    (sup H_p / |v|^2).  The verdict is evidence on samples, never a proof.
    """
    if kind not in _GROWTH_KINDS:
        raise ContractError(f"unknown growth profile kind {kind!r}")
    check_whole("n_directions", n_directions)
    check_real("epsilon", epsilon)
    check_real("p", p)
    radii = check_ladder("radii", radii, low=0.0)
    conds = _GROWTH_KINDS[kind](SweepSet(system, CertifyConfig(
        theorems=(), p=p, epsilon=epsilon, radii=radii, n_directions=n_directions, curvature=curvature)))
    return GrowthProfile(kind=kind, conditions=conds, radii=radii,
                         n_directions=n_directions)


# ----------------------------------------------------------------------
# Lyapunov drift bound (the exponential-moment lemma)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """C^2 scalar function with gradient and Hessian oracles."""

    value: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    hessian: Callable[[Array], Array]


def scalar_field(value, grad=None, hessian=None) -> ScalarField:
    """Wrap a scalar function, filling in derivatives by central differences.

    The filled-in derivatives take a point (d,) or a batch (..., d); each
    point steps by its own h along every axis."""
    if grad is None:
        def grad(x, _f=value):
            x = np.asarray(x, dtype=float)
            h = 1e-5 * (1.0 + vec_norm(x))
            out = np.empty_like(x)
            for i in range(x.shape[-1]):
                e = np.zeros(x.shape[-1])
                e[i] = 1.0
                out[..., i] = (_f(x + h[..., None] * e) - _f(x - h[..., None] * e)) / (2.0 * h)
            return out
    if hessian is None:
        def hessian(x, _g=grad):
            x = np.asarray(x, dtype=float)
            d = x.shape[-1]
            h = 1e-5 * (1.0 + vec_norm(x))[..., None]
            out = np.empty(x.shape[:-1] + (d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = 1.0
                out[..., :, i] = (_g(x + h * e) - _g(x - h * e)) / (2.0 * h)
            return 0.5 * (out + np.swapaxes(out, -1, -2))
    return ScalarField(value=value, grad=grad, hessian=hessian)


@dataclass
class LyapunovBound:
    k: float
    witness_point: list
    n_samples: int

    def certificate(self, c: float, g0: float, t: float) -> float:
        """Upper bound exp(c (g(x0) + k t)) for E exp(c g(x_{t ^ tau}))."""
        return float(np.exp(c * (g0 + self.k * t)))


def lyapunov_drift_bound(system: VectorFieldSystem, g: ScalarField, points) -> LyapunovBound:
    """k = sup over samples of 1/2 sum |Dg(X^i)|^2 + 1/2 sum D^2g(X^i, X^i) + Dg(A)
    with the Ito-form drift; finite k certifies E e^{c g(x_{t^tau})} <= e^{c(g(x0)+kt)}."""
    if isinstance(system.model, EmbeddedModel):
        raise CapabilityError("the drift bound is computed in flat coordinates")
    pts = check_grid("points", points, system.dim)
    s = as_ito(system)
    best, best_x = -np.inf, None
    for x in pts:
        x = np.asarray(x, dtype=float)
        dg = np.asarray(g.grad(x), dtype=float)
        H = np.asarray(g.hessian(x), dtype=float)
        B = s.diffusion_columns(x)
        val = float(np.sum(dg * s.drift(x)))
        for i in range(s.noise_dim):
            xi = B[..., i]
            val += 0.5 * float(np.sum(dg * xi)) ** 2
            val += 0.5 * float(xi @ H @ xi)
        if val > best:
            best, best_x = val, x
    return LyapunovBound(k=float(best), witness_point=[float(c) for c in np.ravel(best_x)],
                         n_samples=len(pts))


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------

@dataclass
class TheoremVerdict:
    theorem: str
    status: str                      # certified | failed | not-applicable
    conditions: List[dict] = field(default_factory=list)
    constants: Dict[str, float] = field(default_factory=dict)
    failing_sample: Optional[list] = None
    reason: Optional[str] = None

    def to_dict(self):    # failing_sample and reason only when set
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass
class VerdictReport:
    entries: List[TheoremVerdict]
    basis: str = "sampled-only"

    def status_of(self, theorem: str) -> str:
        return next((e.status for e in self.entries if e.theorem == theorem), "not-applicable")

    def to_dict(self):
        return {"basis": self.basis, "entries": [e.to_dict() for e in self.entries]}


@dataclass
class CertifyConfig:
    theorems: Sequence[str] = ("Cor5.2", "Thm5.3", "Thm6.2", "Thm8.1", "Cor8.3")
    p: float = 1.0
    epsilon: float = 0.5
    radii: Sequence[float] = DEFAULT_RADII
    n_directions: int = DEFAULT_DIRECTIONS
    curvature: Optional[CurvatureData] = None


def _verdict(theorem: str, conds: Sequence[ConditionCheck]) -> TheoremVerdict:
    bad = [c for c in conds if c.diverging or not np.isfinite(c.worst_ratio)]
    return TheoremVerdict(
        theorem=theorem, status="failed" if bad else "certified",
        conditions=[c.to_dict() for c in conds],
        constants={c.name: c.constant for c in conds if np.isfinite(c.constant)},
        failing_sample=bad[0].worst_point if bad else None,
    )


def _na(theorem: str, reason: str) -> TheoremVerdict:
    return TheoremVerdict(theorem=theorem, status="not-applicable", reason=reason)


def certify(system: VectorFieldSystem, config: CertifyConfig = CertifyConfig()) -> VerdictReport:
    """Evaluate the hypotheses of the requested theorems on sampled regions and
    record per-theorem verdicts with witnesses.

    Punctured models are metrically incomplete, so completeness theorems are
    not applicable there; the rescaled metric carries no connection, so the
    derivative-form conditions are not applicable either.  Theorem ids are read
    one at a time (a bare string is a ``ContractError``).
    """
    if isinstance(config.theorems, str):
        raise ContractError(f"theorems is a sequence of theorem ids, got the string {config.theorems!r}")
    check_whole("n_directions", config.n_directions)
    check_real("epsilon", config.epsilon)
    check_real("p", config.p)
    check_ladder("radii", config.radii, low=0.0)
    model = system.model
    sweeps = SweepSet(system, config)
    entries: List[TheoremVerdict] = []
    for theorem in config.theorems:
        handler = _HANDLERS.get(theorem)
        if isinstance(model, PuncturedFlatModel):
            entries.append(_na(theorem, "underlying metric space is incomplete (puncture)"))
        elif isinstance(model, RescaledFlatModel):
            entries.append(_na(theorem, "rescaled metric has no connection attached"))
        elif handler is None:
            entries.append(_na(theorem, "unknown theorem id"))
        else:
            try:
                entries.append(handler(sweeps))
            except CapabilityError as exc:
                entries.append(_na(theorem, str(exc)))
    return VerdictReport(entries=entries)


def _certify_cor52(sw: SweepSet) -> TheoremVerdict:
    if not _has_r_term(sw.system, sw.curvature):
        return _na("Cor5.2", "curvature term unavailable (need flat model or Ricci data)")
    S = sw.S
    return _verdict("Cor5.2", [
        S.condition("grad_X_bounded", np.sqrt(sw.grad_x_sq)),
        S.condition("drift_curvature_upper_bound", sw.drift_curvature),
    ])


def _certify_thm51(sw: SweepSet) -> TheoremVerdict:
    """Constant-f instance: find c with |grad X|^2 <= c and H_p <= 6 p c on samples.

    With f = c constant, the exponential-functional hypothesis holds
    automatically, so the certificate reduces to the two pointwise bounds.
    """
    S, p = sw.S, sw.config.p
    cond_g = S.condition("grad_X_sq_bounded", sw.grad_x_sq)
    cond_h = S.condition("H_p_over_6p", sw.hp(p) / (6.0 * p))
    verdict = _verdict("Thm5.1", [cond_g, cond_h])
    if verdict.status == "certified":
        verdict.constants["f_constant"] = max(cond_g.constant, cond_h.constant, 0.0)
    return verdict


def _certify_thm62(sw: SweepSet) -> TheoremVerdict:
    if not _flat_metric(sw.system.model):
        return _na("Thm6.2", "stated for flat space")
    return _verdict("Thm6.2", _linear_growth(sw) + _sublog_derivative(sw))


def _certify_cor63(sw: SweepSet) -> TheoremVerdict:
    if not _flat_metric(sw.system.model):
        return _na("Cor6.3", "stated for flat space")
    return _verdict("Cor6.3", _epsilon_exponent(sw))


def _certify_thm71(sw: SweepSet) -> TheoremVerdict:
    if sw.system.model.distance_to_pole(sw.curvature) is None:
        return _na("Thm7.1", "no pole data available")
    return _verdict("Thm7.1", _pole_conditions(sw))


def _certify_prop72(sw: SweepSet) -> TheoremVerdict:
    if sw.system.model.distance_to_pole(sw.curvature) is None:
        return _na("Prop7.2", "no pole data available")
    S, eps = sw.S, sw.config.epsilon
    r, _, hess = sw.pole
    return _verdict("Prop7.2", [
        S.condition("coeff_vs_hessian_bound_eps", sw.coeff_sq * hess / (1.0 + r) ** (2.0 - eps)),
        S.condition("grad_X_sq_growth_eps", sw.grad_x_sq / (1.0 + r) ** eps),
        S.condition("effective_drift_radial_eps", sw.z_radial / (1.0 + r) ** (2.0 - eps)),
        S.condition("H_p_growth_eps", sw.hp(sw.config.p) / (1.0 + r) ** eps),
    ])


def _is_brownian(system: VectorFieldSystem, S: SampleSet) -> bool:
    """X^*X = Id, probed at the first sample point."""
    return isometry_defect(system, S.x[0]) <= ISOMETRY_TOL


def _certify_thm81(sw: SweepSet) -> TheoremVerdict:
    ric = _ricci_fn(sw.system.model, sw.curvature)
    if ric is None:
        return _na("Thm8.1", "Ricci curvature data unavailable")
    S = sw.S
    if not _is_brownian(sw.system, S):
        return _na("Thm8.1", "system is not a Brownian system (X^*X != Id)")
    return _verdict("Thm8.1", [
        S.condition("grad_X_bounded", np.sqrt(sw.grad_x_sq)),
        S.condition("gradZ_minus_half_ric_upper", S.sup_dirs(
            lambda x, v: _grad_z_quad(sw.system, x, v) - 0.5 * np.asarray(ric(x, v), dtype=float))),
    ])


def _certify_thm82(sw: SweepSet) -> TheoremVerdict:
    ric = _ricci_fn(sw.system.model, sw.curvature)
    if ric is None or sw.system.model.distance_to_pole(sw.curvature) is None:
        return _na("Thm8.2", "needs Ricci data and a pole configuration (cut locus avoided)")
    S = sw.S
    if not _is_brownian(sw.system, S):
        return _na("Thm8.2", "system is not a Brownian system (X^*X != Id)")
    z_radial, r = sw.z_radial, sw.pole[0]     # Z is formed before the pole distance
    sublog = 1.0 + np.log1p(r)
    return _verdict("Thm8.2", [
        S.condition("ric_quadratic_lower",
                    S.sup_dirs(lambda x, v: -np.asarray(ric(x, v), dtype=float)) / (1.0 + r ** 2)),
        S.condition("drift_radial", z_radial / (1.0 + r)),
        S.condition("grad_X_sq_sublog_r", sw.grad_x_sq / sublog),
        S.condition("two_gradZ_minus_ric_sublog_r", S.sup_dirs(
            lambda x, v: 2.0 * _grad_z_quad(sw.system, x, v) - np.asarray(ric(x, v), dtype=float))
            / sublog),
    ])


def _certify_cor83(sw: SweepSet) -> TheoremVerdict:
    if not (isinstance(sw.system.model, EmbeddedModel) and sw.system.is_gradient):
        return _na("Cor8.3", "stated for gradient Brownian systems of embeddings")
    S = sw.S
    z, _ = _z_field(sw.system)
    # ambient distance to the first sample stands in for the intrinsic one (lower bound)
    r = vec_norm(S.x - S.x[0])
    sublog = 1.0 + np.log1p(r)
    verdict = _verdict("Cor8.3", [
        # |grad X(v)|^2 = |alpha(v, .)|_HS^2 for gradient systems
        S.condition("sff_sq_sublog", sw.grad_x_sq / sublog),
        S.condition("drift_radial", vec_norm(z(S.x)) / (1.0 + r)),
        S.condition("gradZ_sublog", sw.grad_z / sublog),
    ])
    if verdict.status == "certified":
        # the adjoint of a gradient Brownian system is gradient Brownian with -Z
        verdict.constants["diffeomorphism"] = 1.0
    return verdict


def _certify_diffeo(sw: SweepSet) -> TheoremVerdict:
    """Flow-of-diffeomorphisms verdict: a strong-completeness certificate must
    hold for the system and for its adjoint."""
    if sw.system.is_gradient:
        route = "Cor8.3"
    elif _flat_metric(sw.system.model):
        route = "Cor5.2"
    else:
        route = "Thm8.1"
    handler = _HANDLERS[route]
    fwd = handler(sw)
    bwd = handler(sw.adjoint())
    if fwd.status == "not-applicable" or bwd.status == "not-applicable":
        return _na("Diffeo", f"route {route} not applicable")
    status = "certified" if fwd.status == bwd.status == "certified" else "failed"
    out = TheoremVerdict(theorem="Diffeo", status=status,
                         conditions=[{"forward": fwd.to_dict(), "adjoint": bwd.to_dict()}],
                         constants={})
    if status == "failed":
        bad = fwd if fwd.status == "failed" else bwd
        out.failing_sample = bad.failing_sample
    return out


#: theorem id -> handler(sweeps) -> TheoremVerdict, where sweeps is the
#: request's SweepSet of the system
_HANDLERS: Dict[str, Callable[..., TheoremVerdict]] = {
    "Cor5.2": _certify_cor52,
    "Thm5.1": _certify_thm51,
    "Thm5.3": lambda sw: _verdict("Thm5.3", _h_bound(sw, 1.0)),
    "Thm6.2": _certify_thm62,
    "Cor6.3": _certify_cor63,
    "Thm7.1": _certify_thm71,
    "Prop7.2": _certify_prop72,
    "Thm8.1": _certify_thm81,
    "Thm8.2": _certify_thm82,
    "Cor8.3": _certify_cor83,
    "Diffeo": _certify_diffeo,
}
