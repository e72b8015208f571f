"""Geometric backends: flat space, punctured and rescaled variants, isometric
embeddings.

Everything else in the library talks to a ``ManifoldModel``: the integrator
asks for retractions and escape coordinates, the bilinear forms ask for
projections, second fundamental forms and Ricci data, the estimators ask for
metric norms.  Models are immutable after construction and safe to read from
any number of workers.

State arrays follow the broadcasting convention used across flowlab: the last
axis is the ambient coordinate axis, leading axes are batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ContractError, DomainError, SingularPointError

Array = np.ndarray

#: tangency tolerance for contract checks: 1e-8 * (1 + |v|)
TANGENCY_TOL = 1e-8


def sum_last(p: Array) -> Array:
    """``np.sum(p, axis=-1)`` bit for bit: on float axes shorter than 8 numpy
    adds left to right from +0.0, done here with one ufunc call per component
    instead of a reduction loop per row."""
    p = np.asarray(p)
    n = p.shape[-1]
    if p.dtype.kind != "f" or not 0 < n < 8:
        return np.sum(p, axis=-1)
    acc = p[..., 0] + 0.0
    for i in range(1, n):
        acc += p[..., i]
    return acc[()]


def vec_norm(x: Array, axis: int = -1) -> Array:
    sq = np.square(x)
    return np.sqrt(sum_last(sq if axis == -1 else np.moveaxis(sq, axis, -1)))


def coth(z):
    return 1.0 / np.tanh(z)


@dataclass(frozen=True)
class CurvatureData:
    """Curvature inputs for radial estimates and the Ricci form.

    ``ricci(x, v)`` returns Ric_x(v, v).  ``sectional_lower_bound`` is the
    nondecreasing function L with L >= 1 such that sectional curvatures are
    bounded below by -L(r)^2; it defaults to the constant 1.  ``pole`` is the
    base point of the distance function r when one exists.
    """

    ricci: Optional[Callable[[Array, Array], Array]] = None
    sectional_lower_bound: Optional[Callable[[Array], Array]] = None
    pole: Optional[Array] = None

    def lower_bound_fn(self) -> Callable[[Array], Array]:
        if self.sectional_lower_bound is None:
            return lambda r: np.ones_like(np.asarray(r, dtype=float))
        return self.sectional_lower_bound


class ManifoldModel:
    """Base class; concrete models override the geometric primitives.  The
    defaults are the flat family's: identity projection and retraction (each
    returns its float64 input array itself), the coordinate frame, no Ricci
    data (x, v) -> Ric_x(v, v) and no sampler (rng, k) -> k points."""

    kind = "abstract"
    ricci: Optional[Callable[[Array, Array], Array]] = None
    sampler: Optional[Callable[[np.random.Generator, int], Array]] = None

    def __init__(self, ambient_dim: int, intrinsic_dim: int):
        if intrinsic_dim > ambient_dim or intrinsic_dim <= 0:
            raise ContractError("need 0 < intrinsic_dim <= ambient_dim")
        self.ambient_dim = int(ambient_dim)
        self.intrinsic_dim = int(intrinsic_dim)

    # -- admissibility ------------------------------------------------
    def admissible(self, x: Array) -> Array:
        """Boolean mask of states inside the model's domain: finite, and
        inside the model's own exclusions (:meth:`in_domain`)."""
        x = np.asarray(x, dtype=float)
        return np.isfinite(x).all(axis=-1) & self.in_domain(x)

    def in_domain(self, x: Array) -> Array:
        """Mask of finite states kept by the model's exclusions (puncture
        balls, charts), broadcasting against x's batch shape."""
        return np.True_

    def check_admissible(self, x: Array) -> None:
        ok = self.admissible(x)
        if not np.all(ok):
            raise DomainError(f"state outside admissible set of {self.kind} model")

    # -- metric and tangent structure ---------------------------------
    def metric_norm(self, x: Array, v: Array) -> Array:
        return vec_norm(np.asarray(v, dtype=float))

    def log_metric_factor(self, x: Array) -> Array:
        """log of the conformal factor w(x) with |v|_x = w(x)|v|; 0 for isometric models."""
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def tangent_project(self, x: Array, u: Array) -> Array:
        return np.asarray(u, dtype=float)

    def retract(self, x: Array) -> Array:
        return np.asarray(x, dtype=float)

    def tangent_frame(self, x: Array) -> Array:
        """The coordinate basis as columns, an (..., m, m) view batched over x."""
        m = self.ambient_dim
        return np.broadcast_to(np.eye(m), np.shape(x)[:-1] + (m, m))

    def distance_to_pole(self, data: CurvatureData) -> Optional[Callable[[Array], tuple]]:
        """x -> (r, dr) for r = |x - data.pole| (dr is nan at the pole), or
        None without a pole."""
        if data.pole is None:
            return None
        pole = np.asarray(data.pole, dtype=float)

        def dist(x):
            diff = np.asarray(x, dtype=float) - pole
            r = vec_norm(diff)
            with np.errstate(divide="ignore", invalid="ignore"):
                return r, diff / np.asarray(r)[..., None]
        return dist

    # -- explosion bookkeeping ----------------------------------------
    def escape_coordinate(self, x: Array) -> Array:
        """Scalar that tends to infinity exactly when x leaves every compact set."""
        return vec_norm(np.asarray(x, dtype=float))


class FlatModel(ManifoldModel):
    """R^n with the Euclidean metric."""

    kind = "flat"

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    def __repr__(self):
        return f"FlatModel({self.ambient_dim})"


class PuncturedFlatModel(FlatModel):
    """R^n minus a point.  The metric is still flat, so the puncture only
    restricts the admissible set; dynamics never special-case it."""

    kind = "punctured_flat"

    def __init__(self, dim: int, puncture, exclusion_radius: float = 1e-8):
        super().__init__(dim)
        self.puncture = np.asarray(puncture, dtype=float).reshape(dim)
        self.exclusion_radius = float(exclusion_radius)

    def in_domain(self, x: Array) -> Array:
        return vec_norm(x - self.puncture) > self.exclusion_radius

    def puncture_distance(self, x: Array) -> Array:
        return vec_norm(np.asarray(x, dtype=float) - self.puncture)

    def __repr__(self):
        return f"PuncturedFlatModel({self.ambient_dim}, puncture={self.puncture})"


class RescaledFlatModel(ManifoldModel):
    """R^n (minus an excluded set) with the conformal norm |v|_x = w(x)|v|.

    Only the metric norm is used for this model; no connection is attached to
    the rescaled metric, so covariant derivatives are never requested from it.
    """

    kind = "rescaled_flat"

    def __init__(self, dim: int, weight: Callable[[Array], Array],
                 excluded=None, exclusion_radius: float = 1e-12):
        super().__init__(dim, dim)
        self.weight = weight
        self.excluded = None if excluded is None else np.asarray(excluded, dtype=float).reshape(dim)
        self.exclusion_radius = float(exclusion_radius)

    def in_domain(self, x: Array) -> Array:
        if self.excluded is None:
            return np.True_
        return vec_norm(x - self.excluded) > self.exclusion_radius

    def metric_norm(self, x: Array, v: Array) -> Array:
        self.check_admissible(x)
        w = np.asarray(self.weight(np.asarray(x, dtype=float)))
        if np.any(w <= 0):
            raise DomainError("metric weight must be positive on the admissible set")
        return w * vec_norm(np.asarray(v, dtype=float))

    def log_metric_factor(self, x: Array) -> Array:
        return np.log(np.asarray(self.weight(np.asarray(x, dtype=float))))

    def escape_coordinate(self, x: Array) -> Array:
        # points where w blows up are at metric infinity, like |x| -> inf
        r = vec_norm(np.asarray(x, dtype=float))
        if self.excluded is not None:
            d = vec_norm(np.asarray(x, dtype=float) - self.excluded)
            with np.errstate(divide="ignore"):
                return np.maximum(r, 1.0 / d)
        return r


class EmbeddedModel(ManifoldModel):
    """Isometrically embedded hypersurface of R^m given by its unit normal.

    ``normal(x)`` is a unit normal field near the manifold and ``dnormal(x, v)``
    its directional derivative D_v nu, for tangent v the Weingarten map up to
    sign (both batched over leading axes).  Projections, the second
    fundamental form and the mean curvature follow from these two without
    forming matrices.  ``retraction`` maps near-manifold ambient points back
    onto the manifold; Ricci, pole-distance and sampler callables are optional.
    """

    kind = "embedded"

    def __init__(self, name: str, ambient_dim: int,
                 normal: Callable[[Array], Array],
                 dnormal: Callable[[Array, Array], Array],
                 retraction: Callable[[Array], Array],
                 ricci: Optional[Callable[[Array, Array], Array]] = None,
                 pole_distance: Optional[Callable[[Array], tuple]] = None,
                 sampler: Optional[Callable[[np.random.Generator, int], Array]] = None,
                 admissible: Optional[Callable[[Array], Array]] = None):
        super().__init__(ambient_dim, ambient_dim - 1)
        self.name = name
        self.normal = normal
        self.dnormal = dnormal
        self.retraction = retraction
        self.ricci = ricci
        self._pole_distance = pole_distance
        self.sampler = sampler
        self._admissible = admissible

    def in_domain(self, x: Array) -> Array:
        return np.True_ if self._admissible is None else np.asarray(self._admissible(x))

    def normal_project(self, x: Array, u: Array) -> Array:
        nu = self.normal(np.asarray(x, dtype=float))
        return nu * sum_last(nu * np.asarray(u, dtype=float))[..., None]

    def tangent_project(self, x: Array, u: Array) -> Array:
        return np.asarray(u, dtype=float) - self.normal_project(x, u)

    def projection(self, x: Array) -> Array:
        """The tangent projection I - nu nu^T as an (..., m, m) matrix."""
        nu = self.normal(np.asarray(x, dtype=float))
        return np.eye(self.ambient_dim) - nu[..., :, None] * nu[..., None, :]

    def sff(self, x: Array, v: Array, w: Array) -> Array:
        """alpha(v, w) = -<D_v nu, w> nu for tangent v, w."""
        x = np.asarray(x, dtype=float)
        dn = self.dnormal(x, np.asarray(v, dtype=float))
        return -sum_last(dn * np.asarray(w, dtype=float))[..., None] * self.normal(x)

    def mean_curvature(self, x: Array) -> Array:
        """trace alpha = -tr(P D nu P) nu, the trace taken over the projected
        coordinate vectors P e_i."""
        x = np.asarray(x, dtype=float)
        nu = self.normal(x)
        tr = 0.0
        for i in range(self.ambient_dim):
            pe = -nu[..., i, None] * nu
            pe[..., i] += 1.0
            tr = tr + sum_last(self.dnormal(x, pe) * pe)
        return -tr[..., None] * nu

    def retract(self, x: Array) -> Array:
        return self.retraction(np.asarray(x, dtype=float))

    def distance_to_pole(self, data: CurvatureData) -> Optional[Callable[[Array], tuple]]:
        """The closed form the model was built with, or None; data is not read."""
        return self._pole_distance

    def is_tangent(self, x: Array, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        resid = vec_norm(self.normal_project(x, v))
        return resid <= TANGENCY_TOL * (1.0 + vec_norm(v))

    def tangent_frame(self, x: Array) -> Array:
        """Orthonormal basis of the tangent space, columns of an (..., m, k)
        array, batched over leading axes of x.

        Deterministic: eigenvectors of the projection matrix with eigenvalue 1
        as returned by ``eigh``, which sorts them last.
        """
        w, V = np.linalg.eigh(self.projection(x))
        k = self.intrinsic_dim
        if np.any(np.count_nonzero(w > 0.5, axis=-1) != k):
            raise ContractError("projection rank does not match intrinsic dimension")
        return V[..., -k:]

    def __repr__(self):
        return f"EmbeddedModel({self.name}, m={self.ambient_dim}, n={self.intrinsic_dim})"


# ----------------------------------------------------------------------
# module-level operations with admissibility and contract checks
# (flowlab itself uses second_fundamental_form and pole_distance)
# ----------------------------------------------------------------------

def tangent_project(model: ManifoldModel, x: Array, u: Array) -> Array:
    """Project an ambient vector onto the tangent space at x.

    Identity on flat-family models.  Raises ``DomainError`` when x is not
    admissible (puncture, outside chart).
    """
    model.check_admissible(x)
    return model.tangent_project(x, u)


def metric_norm(model: ManifoldModel, x: Array, v: Array) -> Array:
    """Norm of v in the model's metric at x."""
    model.check_admissible(x)
    return model.metric_norm(x, v)


def second_fundamental_form(model: ManifoldModel, x: Array, v: Array, w: Array) -> Array:
    """alpha_x(v, w) = -<D_v nu, w> nu: the normal-valued second fundamental
    form of an embedded hypersurface with unit normal nu, for tangent v, w."""
    if not isinstance(model, EmbeddedModel):
        raise CapabilityError("second fundamental form needs an embedded model")
    model.check_admissible(x)
    for name, vec in (("v", v), ("w", w)):
        if not np.all(model.is_tangent(x, vec)):
            raise ContractError(f"{name} is not tangent at x beyond tolerance")
    return model.sff(x, v, w)


def pole_distance(model: ManifoldModel, data: CurvatureData, x: Array):
    """Distance to the pole with its differential and the Hessian comparison
    bound L(r) coth(r L(r)).

    Returns ``(r, dr, hessian_bound)``.  Supported on flat-family models with
    a pole point, and on embedded built-ins that carry a closed-form distance
    (no geodesic solver is attempted): :meth:`ManifoldModel.distance_to_pole`.
    """
    model.check_admissible(x)
    dist = model.distance_to_pole(data)
    if dist is None:
        raise CapabilityError(f"model {model.kind} has no closed-form pole distance and no pole")
    r, dr = dist(np.asarray(x, dtype=float))
    if np.any(r == 0.0):
        raise SingularPointError("dr is undefined at the pole itself")
    L = data.lower_bound_fn()(r)
    if np.any(L < 1.0):
        raise ContractError("sectional lower bound L must satisfy L >= 1")
    bound = L * coth(np.maximum(r, 1e-300) * L)
    return r, dr, bound


# ----------------------------------------------------------------------
# built-in embedded models
# ----------------------------------------------------------------------

def sphere_model(n: int) -> EmbeddedModel:
    """Unit sphere S^{n-1} isometrically embedded in R^n, normal x/|x|."""
    if n < 2:
        raise ContractError("sphere needs ambient dimension >= 2")

    def normal(x):
        x = np.asarray(x, dtype=float)
        return x / vec_norm(x)[..., None]

    def dnormal(x, v):
        x = np.asarray(x, dtype=float)
        r = vec_norm(x)[..., None]
        nu = x / r
        return (v - nu * sum_last(nu * v)[..., None]) / r

    def ricci(x, v):
        v = np.asarray(v, dtype=float)
        return (n - 2) * sum_last(v * v)

    def sampler(rng, k):
        pts = rng.standard_normal((k, n))
        return pts / vec_norm(pts)[..., None]

    return EmbeddedModel(name=f"sphere({n})", ambient_dim=n, normal=normal, dnormal=dnormal,
                         retraction=normal, ricci=ricci, sampler=sampler)


def paraboloid_model() -> EmbeddedModel:
    """Paraboloid of revolution z = |u|^2 / 2 in R^3, pole at the vertex.

    Gaussian curvature K = (1 + |u|^2)^{-2} > 0, so the sectional lower bound
    L = 1 is valid and the vertex distance has a closed form along meridians.
    """

    def ricci(x, v):
        x = np.asarray(x, dtype=float)
        rho2 = sum_last(x[..., :2] ** 2)
        v = np.asarray(v, dtype=float)
        return sum_last(v * v) / (1.0 + rho2) ** 2

    def pole_dist(x):
        x = np.asarray(x, dtype=float)
        u = x[..., :2]
        rho = vec_norm(u)
        if np.any(rho == 0.0):
            raise SingularPointError("dr is undefined at the vertex")
        r = 0.5 * (rho * np.sqrt(1.0 + rho ** 2) + np.arcsinh(rho))
        uhat = u / rho[..., None]
        merid = np.concatenate([uhat, rho[..., None]], axis=-1)
        dr = merid / np.sqrt(1.0 + rho ** 2)[..., None]
        return r, dr

    def sampler(rng, k):
        u = rng.standard_normal((k, 2)) * 1.5
        z = 0.5 * sum_last(u * u)
        return np.concatenate([u, z[:, None]], axis=1)

    return graph_model(2, lambda u: 0.5 * sum_last(u ** 2), lambda u: u,
                       lambda u, w: w, name="paraboloid", ricci=ricci,
                       pole_distance=pole_dist, sampler=sampler)


def graph_model(dim: int, height: Callable[[Array], Array],
                grad_height: Callable[[Array], Array],
                hess_height: Callable[[Array, Array], Array],
                name: Optional[str] = None, **extras) -> EmbeddedModel:
    """Graph embedding u -> (u, h(u)) of R^dim into R^{dim+1}.

    ``hess_height(u, w)`` applies the Hessian of h at u to w.  The normal is
    (-grad h, 1)/s with s = sqrt(1 + |grad h|^2); its derivative along v is the
    tangent part of (-Hess h v_u, 0)/s.  ``extras`` (Ricci, pole distance,
    sampler, admissible set) are passed on to ``EmbeddedModel``.
    """

    def normal(x):
        g = np.asarray(grad_height(np.asarray(x, dtype=float)[..., :dim]), dtype=float)
        nu = np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1)
        return nu / vec_norm(nu)[..., None]

    def dnormal(x, v):
        x = np.asarray(x, dtype=float)
        u = x[..., :dim]
        g = np.asarray(grad_height(u), dtype=float)
        s = np.sqrt(1.0 + sum_last(g * g))[..., None]
        hv = np.asarray(hess_height(u, np.asarray(v, dtype=float)[..., :dim]), dtype=float)
        nu = np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1) / s
        dn = np.concatenate([-hv, np.zeros(hv.shape[:-1] + (1,))], axis=-1)
        return (dn - nu * sum_last(nu * dn)[..., None]) / s

    def retraction(x):
        x = np.asarray(x, dtype=float).copy()
        x[..., dim] = np.asarray(height(x[..., :dim]))
        return x

    return EmbeddedModel(name=name or f"graph({dim})", ambient_dim=dim + 1, normal=normal,
                         dnormal=dnormal, retraction=retraction, **extras)
