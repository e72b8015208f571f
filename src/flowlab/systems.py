"""Stochastic dynamical systems: the coefficient pair (X, A) and its algebra.

A system packages the diffusion X (linear in the noise argument), the drift A,
their first derivatives, and the calculus convention the pair is written in.
All internal computation is Stratonovich; Ito systems are accepted at the
boundary and converted once.  Derivatives are plain (ambient) directional
derivatives; covariant quantities for embedded models are obtained by
projecting them, which is done where needed (effective drift, curvature
forms), never inside the integrator.

Callable convention: state arrays broadcast over leading axes with the last
axis as the coordinate axis; noise arguments e broadcast the same way against
the noise dimension, and a field's value broadcasts against x (a diffusion
that does not depend on x may return e itself).  Jacobian callables may get
the point with a size-1 frame axis, x (..., 1, d) against v (..., r, d), and
must let it broadcast: the integrator steps a frame of r tangents that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ContractError
from .geometry import TANGENCY_TOL, EmbeddedModel, ManifoldModel, sum_last, vec_norm

Array = np.ndarray

#: relative step for finite-difference derivatives of user-supplied fields
FD_REL_STEP = 1e-5

STRATONOVICH = "stratonovich"
ITO = "ito"


def zero_field(x: Array) -> Array:
    return np.zeros_like(np.asarray(x, dtype=float))


def zero_jacobian(x: Array, v: Array) -> Array:
    return np.zeros_like(np.asarray(v, dtype=float))


def fd_directional(f: Callable[[Array], Array], x: Array, v: Array,
                   rel_step: float = FD_REL_STEP) -> Array:
    """Central finite difference of f at x in direction v.

    The step is relative, 1e-5 * (1 + |x|), taken along the unit direction of
    v and scaled back, so the result is linear in v like a true directional
    derivative.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.asarray(vec_norm(v))
    vhat = v / np.where(nv == 0.0, 1.0, nv)[..., None]
    h = np.asarray(rel_step * (1.0 + vec_norm(x)))
    hv = h[..., None] * vhat
    return (f(x + hv) - f(x - hv)) * (nv / (2.0 * h))[..., None]


@dataclass(frozen=True)
class VectorFieldSystem:
    """The pair (X, A) with derivative oracles.

    diffusion(x, e) = X(x)e, linear in e; diffusion_jacobian(x, e, v) is the
    directional derivative of x -> X(x)e; drift_jacobian(x, v) that of A.
    ``z_drift``/``z_drift_jacobian`` carry the Brownian-with-drift vector
    field Z = A^X when the system declares one (gradient Brownian systems).
    """

    name: str
    dim: int
    noise_dim: int
    diffusion: Callable[[Array, Array], Array]
    drift: Callable[[Array], Array]
    diffusion_jacobian: Callable[[Array, Array, Array], Array]
    drift_jacobian: Callable[[Array, Array], Array]
    calculus: str
    model: ManifoldModel
    constant_diffusion: bool = False
    is_gradient: bool = False
    z_drift: Optional[Callable[[Array], Array]] = None
    z_drift_jacobian: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        if self.calculus not in (STRATONOVICH, ITO):
            raise ContractError(f"unknown calculus flag {self.calculus!r}")

    def diffusion_columns(self, x: Array) -> Array:
        """Matrix of columns X^i(x), shape (..., dim, noise_dim)."""
        x = np.asarray(x, dtype=float)
        return np.stack([np.broadcast_to(self.diffusion(x, e), x.shape)
                         for e in np.eye(self.noise_dim)], axis=-1)

    def column_jacobians(self, x: Array, v: Array) -> Array:
        """Stack of directional derivatives D_v X^i(x), shape (..., dim, noise_dim)."""
        return np.stack([self.diffusion_jacobian(x, e, v) for e in np.eye(self.noise_dim)], axis=-1)


@dataclass(frozen=True)
class DriftDecomposition:
    """Effective drift A^X and the Stratonovich-to-generator correction term."""

    a_x: Callable[[Array], Array]
    correction: Callable[[Array], Array]


def stratonovich_correction(system: VectorFieldSystem) -> Callable[[Array], Array]:
    """x -> 1/2 sum_i D_{X^i} X^i (x), the ambient Ito/Stratonovich correction."""
    if system.constant_diffusion:
        return zero_field

    def corr(x):
        acc = None
        for e in np.eye(system.noise_dim):
            xi = system.diffusion(x, e)
            term = system.diffusion_jacobian(x, e, xi)
            acc = term if acc is None else acc + term
        return 0.5 * acc

    return corr


def convert_calculus(system: VectorFieldSystem, target: str) -> VectorFieldSystem:
    """Rewrite the drift in the other calculus; the diffusion is unchanged.

    Ito -> Stratonovich subtracts the correction 1/2 sum D X^i(X^i), the other
    direction adds it.  The converted drift's jacobian is the original one
    when the diffusion is constant, otherwise a central finite difference of
    the converted drift (second derivatives of X are never formed).
    """
    if target not in (STRATONOVICH, ITO):
        raise ContractError(f"unknown calculus flag {target!r}")
    if target == system.calculus:
        return system
    if system.diffusion_jacobian is None:
        raise CapabilityError("conversion needs the diffusion jacobian")
    if system.constant_diffusion:
        return replace(system, calculus=target)
    corr = stratonovich_correction(system)
    sign = -1.0 if target == STRATONOVICH else 1.0
    old_drift = system.drift

    def new_drift(x):
        return old_drift(x) + sign * corr(x)

    def new_drift_jac(x, v):
        return fd_directional(new_drift, x, v)

    return replace(system, drift=new_drift, drift_jacobian=new_drift_jac,
                   calculus=target, z_drift=system.z_drift,
                   z_drift_jacobian=system.z_drift_jacobian)


def as_stratonovich(system: VectorFieldSystem) -> VectorFieldSystem:
    return convert_calculus(system, STRATONOVICH)


def as_ito(system: VectorFieldSystem) -> VectorFieldSystem:
    return convert_calculus(system, ITO)


def effective_drift(system: VectorFieldSystem) -> DriftDecomposition:
    """A^X = 1/2 sum grad X^i(X^i) + A, the first-order part of the generator.

    The correction uses the covariant derivative, the model's tangent
    projection of the ambient one (the identity on flat-family models).
    """
    s = as_stratonovich(system)
    flat_corr = stratonovich_correction(s)

    def correction(x):
        return s.model.tangent_project(x, flat_corr(x))

    def a_x(x):
        return correction(x) + s.drift(x)

    return DriftDecomposition(a_x=a_x, correction=correction)


def apply_generator(system: VectorFieldSystem, grad: Callable[[Array], Array],
                    hess_quad: Callable[[Array, Array], Array], x: Array) -> Array:
    """Evaluate the generator 1/2 sum Hess f(X^i, X^i) + A^X f at x.

    ``grad(x)`` is the gradient of f, ``hess_quad(x, u)`` the quadratic form
    Hess f(u, u).  Flat models only (the Hessian is the coordinate one).
    """
    dec = effective_drift(system)
    x = np.asarray(x, dtype=float)
    acc = sum_last(np.asarray(grad(x)) * dec.a_x(x))
    for e in np.eye(system.noise_dim):
        xi = system.diffusion(x, e)
        acc = acc + 0.5 * np.asarray(hess_quad(x, xi))
    return acc


def adjoint(system: VectorFieldSystem) -> VectorFieldSystem:
    """Same diffusion, negated Stratonovich drift.  An exact involution."""
    s = as_stratonovich(system)
    old_drift, old_jac = s.drift, s.drift_jacobian

    def neg_drift(x):
        return -old_drift(x)

    def neg_jac(x, v):
        return -old_jac(x, v)

    z = s.z_drift
    zj = s.z_drift_jacobian
    neg_z = (lambda x, _z=z: -_z(x)) if z is not None else None
    neg_zj = (lambda x, v, _zj=zj: -_zj(x, v)) if zj is not None else None
    return replace(s, name=s.name + "^adj", drift=neg_drift, drift_jacobian=neg_jac,
                   z_drift=neg_z, z_drift_jacobian=neg_zj)


def gradient_brownian_from_embedding(model: EmbeddedModel,
                                     drift_z: Optional[Callable[[Array], Array]] = None,
                                     drift_z_jacobian: Optional[Callable[[Array, Array], Array]] = None,
                                     name: Optional[str] = None) -> VectorFieldSystem:
    """Gradient Brownian system of an isometric embedding: X(x)e = P(x)e.

    The Stratonovich drift equals Z because sum grad X^i(X^i) = 0 for gradient
    systems.  With P = I - nu nu^T the diffusion jacobian is exact:
    D_v X(x)e = -(D_v nu <nu, e> + nu <D_v nu, e>).  Z must be tangent
    (contract-checked on every evaluation).
    """
    m = model.ambient_dim

    def diffusion_jacobian(x, e, v):
        x = np.asarray(x, dtype=float)
        e = np.asarray(e, dtype=float)
        nu = model.normal(x)
        dn = model.dnormal(x, np.asarray(v, dtype=float))
        return -(dn * sum_last(nu * e)[..., None] + nu * sum_last(dn * e)[..., None])

    if drift_z is None:
        drift = zero_field
        drift_jac = zero_jacobian
    else:
        def drift(x):
            z = np.asarray(drift_z(x), dtype=float)
            resid = vec_norm(z - model.tangent_project(x, z))
            if np.any(resid > TANGENCY_TOL * (1.0 + vec_norm(z))):
                raise ContractError("drift Z is not tangent to the embedded manifold")
            return z

        drift_jac = drift_z_jacobian or (lambda x, v: fd_directional(drift, x, v))

    return VectorFieldSystem(
        name=name or f"gradient_brownian[{model.name}]",
        dim=m, noise_dim=m,
        diffusion=model.tangent_project, drift=drift,
        diffusion_jacobian=diffusion_jacobian, drift_jacobian=drift_jac,
        calculus=STRATONOVICH, model=model,
        is_gradient=True,
        z_drift=drift_z if drift_z is not None else zero_field,
        z_drift_jacobian=drift_z_jacobian if drift_z is not None else zero_jacobian,
    )


def isometry_defect(system: VectorFieldSystem, x: Array):
    """max_j |X(x) X(x)^* f_j - f_j| over a tangent frame; 0 for X^*X = Id systems.

    Broadcasts over leading axes of x; a float for a single point.
    """
    x = np.asarray(x, dtype=float)
    B = system.diffusion_columns(x)
    frame = system.model.tangent_frame(x)
    G = B @ np.swapaxes(B, -1, -2)
    defect = np.max(vec_norm(G @ frame - frame, axis=-2), axis=-1)
    return float(defect) if np.ndim(defect) == 0 else defect
