"""Exception hierarchy shared by all flowlab modules, and the one check of
each kind of input a public entry point takes: a whole number (counts, seeds,
stream ids), a finite real number, one vector, a grid of points, a ladder of
rungs and an observable's values at a batch of points.  The caller passes the
bound, dimension or ordering it needs; each check raises ``ContractError``,
never a raw Python error."""

import math
import numbers

import numpy as np


class FlowlabError(Exception):
    """Base class for all library errors."""


class DomainError(FlowlabError):
    """A state is outside the admissible set of a manifold model."""


class ContractError(FlowlabError):
    """Inputs violate a documented precondition (e.g. non-tangent vector)."""


class CapabilityError(FlowlabError):
    """A backend, jacobian or curvature input needed for the request is missing."""


class SingularPointError(FlowlabError):
    """Evaluation at a point where the quantity is undefined (pole, oracle blow-up)."""


def check_whole(name: str, value, low: int = 1, high=None) -> None:
    """``ContractError`` unless value is a whole number (an integer, not a
    bool) with low <= value, and value < high when high is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= int(value) < (math.inf if high is None else high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ContractError(f"need a whole number {bound} for {name}, got {value!r}")


def is_real(value, low: float = -math.inf, strict: bool = True) -> bool:
    """Whether value is a finite real number (not a bool) > low (>= low when not strict)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) \
        and abs(value) < math.inf and (value > low if strict else value >= low)


def check_real(name: str, value, low: float = -math.inf, strict: bool = True) -> None:
    """``ContractError`` unless ``is_real(value, low, strict)``."""
    if not is_real(value, low, strict):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ContractError(f"need a finite number{bound} for {name}, got {value!r}")


def _floats(value) -> np.ndarray:
    """value as a float array; an empty one when it is ragged or not numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return np.empty(0)


def check_vector(name: str, value, dim: int) -> np.ndarray:
    """value as one finite float vector of dimension dim, else ``ContractError``."""
    a = _floats(value)
    if a.shape != (dim,) or not np.isfinite(a).all():
        raise ContractError(f"{name} must be one finite vector of dimension {dim}, got {value!r}")
    return a


def check_grid(name: str, value, dim=None) -> np.ndarray:
    """value as a nonempty (N, d) float array of finite points, of dimension
    dim when it is given; a single point (d,) is a grid of one."""
    g = _floats(value)
    if g.ndim == 1:
        g = g[None, :]
    if g.ndim != 2 or g.size == 0 or not np.isfinite(g).all() or dim not in (None, g.shape[1]):
        of_dim = "" if dim is None else f" of dimension {dim}"
        raise ContractError(f"{name} must be a point or a nonempty array of points{of_dim}, "
                            "with finite coordinates")
    return g


def check_per_point(values, x: np.ndarray) -> np.ndarray:
    """An observable's values at the points x (..., d) as floats, one per point."""
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape[:-1]:
        raise ContractError(f"observable gave shape {values.shape} at points of shape {x.shape}; "
                            f"expected one value per point, {x.shape[:-1]}")
    return values


def check_ladder(name: str, values, low: float = -math.inf, increasing: bool = True,
                 min_len: int = 1) -> list:
    """values as a list of floats: at least min_len rungs, each a finite real
    number (not a bool) > low, strictly increasing when increasing."""
    rungs = list(values) if np.iterable(values) else None
    if rungs is None or len(rungs) < min_len or not all(is_real(r, low) for r in rungs) \
            or increasing and any(b <= a for a, b in zip(rungs, rungs[1:])):
        bound = "" if low == -math.inf else f" > {low:g}"
        order = ", strictly increasing" if increasing else ""
        raise ContractError(f"{name} must hold at least {min_len} finite number(s){bound}{order}; "
                            f"got {values!r}")
    return [float(r) for r in rungs]
