"""Exception hierarchy shared by all flowlab modules, and the one whole-number
check behind every count, seed and stream id."""

import math

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
