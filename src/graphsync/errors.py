"""Exception types shared across the package, and the admission rules for its inputs."""
import numbers
from collections.abc import Mapping

import numpy as np


class GraphSyncError(Exception):
    """Base class for all errors raised by this package.

    An error raised inside ``integrate``'s loop carries the trajectory
    recorded up to the failure in ``trajectory``; elsewhere it is ``None``.
    """

    trajectory = None


class GraphConstructionError(GraphSyncError, ValueError):
    """Invalid graph input."""


class VertexIndexError(GraphConstructionError):
    """Edge endpoint outside the 1..n vertex range."""


class SelfLoopError(GraphConstructionError):
    """Edge joining a vertex to itself."""


class DuplicateEdgeError(GraphConstructionError):
    """Unordered vertex pair listed more than once."""


class NegativeWeightError(GraphConstructionError):
    """Edge weight below zero."""


class UnknownGraphNameError(GraphConstructionError, KeyError):
    """Graph name not in the named-topology registry."""


class DomainError(GraphSyncError, ValueError):
    """Arguments outside the domain a rule or potential is defined on."""


class DimensionError(GraphSyncError, ValueError):
    """Operation requested for a vertex count it does not support."""


class BoundarySingularityError(GraphSyncError, ValueError):
    """Derivative requested at a point where it diverges."""


class DegenerateDerivativeError(GraphSyncError, ValueError):
    """Coupling-weight derivative is infinite at the evaluation point."""


class SimplexViolationError(GraphSyncError, ValueError):
    """Density vector left the probability simplex beyond tolerance."""


class NonFiniteStateError(GraphSyncError, ArithmeticError):
    """NaN or infinity produced during time integration."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ConsistencyError(GraphSyncError, ValueError):
    """Transformed variables no longer satisfy their defining relation."""


class QuadratureError(GraphSyncError, ArithmeticError):
    """Adaptive quadrature failed to converge or met a divergent integrand."""


class InversionRangeError(GraphSyncError, ValueError):
    """Inversion target lies outside the range of the coordinate map."""


class UnsupportedRegimeError(GraphSyncError, ValueError):
    """Parameter combination outside the regime the analytics cover."""


def real(value, name: str, what: str, ok, error=DomainError):
    """``value`` if it is a real number, not a bool, that ``ok`` accepts, else
    ``error("<name> must be <what>, got <value>")``; a NaN fails ``ok``'s comparisons."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and ok(value):
        return value
    raise error(f"{name} must be {what}, got {value!r}")


def vector(value, name: str, size=None, error=DomainError) -> np.ndarray:
    """``value`` as a 1-D float array of ``size`` entries (any count when ``size`` is None),
    each a finite real number and not a bool, else ``error("<name> must ..., got <value>")``."""
    array = _float_vector(value, name, size, error)
    if np.isfinite(array).all():
        return array
    raise error(f"{name} must be finite, got {value!r}")


def _float_vector(value, name: str, size=None, error=DomainError) -> np.ndarray:
    """``vector`` less its finiteness check, for a caller whose arithmetic refuses NaN and inf."""
    array = _reals(value)
    if array is None or array.ndim != 1:
        raise error(f"{name} must be a vector of real numbers, got {value!r}")
    if size is not None and array.size != size:
        raise error(f"{name} must have {size} entries, got {value!r}")
    return array


def _reals(value):
    """``value`` as a float array if it is one of int or float dtype, or nested sequences whose
    entries are real numbers and not bools, else None; numpy would convert ``True`` or ``"0.5"``."""
    if getattr(getattr(value, "dtype", None), "kind", "O") in "fiu":
        return np.asarray(value, dtype=float)
    try:
        entries = np.array(value, dtype=object)
        ok = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries.flat)
        return entries.astype(float) if ok else None
    except (TypeError, ValueError, OverflowError):  # e.g. an int beyond the floats
        return None


def weight_rule(value, methods, user: str):
    """``value`` if it has every method of ``methods``, which ``user`` calls on a weight
    rule, else DomainError naming the ones it lacks."""
    missing = [name for name in methods if not callable(getattr(value, name, None))]
    if missing:
        raise DomainError(f"{user} needs a weight rule with {', '.join(missing)}, got {value!r}")
    return value


def document(doc, owner: str, required=(), optional=(), error=DomainError):
    """``doc`` if it is a mapping that holds every key of ``required`` and no key outside
    ``required`` and ``optional``, else ``error`` naming ``owner`` and the offending keys."""
    if not isinstance(doc, Mapping):
        raise error(f"{owner} must be a mapping, got {doc!r}")
    wrong = {"unknown": [key for key in doc if key not in required and key not in optional],
             "missing": [key for key in required if key not in doc]}
    if any(wrong.values()):
        raise error(f"{owner} has " + " and ".join(f"{what} keys {keys}"
                                                   for what, keys in wrong.items() if keys))
    return doc
