"""Potential functionals on density vectors and their two-node reductions.

``KuramotoQuadratic`` is the quadratic concentration potential
``F(rho) = -(kappa/2) * sum(rho_i^2)`` defined for any vertex count; it is the
only potential with ambient gradient/Hessian, and the graph flows enforce it:
``quadratic_kappa`` raises DomainError for any other potential and hands the
flows kappa, so they apply HessF = -kappa I without building it.  The entropy
potentials (Shannon, Renyi, Tsallis) are defined on two nodes only,
parametrised by the mass ``r`` on node 1.  Each is nonnegative, symmetric
about ``r = 1/2`` and vanishes exactly there.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundarySingularityError, DimensionError, DomainError, _float_vector,
                     document, real, reals, vector)
from .integrate import SIMPLEX_TOL


def _xlogx(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def _reduced(singular: str = ""):
    """Guard for a two-node method of r: r, a real number or an array of them, in [0, 1],
    passed on as an array.

    r within the simplex tolerance of [0, 1] is clipped into it, so every
    family gives its boundary value there.  A method singular at r in {0, 1}
    names that in ``singular`` and refuses those r with
    BoundarySingularityError.  A scalar r gives a float.
    """

    def guard(method):
        @functools.wraps(method)
        def guarded(self, r):
            r = reals(r, "r")
            if not np.all((r >= -SIMPLEX_TOL) & (r <= 1.0 + SIMPLEX_TOL)):
                raise DomainError(f"r must lie in [0, 1], got {r!r}")
            r = np.clip(r, 0.0, 1.0)
            if singular and not np.all((r > 0.0) & (r < 1.0)):
                raise BoundarySingularityError(singular)
            out = method(self, r)
            return out if np.ndim(out) else float(out)

        return guarded

    return guard


@dataclass(frozen=True)
class KuramotoQuadratic:
    """Quadratic potential -(kappa/2) * sum(rho^2) with coupling kappa > 0."""

    kappa: float = 1.0

    def __post_init__(self):
        real(self.kappa, "kappa", "positive and finite", lambda v: 0 < v < math.inf)

    def value(self, rho) -> float:
        rho = vector(rho, "density")
        return -0.5 * self.kappa * float(np.add.reduce(rho * rho))

    def grad(self, rho) -> np.ndarray:
        return -self.kappa * np.asarray(rho, dtype=float)

    def hess(self, rho) -> np.ndarray:
        return -self.kappa * np.eye(vector(rho, "density").size)

    # Two-node reduction in r = rho_1, rho_2 = 1 - r.
    @_reduced()
    def value_r(self, r):
        return -0.5 * self.kappa * (r**2 + (1.0 - r) ** 2)

    @_reduced()
    def grad_r(self, r):
        return -self.kappa * (2.0 * r - 1.0)

    @_reduced()
    def hess_r(self, r):
        return np.full(r.shape, -2.0 * self.kappa)


class _TwoNodeEntropy:
    """Shared two-node machinery; subclasses provide value_r/grad_r/hess_r."""

    def value(self, rho) -> float:
        return self.value_r(_two_node_r(rho))

    def grad(self, rho):
        return self.grad_r(_two_node_r(rho))

    def hess(self, rho):
        return self.hess_r(_two_node_r(rho))


def _two_node_r(rho):
    # A single number is r itself, which the method it is passed to admits.
    if not isinstance(rho, (list, tuple)) and np.ndim(rho) == 0:
        return rho
    rho = _float_vector(rho, "two-node density", 2, DimensionError)
    if not abs(float(rho.sum()) - 1.0) <= SIMPLEX_TOL:  # negated, so that a NaN mass fails it
        raise DomainError(f"two-node density must sum to 1, got {rho!r}")
    return float(rho[0])


@dataclass(frozen=True)
class ShannonPotential(_TwoNodeEntropy):
    """log 2 + r log r + (1-r) log(1-r), with 0 log 0 = 0."""

    @_reduced()
    def value_r(self, r):
        return math.log(2.0) + _xlogx(r) + _xlogx(1.0 - r)

    @_reduced("d/dr log-entropy diverges at r in {0, 1}")
    def grad_r(self, r):
        return np.log(r) - np.log(1.0 - r)

    @_reduced("curvature diverges at r in {0, 1}")
    def hess_r(self, r):
        return 1.0 / r + 1.0 / (1.0 - r)


@dataclass(frozen=True)
class RenyiPotential(_TwoNodeEntropy):
    """log 2 - log(r^alpha + (1-r)^alpha) / (1 - alpha), alpha >= 0, alpha != 1.

    Construction validates that the value is nonnegative on a grid and does
    not degenerate (it must vanish only at r = 1/2); parameters failing either
    check are rejected.
    """

    alpha: float

    def __post_init__(self):
        real(self.alpha, "alpha", "finite, >= 0 and != 1", lambda a: 0 <= a < math.inf and a != 1)
        grid = np.linspace(0.0, 1.0, 201)
        vals = self.value_r(grid)
        if np.min(vals) < -1e-12:
            raise DomainError(f"Renyi potential with alpha={self.alpha} is negative on [0, 1]")
        if self.value_r(0.25) <= 1e-8:
            raise DomainError(f"Renyi potential with alpha={self.alpha} is degenerate")

    def _g(self, r):
        return np.power(r, self.alpha) + np.power(1.0 - r, self.alpha)

    @_reduced()
    def value_r(self, r):
        return math.log(2.0) - np.log(self._g(r)) / (1.0 - self.alpha)

    @_reduced("Renyi gradient not evaluated at r in {0, 1}")
    def grad_r(self, r):
        a = self.alpha
        gp = a * (np.power(r, a - 1.0) - np.power(1.0 - r, a - 1.0))
        return -gp / ((1.0 - a) * self._g(r))

    @_reduced("Renyi curvature not evaluated at r in {0, 1}")
    def hess_r(self, r):
        a = self.alpha
        g = self._g(r)
        gp = a * (np.power(r, a - 1.0) - np.power(1.0 - r, a - 1.0))
        gpp = a * (a - 1.0) * (np.power(r, a - 2.0) + np.power(1.0 - r, a - 2.0))
        return -(gpp * g - gp**2) / ((1.0 - a) * g**2)


@dataclass(frozen=True)
class TsallisPotential(_TwoNodeEntropy):
    """(r^q + (1-r)^q - 2^(1-q)) / (q - 1) for q > 1."""

    q: float

    def __post_init__(self):
        real(self.q, "q", "finite and > 1", lambda q: 1 < q < math.inf)

    @_reduced()
    def value_r(self, r):
        q = self.q
        return (np.power(r, q) + np.power(1.0 - r, q) - 2.0 ** (1.0 - q)) / (q - 1.0)

    @_reduced()
    def grad_r(self, r):
        q = self.q
        return q * (np.power(r, q - 1.0) - np.power(1.0 - r, q - 1.0)) / (q - 1.0)

    @_reduced()
    def hess_r(self, r):
        q = self.q
        if q < 2.0 and not np.all((r > 0.0) & (r < 1.0)):
            raise BoundarySingularityError(f"Tsallis curvature diverges at the boundary for q={q}")
        return q * (np.power(r, q - 2.0) + np.power(1.0 - r, q - 2.0))


def quadratic_kappa(potential) -> float:
    """Coupling kappa of the quadratic potential; any other potential is refused."""
    if not isinstance(potential, KuramotoQuadratic):
        raise DomainError(f"graph flows need the quadratic potential, got {potential!r}")
    return potential.kappa


def _number(value):
    """A numeric string (the CLI's ``kind:param``) as its float; anything else as it is."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def from_config(doc, owner: str, kinds: dict):
    """``doc`` built as ``kinds[doc["kind"]]``, a class and ``{parameter: reader}``; a parameter
    is optional where the class gives it a default, and any other key is refused."""
    kind = document(doc, f"a {owner} config", ("kind",), doc)["kind"]  # its kind picks the keys
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"{owner} kind must be one of {sorted(kinds)}, got {kind!r}")
    cls, readers = kinds[kind]
    required = ["kind", *(p for p in readers if not hasattr(cls, p))]
    document(doc, f"a {owner} {kind!r} config", required, readers)
    return cls(**{p: read(doc[p]) for p, read in readers.items() if p in doc})


#: Potentials by config kind, with a reader for each parameter.
_KINDS = {
    "kuramoto": (KuramotoQuadratic, {"kappa": _number}),
    "shannon": (ShannonPotential, {}),
    "renyi": (RenyiPotential, {"alpha": _number}),
    "tsallis": (TsallisPotential, {"q": _number}),
}


def potential_from_config(doc: dict):
    """Build a potential from ``{"kind": ..., <parameter>: ...}`` configuration."""
    return from_config(doc, "potential", _KINDS)
