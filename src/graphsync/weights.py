"""Edge coupling weights theta(a, b) on density pairs, with derivatives.

Every rule is symmetric in its two arguments.  ``MinPower`` is the canonical
family ``theta(a, b) = min(a, b)**alpha``; it vanishes exactly when the
smaller density does, which is what drives extinction of low-mass vertices.
``ArithmeticMean`` is kept for contrast: it stays positive when one argument
is zero, so it fails the boundary-vanishing condition (``validate_rule``
reports this).  ``EntropyInduced`` holds the closed-form two-node weight
derived from an entropy potential and is defined only on density pairs with
``a + b = 1``.

The min-based derivative is set-valued on the tie set a = b; we use the
symmetric half/half convention there, which preserves symmetry of the pair
of partials under argument swap.  For alpha < 1 the derivative diverges as
the smaller argument reaches zero; ``partials`` reports that case with an
``inf`` sentinel rather than raising, so vectorised callers can mask it.

``theta_and_slope(a, b)`` is the coupling kernel of the graph flows: one pass
giving theta and d theta/da under the same conventions as ``theta`` and
``partials``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, real
from .integrate import SIMPLEX_TOL
from .potentials import (_number, _two_node_reals, _TwoNodeEntropy, from_config,
                         potential_from_config)

#: Half-width of the window about r = 1/2 where the induced weight's quotients of F
#: lose their digits to the removable singularity, and its Taylor series stands in.
_SERIES_WINDOW = 1e-4


def _pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a, b


def _maybe_scalar(x, scalar: bool):
    return float(x) if scalar else x


#: phi and phi' at the stock alphas but 1, as functions of c = max(m, 0) >= 0 (an array or a
#: float) and numpy's or math's ``sqrt``: products, square roots and one quotient, which IEEE
#: arithmetic rounds correctly, so their bits are the same on any machine.  np.power's bits
#: follow numpy's CPU dispatch, and libm's pow may be 1 ulp off.  phi' at alpha 1/2 is
#: 0.5 / 0 at c = 0: +inf on arrays, a ZeroDivisionError on floats.  The edge loops of
#: graphs.py spell the same formulas out inline.
_STOCK = {0.5: (lambda c, sqrt: sqrt(c), lambda c, sqrt: 0.5 / sqrt(c)),
          1.5: (lambda c, sqrt: c * sqrt(c), lambda c, sqrt: 1.5 * sqrt(c)),
          2.0: (lambda c, sqrt: c * c, lambda c, sqrt: 2.0 * c),
          3.0: (lambda c, sqrt: c * c * c, lambda c, sqrt: 3.0 * (c * c))}


def _tie_share(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Part of the min-slope d owed to a: all where a < b, half on ties, none where a > b."""
    share = np.asarray(0.5 * d)
    np.copyto(share, d, where=a < b)
    np.copyto(share, 0.0, where=a > b)
    return share


@dataclass(frozen=True)
class MinPower:
    """theta(a, b) = min(a, b)**alpha, alpha > 0 (clipped to 0 off-domain)."""

    alpha: float = 1.0

    def __post_init__(self):
        real(self.alpha, "alpha", "positive and finite", lambda v: 0 < v < math.inf)

    @property
    def is_lipschitz(self) -> bool:
        """False for alpha < 1, where the slope blows up at zero density."""
        return self.alpha >= 1.0

    # theta(a, b) = phi(min(a, b)): the sorted complete-graph operators in
    # graphs.py evaluate phi and dphi once per vertex instead of per edge.
    # Both clamp with c = abs(fmax(m, 0)): fmax sends NaN to 0 but may keep a -0.0,
    # which sqrt and power pass on; abs makes it +0.0.  At a stock alpha they take
    # ``_STOCK``'s formula, and np.power elsewhere.
    def phi(self, m):
        """max(m, 0)**alpha; 0 at NaN, except for alpha = 1, which passes NaN on."""
        a = self.alpha
        if a == 1.0:
            return np.maximum(m, 0.0)
        c = np.abs(np.fmax(m, 0.0))
        return _STOCK[a][0](c, np.sqrt) if a in _STOCK else np.power(c, a)

    def dphi(self, m):
        """d/dm of max(m, 0)**alpha with the 0**0 = 1 convention.

        Returns +inf where alpha < 1 and m == 0 (the degenerate-derivative
        sentinel); 0 where m < 0 or m is NaN, matching the clipped extension
        of theta.
        """
        a = self.alpha
        if a == 1.0:
            return np.where(m >= 0.0, 1.0, 0.0)
        c = np.abs(np.fmax(m, 0.0))
        if a > 1.0:  # 0**(a - 1) = 0 is already the slope off the domain
            return _STOCK[a][1](c, np.sqrt) if a in _STOCK else a * np.power(c, a - 1.0)
        with np.errstate(divide="ignore"):  # 0**(a - 1) = inf, also where m < 0 or NaN
            d = _STOCK[a][1](c, np.sqrt) if a in _STOCK else a * np.power(c, a - 1.0)
        return np.where(m >= 0.0, d, 0.0)

    def theta(self, a, b):
        out = self.phi(np.minimum(a, b))  # phi's ufuncs turn ints and bools into floats
        return float(out) if out.ndim == 0 else out

    def partials(self, a, b):
        return self.theta_and_slope(a, b)[1], self.theta_and_slope(b, a)[1]

    def theta_and_slope(self, a, b):
        """(theta(a, b), d theta/da) from a single min pass."""
        a, b = _pair(a, b)
        m = np.minimum(a, b)
        th, da = self.phi(m), _tie_share(self.dphi(m), a, b)
        if th.ndim == 0:
            return float(th), float(da)
        return th, da

    # Two-node reduction, b = 1 - r, on Python floats: the scalar flow calls
    # these once per stage, where numpy's per-call overhead would dominate.  At a
    # stock alpha they take ``_STOCK``'s formula, and so the array kernel's bits.
    def theta_r(self, r: float) -> float:
        b = 1.0 - r
        m = b if b < r else r  # min(r, b), without the builtin's call
        if not m > 0.0:
            return 0.0
        stock = _STOCK.get(self.alpha)
        return stock[0](m, math.sqrt) if stock else m**self.alpha

    def dtheta_r(self, r: float) -> float:
        """theta'(r): the slope of min(r, 1 - r)**alpha, 0 on the tie r = 1/2.

        For alpha < 1 it is +inf at r = 0 and -inf at r = 1, as ``partials`` gives.
        """
        b, a = 1.0 - r, self.alpha
        if r == b:
            return 0.0
        m, stock = b if b < r else r, _STOCK.get(a)
        try:
            if not m >= 0.0:
                d = 0.0
            elif stock:
                d = stock[1](abs(m), math.sqrt)  # abs: +0.0 for a -0.0, as arrays clamp
            else:
                d = a * m ** (a - 1.0)
        except (ZeroDivisionError, OverflowError):  # 0.5 / 0.0, 0.0 ** -x, or a tiny m ** -x
            d = math.inf
        return d if r < b else 0.0 - d  # not -d: +0.0 at r = 1, as da - db gives


@dataclass(frozen=True)
class ArithmeticMean:
    """theta(a, b) = (a + b) / 2; positive at the boundary, kept for contrast."""

    def theta(self, a, b):
        a, b = _pair(a, b)
        out = 0.5 * (a + b)
        return _maybe_scalar(out, out.ndim == 0)

    def partials(self, a, b):
        th, d = self.theta_and_slope(a, b)
        return d, (d if np.ndim(th) == 0 else d.copy())

    def theta_and_slope(self, a, b):
        th = self.theta(a, b)
        return th, (0.5 if np.ndim(th) == 0 else np.full(th.shape, 0.5))

    def theta_r(self, r: float) -> float:
        return 0.5

    def dtheta_r(self, r: float) -> float:
        return 0.0


@dataclass(frozen=True)
class EntropyInduced:
    """Two-node weight theta(r) = 2 F(r) / F'(r)^2 induced by an entropy potential.

    Only density pairs on the two-node simplex (a + b = 1) are admissible;
    ambient partial derivatives are undefined off that line, so only the
    reduced derivative ``dtheta_r`` is provided.
    """

    potential: object

    def __post_init__(self):
        if not isinstance(self.potential, _TwoNodeEntropy):
            raise DomainError(f"the induced weight needs a two-node entropy potential, "
                              f"got {self.potential!r}")

    def theta(self, a, b):
        a, b = _pair(a, b)
        if np.any(np.abs(a + b - 1.0) > SIMPLEX_TOL):
            raise DomainError("entropy-induced weights need a + b = 1")
        return self.theta_r(a)

    def partials(self, a, b):
        raise DomainError(
            "entropy-induced weights live on the two-node simplex; "
            "use dtheta_r for the reduced derivative"
        )

    def theta_and_slope(self, a, b):
        return self.partials(a, b)

    def theta_r(self, r):
        return self._induced(r, derivative=False)

    def dtheta_r(self, r):
        return self._induced(r, derivative=True)

    def _induced(self, r, derivative: bool):
        """theta (or d theta/dr, with ``derivative``) on (0, 1)."""
        pot = self.potential
        r_arr = np.atleast_1d(_two_node_reals(r))
        if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
            raise DomainError("entropy-induced weights are defined on open (0, 1)")
        out = np.empty_like(r_arr)
        d = r_arr - 0.5
        near = np.abs(d) <= _SERIES_WINDOW
        far = ~near
        if np.any(far):
            rf = r_arr[far]
            F, Fp = pot.value_r(rf), pot.grad_r(rf)
            out[far] = (2.0 / Fp - 4.0 * F * pot.hess_r(rf) / Fp**3 if derivative
                        else 2.0 * F / Fp**2)
        if np.any(near):
            # Quadratic and quartic Taylor coefficients of F about 1/2: c2 from the analytic
            # curvature, c4 from a second difference of it, plenty for the O(d^2) term it feeds.
            c2 = 0.5 * float(pot.hess_r(0.5))
            h = 1e-3
            c4 = (float(pot.hess_r(0.5 + h)) - 2.0 * c2) / (12.0 * h * h)
            dn = d[near]
            out[near] = (-3.0 * (c4 / c2**2) * dn if derivative
                         else (1.0 - 3.0 * (c4 / c2) * dn**2) / (2.0 * c2))
        return float(out[0]) if np.ndim(r) == 0 else out


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    worst_violation: float


@dataclass(frozen=True)
class RuleValidationReport:
    rule: str
    grid_resolution: int
    symmetry: PropertyCheck
    nonnegativity: PropertyCheck
    vanishing_only_at_boundary: PropertyCheck
    monotone_in_min: PropertyCheck

    @property
    def passed(self) -> bool:
        return (
            self.symmetry.passed
            and self.nonnegativity.passed
            and self.vanishing_only_at_boundary.passed
            and self.monotone_in_min.passed
        )


def validate_rule(rule, grid_resolution: int = 100) -> RuleValidationReport:
    """Check symmetry, nonnegativity, boundary vanishing, and min-monotonicity.

    All four properties are evaluated on a uniform grid over [0, 1]^2 and
    reported with the worst observed violation; nothing raises, the report
    is the product.
    """
    grid_resolution = int(real(grid_resolution, "grid_resolution", "an integer >= 10",
                               lambda g: g >= 10 and g % 1 == 0))
    pts = np.linspace(0.0, 1.0, grid_resolution + 1)
    A, B = np.meshgrid(pts, pts, indexing="ij")
    a, b = A.ravel(), B.ravel()
    t = np.asarray(rule.theta(a, b), dtype=float)
    t_swapped = np.asarray(rule.theta(b, a), dtype=float)

    sym_worst = float(np.max(np.abs(t - t_swapped)))
    neg_worst = float(max(0.0, -np.min(t)))

    m = np.minimum(a, b)
    on_boundary = m == 0.0
    boundary_worst = float(np.max(np.abs(t[on_boundary]))) if np.any(on_boundary) else 0.0
    interior_zero = (~on_boundary) & (t <= 0.0)
    interior_worst = float(np.max(m[interior_zero])) if np.any(interior_zero) else 0.0
    vanish_worst = max(boundary_worst, interior_worst)

    # theta must be a nondecreasing function of min(a, b): any pair with a
    # smaller-or-equal min and a larger theta is a violation.
    order = np.argsort(m, kind="stable")
    m_sorted, t_sorted = m[order], t[order]
    uniq, starts = np.unique(m_sorted, return_index=True)
    group_max = np.maximum.reduceat(t_sorted, starts)
    running_max = np.maximum.accumulate(group_max)
    group_of = np.searchsorted(uniq, m_sorted)
    mono_worst = float(max(0.0, np.max(running_max[group_of] - t_sorted)))

    tol = 1e-12
    return RuleValidationReport(
        rule=repr(rule),
        grid_resolution=grid_resolution,
        symmetry=PropertyCheck(sym_worst <= tol, sym_worst),
        nonnegativity=PropertyCheck(neg_worst <= tol, neg_worst),
        vanishing_only_at_boundary=PropertyCheck(vanish_worst <= tol, vanish_worst),
        monotone_in_min=PropertyCheck(mono_worst <= tol, mono_worst),
    )


#: Weight rules by config kind, with a reader for each parameter.
_KINDS = {
    "min_power": (MinPower, {"alpha": _number}),
    "arithmetic_mean": (ArithmeticMean, {}),
    "entropy_induced": (EntropyInduced, {"potential": potential_from_config}),
}


def rule_from_config(doc: dict):
    """Build a weight rule from ``{"kind": ..., ...}`` configuration."""
    return from_config(doc, "weight rule", _KINDS)
