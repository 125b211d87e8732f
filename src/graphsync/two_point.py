"""Closed-form machinery on the two-node graph.

State is the pair (r, S): mass on node 1 and the potential difference
between the nodes.  With a reduced potential F(r) and weight theta(r) the
flow is the canonical system of H(r, S) = (theta/2) (S^2 - F'(r)^2):

    dr/dt = S * theta(r)
    dS/dt = theta * F' * F'' + (theta'/2) * (F'^2 - S^2),

so H is a constant of motion.  For the quadratic potential with coupling
kappa, F'(r) = -kappa (2r - 1) and F'' = -2 kappa.

The boundary-value analytics run in the stretched coordinate
x(r) = integral from 1/2 to r of d r* / sqrt(theta(r*)), where the
energy-at-fixed-budget path solves x'' = x when F(r) = x(r)^2 / 2 (the
entropy-induced weights are constructed to satisfy exactly that).  The
time-1 path between r0 and r1 is then

    x(t) = [sinh(1 - t) x(r0) + sinh(t) x(r1)] / sinh(1),

its action has the closed form implemented in :func:`action`, and the
induced squared-distance divergence is (x(r1) - x(r0))^2 / (2 sinh 1).

Numerics: the reduced flow runs on Python floats.  Each run builds one
kernel (r, S) -> (dr, dS) from the rule's float reduction theta_r, dtheta_r
and a coupling kappa checked once; the integrator's field unpacks its state
once per stage.  Squares are products (S * S), which overflow to inf where
S ** 2 would raise, so blow-ups surface as NonFiniteStateError; an RK4 stage
whose r is NaN gets a NaN slope for the same reason.

One array integrand, 1/sqrt(theta), serves every use of x.  x(r)
is adaptive Simpson quadrature from 1/2, with r clipped 1e-8 away from the
density boundary.  The boundary-value path caches x on 1025 nodes around 1/2
from one quadrature call over all node-to-node panels, interpolates between
nodes by cubic Hermite and inverts by bisection-safeguarded Newton, both
with the integrand as slope.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateDerivativeError,
    DomainError,
    InversionRangeError,
    QuadratureError,
    UnsupportedRegimeError,
)
from .integrate import IntegratorSpec, Trajectory, integrate
from .potentials import KuramotoQuadratic
from .quadrature import QuadratureResult, adaptive_simpson

#: Clipping distance from the density boundary for singular integrands.
BOUNDARY_CLIP = 1e-8
#: Default absolute quadrature tolerance for the stretched coordinate.
X_QUAD_TOL = 1e-10
#: Half-width of the series window around r = 1/2 for induced weights.
_SERIES_WINDOW = 1e-4


@dataclass(frozen=True)
class TwoPointState:
    """Mass r on node 1 (node 2 carries 1 - r) and potential difference S."""

    r: float
    S: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0):
            raise DomainError(f"r must lie in [0, 1], got {self.r}")


@dataclass(frozen=True)
class RateClass:
    """Decay law of the gap 1 - r: extinction, exponential, or algebraic."""

    kind: str
    rate: Optional[float] = None
    power: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("finite_time_extinction", "exponential", "algebraic"):
            raise DomainError(f"unknown rate kind {self.kind!r}")
        if self.rate is not None and self.rate <= 0:
            raise DomainError("rate must be positive")
        if self.power is not None and self.power <= 0:
            raise DomainError("power must be positive")


def _quadratic_rhs(rule, kappa: float) -> Callable[[float, float], tuple[float, float]]:
    """The float kernel (r, S) -> (dr, dS) for coupling kappa.

    kappa is checked once, here, by the quadratic potential; F'(r) is then
    -kappa (2r - 1) and F'' is -2 kappa.
    """
    kappa = KuramotoQuadratic(kappa=float(kappa)).kappa
    fpp = -2.0 * kappa
    theta_r, dtheta_r = rule.theta_r, rule.dtheta_r

    def rhs(r: float, S: float) -> tuple[float, float]:
        th, thp = theta_r(r), dtheta_r(r)
        if not math.isfinite(thp):
            raise DegenerateDerivativeError(f"d theta/dr infinite at r={r}")
        fp = -kappa * (2.0 * r - 1.0)
        return S * th, th * fp * fpp + 0.5 * thp * (fp * fp - S * S)

    return rhs


def rhs_two_point(rule, kappa: float, state: TwoPointState) -> tuple[float, float]:
    """Canonical (dr, dS) for the quadratic potential with coupling kappa.

    Matches the full two-vertex graph dynamics exactly, and keeps
    H = (theta/2)(S^2 - kappa^2 (2r - 1)^2) constant along solutions.
    """
    return _quadratic_rhs(rule, kappa)(state.r, state.S)


def hamiltonian_two_point(rule, kappa_or_potential, state: TwoPointState) -> float:
    """H = (theta/2) (S^2 - F'(r)^2); a number is read as the coupling kappa."""
    if isinstance(kappa_or_potential, numbers.Real):
        fp = -KuramotoQuadratic(kappa=float(kappa_or_potential)).kappa * (2.0 * state.r - 1.0)
    else:
        fp = kappa_or_potential.grad_r(state.r)
    return 0.5 * rule.theta_r(state.r) * (state.S * state.S - fp * fp)


def simulate_two_point(
    rule,
    kappa: float,
    state0: TwoPointState,
    spec: IntegratorSpec,
    boundary_tol: float = 1e-12,
) -> Trajectory:
    """Integrate the reduced flow; stops when r reaches either boundary.

    States are recorded as (r, S) rows with ``n_density = 1`` so the gap
    used by the rate-fitting helpers is 1 - r.  Runs that push S to
    infinity in finite time surface as NonFiniteStateError.
    """
    rhs = _quadratic_rhs(rule, kappa)

    def field(y: np.ndarray) -> np.ndarray:
        r, S = y.tolist()
        if math.isnan(r):
            # An RK4 stage past a blow-up: a non-finite slope makes integrate
            # stop with NonFiniteStateError and the partial trajectory.
            return np.full(2, math.nan)
        return np.array(rhs(_clip01(r), S))

    def hit_boundary(y: np.ndarray) -> bool:
        return min(y[0], 1.0 - y[0]) <= boundary_tol

    def energy(y: np.ndarray) -> float:
        r, S = y.tolist()
        return hamiltonian_two_point(rule, kappa, TwoPointState(_clip01(r), S))

    return integrate(field, [state0.r, state0.S], spec, {"hamiltonian": energy},
                     stop_when=hit_boundary, n_density=1)


def _clip01(r: float) -> float:
    return min(max(r, 0.0), 1.0)


def rate_class(alpha: float, H0: float) -> RateClass:
    """Decay law of 1 - r for weight min(r, 1-r)**alpha at energy H0.

    The branch family switches discontinuously at H0 = 0: on the
    zero-energy (gradient-flow) branch the thresholds sit at alpha = 1,
    on the positive-energy branch at alpha = 2 with the exponential rate
    sqrt(2 H0).
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if H0 < 0:
        raise UnsupportedRegimeError("negative energies are not classified")
    if H0 == 0:
        if alpha < 1:
            return RateClass("finite_time_extinction")
        if alpha == 1:
            return RateClass("exponential")
        return RateClass("algebraic", power=1.0 / (alpha - 1.0))
    if alpha < 2:
        return RateClass("finite_time_extinction")
    if alpha == 2:
        return RateClass("exponential", rate=math.sqrt(2.0 * H0))
    return RateClass("algebraic", power=1.0 / (alpha / 2.0 - 1.0))


def closed_form_gap(alpha: float, C: float, x0: float, t) -> float:
    """Solution of dx/dt = C (1 - x)**alpha with x(0) = x0, for alpha >= 1.

    alpha = 1 gives 1 - (1 - x0) exp(-C t); alpha > 1 gives
    1 - ((1 - x0)**(1 - alpha) + C (alpha - 1) t)**(-1 / (alpha - 1)).
    This is the oracle problem for the integrator-order tests.
    """
    if alpha < 1:
        raise UnsupportedRegimeError("closed form covers alpha >= 1 only")
    if C <= 0:
        raise DomainError(f"C must be positive, got {C}")
    if not (0.0 <= x0 < 1.0):
        raise DomainError(f"x0 must lie in [0, 1), got {x0}")
    t = np.asarray(t, dtype=float)
    if alpha == 1:
        out = 1.0 - (1.0 - x0) * np.exp(-C * t)
    else:
        base = (1.0 - x0) ** (1.0 - alpha) + C * (alpha - 1.0) * t
        out = 1.0 - base ** (-1.0 / (alpha - 1.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Entropy-induced two-node weights.
# ---------------------------------------------------------------------------

def _series_coefficients(potential) -> tuple[float, float]:
    """Quadratic and quartic Taylor coefficients of F about r = 1/2.

    c2 comes from the analytic curvature; c4 from a second difference of the
    curvature, which is plenty accurate for the O(d^2) correction it feeds.
    """
    c2 = 0.5 * float(potential.hess_r(0.5))
    h = 1e-3
    c4 = (float(potential.hess_r(0.5 + h)) - 2.0 * c2) / (12.0 * h * h)
    return c2, c4


def _induced(pot, r, derivative: bool):
    """theta (or d theta/dr, with ``derivative``) of the induced weight on (0, 1).

    Within |r - 1/2| <= 1e-4 the quotients of F and its derivatives lose
    their digits to the removable singularity; the Taylor series stands in.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise DomainError("entropy-induced weights are defined on open (0, 1)")
    out = np.empty_like(r_arr)
    d = r_arr - 0.5
    near = np.abs(d) <= _SERIES_WINDOW
    far = ~near
    if np.any(far):
        rf = r_arr[far]
        F, Fp = pot.value_r(rf), pot.grad_r(rf)
        out[far] = 2.0 / Fp - 4.0 * F * pot.hess_r(rf) / Fp**3 if derivative else 2.0 * F / Fp**2
    if np.any(near):
        c2, c4 = _series_coefficients(pot)
        dn = d[near]
        out[near] = (-3.0 * (c4 / c2**2) * dn if derivative
                     else (1.0 - 3.0 * (c4 / c2) * dn**2) / (2.0 * c2))
    return float(out[0]) if np.ndim(r) == 0 else out


def entropy_induced_theta(potential, r):
    """Two-node weight theta(r) = 2 F(r) / F'(r)^2 for an entropy potential.

    Both numerator and denominator vanish quadratically at r = 1/2; inside a
    small window around it the removable singularity is evaluated from the
    Taylor expansion of F, giving theta(1/2) = 1 / F''(1/2).
    """
    return _induced(potential, r, derivative=False)


def entropy_induced_theta_prime(potential, r):
    """d theta/dr for the induced weight: 2/F' - 4 F F'' / F'^3 away from 1/2."""
    return _induced(potential, r, derivative=True)


def entropy_theta_fn(potential) -> Callable:
    """Vectorised r -> theta(r) closure for the quadrature machinery."""
    return lambda r: entropy_induced_theta(potential, r)


# ---------------------------------------------------------------------------
# Stretched coordinate, boundary-value path, action, divergence.
# ---------------------------------------------------------------------------

def _inv_sqrt_theta(theta_fn: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand 1/sqrt(theta) of the stretched coordinate, on arrays.

    A constant theta may return a scalar; one that takes only scalars is
    applied point by point.
    """

    def f(r: np.ndarray) -> np.ndarray:
        try:
            th = np.broadcast_to(np.asarray(theta_fn(r), dtype=float), r.shape)
        except (TypeError, ValueError):
            th = np.array([float(theta_fn(float(s))) for s in r])
        ok = (th > 0.0) & np.isfinite(th)
        if not ok.all():
            k = np.argmin(ok)  # the first bad point
            raise QuadratureError(f"theta({float(r[k])!r}) = {float(th[k])!r} is not positive")
        return 1.0 / np.sqrt(th)

    return f


def x_of_r_with_error(theta_fn: Callable, r: float, tol: float = X_QUAD_TOL) -> QuadratureResult:
    """Stretched coordinate with the quadrature error estimate attached."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"r must lie in [0, 1], got {r}")
    r_eff = min(max(r, BOUNDARY_CLIP), 1.0 - BOUNDARY_CLIP)
    return adaptive_simpson(_inv_sqrt_theta(theta_fn), 0.5, r_eff, tol=tol)


def x_of_r(theta_fn: Callable, r: float, tol: float = X_QUAD_TOL) -> float:
    """x(r) = integral from 1/2 to r of dr*/sqrt(theta); odd about r = 1/2
    when theta is symmetric.  r is clipped 1e-8 away from the boundary."""
    return x_of_r_with_error(theta_fn, r, tol=tol).value


class _StretchMap:
    """Cached monotone map r -> x on a bracket around 1/2, with fast inversion.

    Node values are cumulative sums of one adaptive quadrature over all
    node-to-node panels, anchored at x(1/2) = 0 (1/2 is itself a node);
    between nodes the map is evaluated by cubic Hermite with the analytic
    slope 1/sqrt(theta), accurate far beyond the inversion tolerance at the
    node spacing used.
    """

    def __init__(self, theta_fn: Callable, lo: float, hi: float, n_nodes: int = 1025):
        if not lo < 0.5 < hi:
            raise DomainError(f"bracket [{lo}, {hi}] must hold 1/2 strictly inside")
        nodes = np.unique(np.concatenate([np.linspace(lo, hi, n_nodes), [0.5]]))
        self.nodes, self.inv_sqrt_theta = nodes, _inv_sqrt_theta(theta_fn)
        self.slope = self.inv_sqrt_theta(nodes)
        segs = adaptive_simpson(self.inv_sqrt_theta, nodes[:-1], nodes[1:], tol=1e-13).value
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        self.x = cum - cum[np.searchsorted(nodes, 0.5)]

    def x_at(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        k = np.clip(np.searchsorted(self.nodes, r) - 1, 0, len(self.nodes) - 2)
        r0, r1 = self.nodes[k], self.nodes[k + 1]
        h = r1 - r0
        t = (r - r0) / h
        t2, t3 = t * t, t * t * t
        return (
            (2 * t3 - 3 * t2 + 1) * self.x[k]
            + (t3 - 2 * t2 + t) * h * self.slope[k]
            + (-2 * t3 + 3 * t2) * self.x[k + 1]
            + (t3 - t2) * h * self.slope[k + 1]
        )

    def invert(self, targets) -> np.ndarray:
        """Solve x(r) = target for each target, Newton with bisection guard."""
        targets = np.atleast_1d(np.asarray(targets, dtype=float))
        if np.any(targets < self.x[0] - 1e-12) or np.any(targets > self.x[-1] + 1e-12):
            raise InversionRangeError(
                f"target outside x-range [{self.x[0]!r}, {self.x[-1]!r}]"
            )
        t = np.clip(targets, self.x[0], self.x[-1])
        k = np.clip(np.searchsorted(self.x, t) - 1, 0, len(self.x) - 2)
        lo, hi = self.nodes[k].copy(), self.nodes[k + 1].copy()
        span = self.x[k + 1] - self.x[k]
        frac = np.where(span > 0, (t - self.x[k]) / np.where(span > 0, span, 1.0), 0.5)
        r = lo + frac * (hi - lo)
        scale = max(1.0, float(np.max(np.abs(self.x))))
        for _ in range(60):
            g = self.x_at(r) - t
            too_high = g > 0
            hi = np.where(too_high, r, hi)
            lo = np.where(too_high, lo, r)
            if np.all(np.abs(g) <= 1e-13 * scale):
                break
            step = g / self.inv_sqrt_theta(r)
            r_new = r - step
            outside = (r_new <= lo) | (r_new >= hi)
            r = np.where(outside, 0.5 * (lo + hi), r_new)
            if float(np.max(hi - lo)) <= 1e-15:
                break
        return r


def _path_bracket(r0: float, r1: float) -> tuple[float, float]:
    # |x(t)| never exceeds max(|x0|, |x1|), so the path stays inside the
    # hull of {r0, r1} and its mirror images across 1/2.
    lo = min(r0, r1, 1.0 - max(r0, r1))
    hi = max(r0, r1, 1.0 - min(r0, r1))
    pad = 1e-3 * (hi - lo) + 1e-6
    return max(lo - pad, BOUNDARY_CLIP), min(hi + pad, 1.0 - BOUNDARY_CLIP)


def _check_endpoints(r0: float, r1: float) -> None:
    for name, v in (("r0", r0), ("r1", r1)):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got {v}")


def analytic_solution(theta_fn: Callable, r0: float, r1: float, t):
    """Time-1 boundary-value path r(t) between r0 and r1 in closed form.

    The stretched coordinate follows
    x(t) = [sinh(1 - t) x(r0) + sinh(t) x(r1)] / sinh(1); the returned
    density is the numeric inverse of the coordinate map at x(t).
    Endpoints reproduce r0 and r1 to the inversion tolerance.
    """
    _check_endpoints(r0, r1)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    scalar = np.ndim(t) == 0
    if np.any(t_arr < -1e-12) or np.any(t_arr > 1.0 + 1e-12):
        raise DomainError("path time must lie in [0, 1]")
    if r0 == r1 == 0.5:
        out = np.full_like(t_arr, 0.5)
        return float(out[0]) if scalar else out
    lo, hi = _path_bracket(r0, r1)
    grid = _StretchMap(theta_fn, lo, hi)
    x0, x1 = grid.x_at(np.clip([r0, r1], lo, hi))
    s1 = math.sinh(1.0)
    xt = (np.sinh(1.0 - t_arr) * x0 + np.sinh(t_arr) * x1) / s1
    out = grid.invert(xt)
    return float(out[0]) if scalar else out


def action(theta_fn: Callable, r0: float, r1: float) -> float:
    """Least time-1 transport cost between r0 and r1 (closed form).

    In stretched coordinates x0 = x(r0), x1 = x(r1) the minimiser is the
    sinh-interpolating path, and integrating (xdot^2 + x^2)/2 along it gives

        A = (cosh 1 / (2 sinh 1)) (x0 - x1)^2 + ((cosh 1 - 1)/sinh 1) x0 x1,

    a positive-definite quadratic form in (x0, x1): A >= 0 with equality
    only at x0 = x1 = 0.  (Using cosh(2u) integrated over a unit interval
    contributes sinh(2)/2, i.e. sinh(1) cosh(1) - half of that is the
    coefficient; dropping the half breaks the match with the Lagrangian
    quadrature, which pins these constants.)
    """
    return _action_from_x(x_of_r(theta_fn, r0), x_of_r(theta_fn, r1))


def _action_from_x(x0: float, x1: float) -> float:
    c1, s1 = math.cosh(1.0), math.sinh(1.0)
    return (c1 / (2.0 * s1)) * (x0 - x1) ** 2 + ((c1 - 1.0) / s1) * x0 * x1


def divergence(theta_fn: Callable, r0: float, r1: float) -> float:
    """Squared-distance functional D = (x(r1) - x(r0))^2 / (2 sinh 1).

    Equals A(r0, r1) - A(r0, r0)/2 - A(r1, r1)/2 identically in the x
    values, so the identity holds to round-off when both sides reuse the
    same quadratures.
    """
    return _divergence_from_x(x_of_r(theta_fn, r0), x_of_r(theta_fn, r1))


def _divergence_from_x(x0: float, x1: float) -> float:
    return (x1 - x0) ** 2 / (2.0 * math.sinh(1.0))
