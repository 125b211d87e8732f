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
and a coupling kappa checked once, and integrate holds (r, S) as a list of
floats throughout and steps it with its generated float step, whole Euler or
RK4 steps with the bits of its array steps; only a record builds an array.
Neither the kernel nor the H observer re-checks its inputs.  Squares
are products (S * S), which overflow to inf where S ** 2 would raise, so
blow-ups surface as NonFiniteStateError; an RK4 stage whose r is NaN gets a
NaN slope for the same reason.

One array integrand, 1/sqrt(theta), serves every use of x.  x(r)
is adaptive Simpson quadrature from 1/2, with r clipped 1e-8 away from the
density boundary; action and divergence take x(r0) and x(r1) from one call
over both panels, which gives each the bits of its own call.  The
boundary-value path caches x on 1025 nodes around 1/2 from one quadrature
call over all node-to-node panels, interpolates between nodes by cubic
Hermite and inverts by bisection-safeguarded Newton, both with the
integrand as slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateDerivativeError,
    DomainError,
    InversionRangeError,
    QuadratureError,
    UnsupportedRegimeError,
    real,
    vector,
    weight_rule,
)
from .integrate import IntegratorSpec, Trajectory, integrate
from .potentials import KuramotoQuadratic
from .quadrature import QuadratureResult, adaptive_simpson
from .weights import EntropyInduced

#: Clipping distance from the density boundary for singular integrands.
BOUNDARY_CLIP = 1e-8
#: Distance from the density boundary at which a two-node run stops.
BOUNDARY_STOP = 1e-12
#: Nodes of the boundary-value path's cached stretch map (1/2 is added).
_STRETCH_NODES = 1025
#: Default absolute quadrature tolerance for the stretched coordinate.
X_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class TwoPointState:
    """Mass r on node 1 (node 2 carries 1 - r) and potential difference S."""

    r: float
    S: float

    def __post_init__(self):
        _check_unit("r", self.r)
        real(self.S, "S", "finite", math.isfinite)


@dataclass(frozen=True)
class RateClass:
    """Decay law of the gap 1 - r: extinction, exponential, or algebraic."""

    kind: str
    rate: Optional[float] = None
    power: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("finite_time_extinction", "exponential", "algebraic"):
            raise DomainError(f"unknown rate kind {self.kind!r}")
        for name, value in (("rate", self.rate), ("power", self.power)):
            if value is not None:
                real(value, name, "positive and finite", lambda v: 0 < v < math.inf)


def _quadratic_rhs(rule, kappa: float) -> Callable[[float, float], tuple[float, float]]:
    """The float kernel (r, S) -> (dr, dS) for a coupling kappa that the quadratic
    potential has checked; F'(r) is then -kappa (2r - 1) and F'' is -2 kappa.
    """
    fpp = -2.0 * kappa
    weight_rule(rule, ("theta_r", "dtheta_r"), "the two-node flow")
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
    return _quadratic_rhs(rule, KuramotoQuadratic(kappa).kappa)(state.r, state.S)


def hamiltonian_two_point(rule, kappa_or_potential, state: TwoPointState) -> float:
    """H = (theta/2) (S^2 - F'(r)^2); anything but a potential is read as the coupling kappa."""
    weight_rule(rule, ("theta_r",), "the two-node H")
    if hasattr(kappa_or_potential, "grad_r"):
        fp = kappa_or_potential.grad_r(state.r)
    else:
        fp = -KuramotoQuadratic(kappa_or_potential).kappa * (2.0 * state.r - 1.0)
    return _energy(rule, state.r, state.S, fp)


def _energy(rule, r: float, S: float, fp: float) -> float:
    """H at an admitted (r, S) with F'(r) = fp: the kernel the run's observer calls each record."""
    return 0.5 * rule.theta_r(r) * (S * S - fp * fp)


def simulate_two_point(
    rule,
    kappa: float,
    state0: TwoPointState,
    spec: IntegratorSpec,
) -> Trajectory:
    """Integrate the reduced flow; stops when r is within BOUNDARY_STOP of either boundary.

    States are recorded as (r, S) rows with ``n_density = 1`` so the gap
    used by the rate-fitting helpers is 1 - r.  Runs that push S to
    infinity in finite time surface as NonFiniteStateError.  The step and the
    boundary stop take the run's list (r, S); the H observer, a record's array.
    """
    kappa = KuramotoQuadratic(kappa).kappa  # read once, here
    kernel = _quadratic_rhs(rule, kappa)

    def rhs(y: list) -> tuple[float, float]:
        r, S = y
        if math.isnan(r):
            # An RK4 stage past a blow-up: a non-finite slope makes integrate
            # stop with NonFiniteStateError and the partial trajectory.
            return math.nan, math.nan
        return kernel(_clip01(r), S)

    def hit_boundary(y: list) -> bool:
        return min(y[0], 1.0 - y[0]) <= BOUNDARY_STOP

    def energy(y: np.ndarray) -> float:
        r, S = y.tolist()
        r = _clip01(r)
        return _energy(rule, r, S, -kappa * (2.0 * r - 1.0))

    return integrate(rhs, [state0.r, state0.S], spec, {"hamiltonian": energy},
                     stop_when=hit_boundary, n_density=1, on_floats=True)


def _clip01(r: float) -> float:
    return min(max(r, 0.0), 1.0)


def rate_class(alpha: float, H0: float) -> RateClass:
    """Decay law of 1 - r for weight min(r, 1-r)**alpha at energy H0.

    The branch family switches discontinuously at H0 = 0: on the
    zero-energy (gradient-flow) branch the thresholds sit at alpha = 1,
    on the positive-energy branch at alpha = 2 with the exponential rate
    sqrt(2 H0).
    """
    real(alpha, "alpha", "positive and finite", lambda v: 0 < v < math.inf)
    real(H0, "H0", "finite and >= 0", lambda v: 0 <= v < math.inf, UnsupportedRegimeError)
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
    real(alpha, "alpha", "finite and >= 1", lambda a: 1 <= a < math.inf, UnsupportedRegimeError)
    real(C, "C", "positive and finite", lambda v: 0 < v < math.inf)
    real(x0, "x0", "in [0, 1)", lambda x: 0 <= x < 1)
    t_arr = vector(t if isinstance(t, (list, tuple)) else np.atleast_1d(t), "t")
    if alpha == 1:
        out = 1.0 - (1.0 - x0) * np.exp(-C * t_arr)
    else:
        base = (1.0 - x0) ** (1.0 - alpha) + C * (alpha - 1.0) * t_arr
        out = 1.0 - base ** (-1.0 / (alpha - 1.0))
    return out if np.ndim(t) else float(out[0])  # np.ndim reads an admitted t, not a ragged one


# ---------------------------------------------------------------------------
# Entropy-induced two-node weights.
# ---------------------------------------------------------------------------

def entropy_induced_theta(potential, r):
    """Two-node weight theta(r) = 2 F(r) / F'(r)^2 for an entropy potential.

    Both numerator and denominator vanish quadratically at r = 1/2; inside a
    small window around it the removable singularity is evaluated from the
    Taylor expansion of F, giving theta(1/2) = 1 / F''(1/2).
    """
    return EntropyInduced(potential).theta_r(r)


def entropy_induced_theta_prime(potential, r):
    """d theta/dr for the induced weight: 2/F' - 4 F F'' / F'^3 away from 1/2."""
    return EntropyInduced(potential).dtheta_r(r)


def entropy_theta_fn(potential) -> Callable:
    """Vectorised r -> theta(r) closure for the quadrature machinery."""
    return EntropyInduced(potential).theta_r


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
    _check_unit("r", r)
    return adaptive_simpson(_inv_sqrt_theta(theta_fn), 0.5, _clip_end(r), tol=tol)


def _x_pair(theta_fn: Callable, r0: float, r1: float) -> QuadratureResult:
    """x(r0) and x(r1), values and error estimates as x_of_r_with_error gives each,
    from one quadrature over the two panels [1/2, r0] and [1/2, r1]."""
    _check_unit("r", r0)
    _check_unit("r", r1)
    ends = [_clip_end(r0), _clip_end(r1)]
    return adaptive_simpson(_inv_sqrt_theta(theta_fn), 0.5, ends, tol=X_QUAD_TOL)


def _clip_end(r: float) -> float:
    return min(max(r, BOUNDARY_CLIP), 1.0 - BOUNDARY_CLIP)


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

    def __init__(self, theta_fn: Callable, lo: float, hi: float):
        if not lo < 0.5 < hi:
            raise DomainError(f"bracket [{lo}, {hi}] must hold 1/2 strictly inside")
        nodes = np.unique(np.concatenate([np.linspace(lo, hi, _STRETCH_NODES), [0.5]]))
        self.nodes, self.inv_sqrt_theta = nodes, _inv_sqrt_theta(theta_fn)
        self.slope = self.inv_sqrt_theta(nodes)
        segs = adaptive_simpson(self.inv_sqrt_theta, nodes[:-1], nodes[1:], tol=1e-13)
        self.error_estimate = float(np.sum(segs.error_estimate))  # summed over the panels
        cum = np.concatenate([[0.0], np.cumsum(segs.value)])
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


def _check_unit(name: str, v: float) -> None:
    real(v, name, "in [0, 1]", lambda x: 0 <= x <= 1)


def analytic_solution(theta_fn: Callable, r0: float, r1: float, t):
    """Time-1 boundary-value path r(t) between r0 and r1 in closed form.

    The stretched coordinate follows
    x(t) = [sinh(1 - t) x(r0) + sinh(t) x(r1)] / sinh(1); the returned
    density is the numeric inverse of the coordinate map at x(t).
    Endpoints reproduce r0 and r1 to the inversion tolerance.
    """
    return _path(theta_fn, r0, r1, t)[0]


def _path(theta_fn: Callable, r0: float, r1: float, t) -> tuple:
    """analytic_solution's r(t), and the summed error estimate of the one quadrature it ran."""
    _check_unit("r0", r0)
    _check_unit("r1", r1)
    t_arr = vector(t if isinstance(t, (list, tuple)) else np.atleast_1d(t), "t")
    if np.any(t_arr < -1e-12) or np.any(t_arr > 1.0 + 1e-12):
        raise DomainError("path time must lie in [0, 1]")
    if r0 == r1 == 0.5:  # no quadrature
        return (np.full_like(t_arr, 0.5) if np.ndim(t) else 0.5), 0.0
    lo, hi = _path_bracket(r0, r1)
    grid = _StretchMap(theta_fn, lo, hi)
    x0, x1 = grid.x_at(np.clip([r0, r1], lo, hi))
    s1 = math.sinh(1.0)
    xt = (np.sinh(1.0 - t_arr) * x0 + np.sinh(t_arr) * x1) / s1
    out = grid.invert(xt)
    return (out if np.ndim(t) else float(out[0])), grid.error_estimate


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
    return _action_from_x(*_x_pair(theta_fn, r0, r1).value.tolist())


def _action_from_x(x0: float, x1: float) -> float:
    c1, s1 = math.cosh(1.0), math.sinh(1.0)
    return (c1 / (2.0 * s1)) * (x0 - x1) ** 2 + ((c1 - 1.0) / s1) * x0 * x1


def divergence(theta_fn: Callable, r0: float, r1: float) -> float:
    """Squared-distance functional D = (x(r1) - x(r0))^2 / (2 sinh 1).

    Equals A(r0, r1) - A(r0, r0)/2 - A(r1, r1)/2 identically in the x
    values, so the identity holds to round-off when both sides reuse the
    same quadratures.
    """
    return _divergence_from_x(*_x_pair(theta_fn, r0, r1).value.tolist())


def _divergence_from_x(x0: float, x1: float) -> float:
    return (x1 - x0) ** 2 / (2.0 * math.sinh(1.0))
