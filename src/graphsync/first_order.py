"""First-order concentration dynamics on graphs.

The flow on a weighted graph is

    d rho_j / dt = kappa * sum_{l ~ j} omega_jl * theta(rho_j, rho_l) * (rho_j - rho_l),

which conserves total mass and increases sum(rho^2): mass drains from
low-density vertices into high-density ones through every edge whose weight
has not yet shut off.  The limit points put mass 1/m on some m vertices
(equal maxima persist forever; a strict maximum keeps its lead), and on
non-complete graphs mutually non-adjacent vertices can share the mass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, real, vector
from .graphs import Graph
from .integrate import IntegratorSpec, Trajectory
from .potentials import KuramotoQuadratic

#: Sup-norm of the vector field below which a trajectory counts as converged.
#: Must sit far enough below detect_limit's stall tolerance that the state
#: cannot move appreciably over a trailing window after the stop fires; for
#: decay rates up to ~1 per time unit, 1e-13 leaves two orders of margin.
CONVERGENCE_TOL = 1e-13


def first_order_field(graph: Graph, rule, kappa: float, floats: bool = False) -> Callable:
    """Prebuilt vector field rho -> d rho/dt = kappa * Graph.flux(rule, rho, rho) for one run;
    kappa is checked as the quadratic potential checks it.  With ``floats`` the field takes
    and returns a list of floats, with the bits of arrays, where the graph's ``held`` binds
    its float loop (and refuses otherwise); else it takes an array, a list as its array."""
    flux, kappa = graph.held("flux", rule, floats), KuramotoQuadratic(kappa).kappa
    if floats:
        return lambda rho: [kappa * f for f in flux(rho)]
    return lambda rho: kappa * flux(rho, rho)


def rhs_first_order(graph: Graph, rule, kappa: float, rho) -> np.ndarray:
    """Time derivative of the density vector; components sum to zero."""
    return first_order_field(graph, rule, kappa)(vector(rho, "rho", graph.n, DimensionError))


def simulate_first_order(
    graph: Graph,
    rule,
    kappa: float,
    rho0,
    spec: IntegratorSpec,
    *,
    stop_on_convergence: bool = True,
) -> Trajectory:
    """Integrate the concentration flow with per-step simplex clipping.

    Clipping only zeroes round-off-scale negatives; real violations raise.
    The run stops early (stop_reason ``'converged'``) once the sup-norm of
    the vector field falls below CONVERGENCE_TOL at a record point, after
    which the state cannot move appreciably.
    """
    from .flows import simulate  # the flow table, which imports this module
    return simulate("first", graph, rule, kappa, (rho0,), spec,
                    stop=True if stop_on_convergence else None)


@dataclass(frozen=True)
class EquilibriumClass:
    """Support of a rest state: m vertices carrying mass 1/m each.

    ``support`` holds the 1-based labels of vertices above tolerance;
    ``is_member`` tells whether the vector is within tolerance (per
    component) of the flat state on that support.
    """

    m: int
    support: tuple[int, ...]
    value: float
    is_member: bool


def classify_equilibrium(rho, tol: float = 1e-6) -> EquilibriumClass:
    """Identify the support of rho and test closeness to the flat rest state."""
    real(tol, "tol", "finite and >= 0", lambda v: 0 <= v < np.inf)
    rho = vector(rho, "rho")
    support = tuple(int(j + 1) for j in np.flatnonzero(rho > tol))
    m = len(support)
    if m == 0:
        return EquilibriumClass(m=0, support=(), value=float("nan"), is_member=False)
    target = np.zeros_like(rho)
    target[[j - 1 for j in support]] = 1.0 / m
    return EquilibriumClass(
        m=m,
        support=support,
        value=1.0 / m,
        is_member=bool(np.max(np.abs(rho - target)) <= tol),
    )


def max_gap(rho) -> float:
    """Difference between the largest and second-largest components."""
    return _gap(vector(rho, "rho"))


def _gap(rho: np.ndarray) -> float:
    """max_gap of an admitted vector, as the first-order run's observer takes it each record."""
    if rho.size < 2:
        raise DimensionError(f"rho must have 2 or more entries, got {rho!r}")
    two = np.partition(rho, rho.size - 2)[-2:]
    return float(two[1] - two[0])
