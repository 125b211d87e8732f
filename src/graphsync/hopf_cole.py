"""Discrete Hopf-Cole change of variables for the second-order flow.

The substitution splits grad F and S into the pair

    xi   = (grad F(rho) + S) / 2,      xi_star = (grad F(rho) - S) / 2,

so  xi + xi_star = grad F(rho)  and  xi - xi_star = S.  In these variables
the flow becomes

    d xi_j/dt      =  sum_{(k,l)} HessF_jk * omega_kl * theta_kl * (xi_k - xi_l)
                      + sum_{l ~ j} omega_jl * (xi*_l - xi*_j) * (xi_l - xi_j)
                                   * d theta_jl / d rho_j
    d xi*_j/dt     =  the same with xi and xi* exchanged and both signs flipped,

with (k, l) running over ordered adjacent pairs.  Every term in d xi carries
a difference of xi values, so the hyperplane xi = 0 is invariant: starting
from gradient-flow data (S = -grad F, hence xi = 0) keeps xi at exactly zero
for all time, step by step, even in floating point.  That structural zero is
the point of integrating in these variables.

The graph flow accepts only the quadratic potential, so HessF = -kappa I is
applied as -kappa * u, with no n x n matrix.  The field is the second-order
graph operator at S = xi - xi_star, g = xi + xi_star, recombined.  rho is
carried alongside (xi, xi_star), and the carried density is asserted to agree
with the one recovered from the variables, rho = -(xi + xi_star)/kappa, as a
consistency diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConsistencyError, DomainError
from .graphs import Graph
from .integrate import IntegratorSpec, Trajectory
from .potentials import quadratic_kappa
from .second_order import PhaseState, VertexBlocks, block_rhs

#: Consistency tolerances: defining relation, and carried-vs-recovered rho.
RELATION_TOL = 1e-6
CARRIED_RHO_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class HopfColeState(VertexBlocks):
    """Carried density plus the split pair (xi, xi_star)."""

    _error = DomainError

    rho: np.ndarray
    xi: np.ndarray
    xi_star: np.ndarray


def to_hopf_cole(state: PhaseState, potential) -> HopfColeState:
    """Split (rho, S) into (rho, xi, xi_star); F must be the quadratic potential."""
    g = -quadratic_kappa(potential) * state.rho
    return HopfColeState(
        rho=state.rho,
        xi=0.5 * (g + state.S),
        xi_star=0.5 * (g - state.S),
    )


def from_hopf_cole(hc: HopfColeState, potential) -> PhaseState:
    """Invert the split; raises if xi + xi_star is off grad F(rho) by more than RELATION_TOL.

    F must be the quadratic potential; the density is recovered from the
    variables themselves (rho = -(xi + xi_star)/kappa).
    """
    kappa = quadratic_kappa(potential)
    defect = float(np.max(np.abs(hc.xi + hc.xi_star - (-kappa * hc.rho))))
    if defect > RELATION_TOL:
        raise ConsistencyError(
            f"xi + xi_star differs from grad F(rho) by {defect:.3e} (tol {RELATION_TOL:g})"
        )
    return PhaseState(rho=-(hc.xi + hc.xi_star) / kappa, S=hc.xi - hc.xi_star)


def hopf_cole_field(graph: Graph, rule, potential, floats: bool = False) -> Callable:
    """Prebuilt packed field y = (rho, xi, xi_star) -> derivatives for one run, from the sums
    ``Graph.second_order_terms``, held for the run, at S = xi - xi_star, g = xi + xi_star:
    K(g - S, g + S) = 4 K(xi_star, xi) and F(xi), F(xi_star) = (F(g) +- F(S)) / 2.  At
    xi = 0, S = -g exactly, so F(S) = -F(g), K = 0 and d xi = 0.  With ``floats`` the field
    takes and returns a list of floats, with the bits of arrays, where the graph's ``held``
    binds its float loop (and refuses otherwise); else it takes an array, a list as its array."""
    half = 0.5 * quadratic_kappa(potential)
    n, terms = graph.n, graph.held("second_order_terms", rule, floats)

    def float_field(y):
        rho, xi, xs = y[:n], y[n : 2 * n], y[2 * n :]
        f_S, kinetic, f_g = terms(rho, [a - b for a, b in zip(xi, xs)],
                                  [a + b for a, b in zip(xi, xs)])
        cross = [0.25 * k for k in kinetic]
        return (f_S + [c - half * (fg + fs) for c, fg, fs in zip(cross, f_g, f_S)]
                + [half * (fg - fs) - c for c, fg, fs in zip(cross, f_g, f_S)])

    def field(y):
        y = np.asarray(y)
        rho, xi, xs = y[:n], y[n : 2 * n], y[2 * n :]
        f_S, kinetic, f_g = terms(rho, xi - xs, xi + xs)
        cross = 0.25 * kinetic
        return np.concatenate([f_S, cross - half * (f_g + f_S), half * (f_g - f_S) - cross])

    return float_field if floats else field


def rhs_hopf_cole(graph: Graph, rule, potential, hc: HopfColeState):
    """Time derivatives (d rho, d xi, d xi_star)."""
    return block_rhs(hopf_cole_field, graph, rule, potential, hc)


def simulate_hopf_cole(
    graph: Graph,
    rule,
    potential,
    hc0: HopfColeState,
    spec: IntegratorSpec,
) -> Trajectory:
    """Integrate in split variables, tracking max|xi| at record points.

    The initial state must satisfy the split's defining relation (see
    ``from_hopf_cole``), and the carried density is checked against the
    recovered one (-(xi + xi_star)/kappa) at every record point; divergence
    beyond CARRIED_RHO_TOL raises ConsistencyError.
    """
    from .flows import simulate  # the flow table, which imports this module
    from_hopf_cole(hc0, potential)
    return simulate("hopf_cole", graph, rule, potential, (hc0.rho, hc0.xi, hc0.xi_star), spec)
