"""Second-order Hamiltonian dynamics (rho, S) on graphs.

With g = grad F(rho) and theta_jl = theta(rho_j, rho_l), the flow is the
canonical system of

    H(rho, S) = (1/4) * sum over ordered adjacent pairs (i, j) of
                omega_ij * theta_ij * ((S_i - S_j)^2 - (g_i - g_j)^2),

namely d rho/dt = dH/dS and dS/dt = -dH/d rho:

    d rho_j/dt = sum_{l ~ j} omega_jl * (S_j - S_l) * theta_jl
    d S_j/dt   = (1/2) sum_{l ~ j} omega_jl * ((g_j - g_l)^2 - (S_j - S_l)^2)
                                  * d theta_jl / d rho_j
                 + sum_k HessF_jk * sum_{l ~ k} omega_kl * theta_kl * (g_k - g_l).

Only the quadratic potential is accepted, so HessF = -kappa I and the last
term is applied as -kappa * u, with no n x n matrix.

H is a constant of motion while the state stays away from the boundary of
the simplex (where the weight derivatives degenerate).  Initialising with
S = -sign * grad F collapses the system onto the first-order flow of the
potential sign * F, and H = 0 on that branch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateDerivativeError,
    DimensionError,
    SimplexViolationError,
)
from .first_order import density_state
from .graphs import Graph
from .integrate import IntegratorSpec, Trajectory, integrate
from .potentials import quadratic_kappa

#: Hard simplex tolerance for second-order runs (no clipping is applied).
SIMPLEX_HARD_TOL = 1e-6


@dataclass(frozen=True)
class PhaseState:
    """Density vector paired with a per-vertex potential vector."""

    rho: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        if self.rho.shape != self.S.shape:
            raise DimensionError(
                f"rho and S shapes differ: {self.rho.shape} vs {self.S.shape}"
            )
        if not (np.isfinite(self.rho).all() and np.isfinite(self.S).all()):
            raise DimensionError("rho and S must be finite")

    @property
    def n(self) -> int:
        return self.rho.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rho, self.S])

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "PhaseState":
        n = y.size // 2
        return cls(rho=y[:n], S=y[n:])


def second_order_field(graph: Graph, rule, potential) -> Callable[[np.ndarray], np.ndarray]:
    """Prebuilt packed field y = (rho, S) -> (d rho, d S); the sums come from
    ``Graph.second_order_terms``."""
    kappa = quadratic_kappa(potential)
    n, terms = graph.n, graph.second_order_terms

    def field(y: np.ndarray) -> np.ndarray:
        rho, S = y[:n], y[n:]
        drho, kinetic, g_flux = terms(rule, rho, S, potential.grad(rho))
        return np.concatenate([drho, 0.5 * kinetic - kappa * g_flux])

    return field


def rhs_second_order(graph: Graph, rule, potential, state: PhaseState):
    """Time derivatives (d rho, d S); d rho components sum to zero."""
    if state.n != graph.n:
        raise DimensionError(f"state size {state.n} != vertex count {graph.n}")
    require_finite_slope(graph, rule, state.rho)
    dy = second_order_field(graph, rule, potential)(state.as_vector())
    return dy[: graph.n], dy[graph.n :]


def require_finite_slope(graph: Graph, rule, rho) -> None:
    """Refuse a density at which an edge's weight slope is infinite, as min**alpha's
    is for alpha < 1 on an edge with a zero-density end."""
    if not graph.slope_is_finite(rule, rho):
        raise DegenerateDerivativeError(
            "weight derivative is infinite at a zero-density edge"
        )


def hamiltonian(graph: Graph, rule, potential, state: PhaseState) -> float:
    """Conserved energy of the flow (ordered-pair sum with prefactor 1/4)."""
    quadratic_kappa(potential)
    return 0.25 * float(graph.pair_energy(rule, state.rho, state.S, potential.grad(state.rho)))


def gradient_flow_init(rho0, potential, sign: int = +1) -> PhaseState:
    """Initial phase state S = -sign * grad F(rho0) selecting a first-order branch.

    sign=+1 reduces the flow to the concentration dynamics of F itself;
    sign=-1 to the flow of -F.  F must be the quadratic potential, whose
    gradient is -kappa * rho0.
    """
    kappa = quadratic_kappa(potential)
    if sign not in (+1, -1):
        raise DimensionError(f"sign must be +1 or -1, got {sign}")
    rho0 = density_state(rho0)
    return PhaseState(rho=rho0, S=sign * kappa * rho0)


def simulate_second_order(
    graph: Graph,
    rule,
    potential,
    state0: PhaseState,
    spec: IntegratorSpec,
    *,
    stop_when: Optional[Callable[[PhaseState], bool]] = None,
) -> Trajectory:
    """Integrate the Hamiltonian flow, recording H at each record point.

    No simplex clipping is applied: clipping would break energy
    conservation, so any density excursion beyond SIMPLEX_HARD_TOL raises
    SimplexViolationError instead.
    """
    if state0.n != graph.n:
        raise DimensionError(f"state size {state0.n} != vertex count {graph.n}")
    field = second_order_field(graph, rule, potential)
    density_state(state0.rho)
    n = graph.n

    def guard(y: np.ndarray) -> np.ndarray:
        rho = y[:n]
        if float(rho.min()) < -SIMPLEX_HARD_TOL or abs(float(rho.sum()) - 1.0) > SIMPLEX_HARD_TOL:
            raise SimplexViolationError(
                f"density left the simplex beyond {SIMPLEX_HARD_TOL} "
                f"(min={float(rho.min())!r}, mass={float(rho.sum())!r})"
            )
        return y

    observers = {
        "hamiltonian": lambda y: hamiltonian(
            graph, rule, potential, PhaseState.from_vector(y)
        ),
        "sum_sq": lambda y: float(np.dot(y[:n], y[:n])),
    }
    stop = None
    if stop_when is not None:
        stop = lambda y: bool(stop_when(PhaseState.from_vector(y)))
    return integrate(
        field,
        state0.as_vector(),
        spec,
        observers,
        post_step=guard,
        stop_when=stop,
        n_density=n,
    )
