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

from .errors import DegenerateDerivativeError, DimensionError, real, vector
from .graphs import Graph
from .integrate import IntegratorSpec, Trajectory, density_state, integrate  # noqa: F401
from .potentials import quadratic_kappa

#: Hard simplex tolerance for second-order runs (no clipping is applied).
SIMPLEX_HARD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VertexBlocks:
    """A flow's state blocks, the density ``rho`` first: vectors over the vertices, of one
    length, that ``errors.vector`` admits with the class's ``_error``.  Equal to a state
    of the same class with equal blocks; not hashable."""

    _error = DimensionError

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # rho first, whose length the others take
            size = None if name == "rho" else self.n
            object.__setattr__(self, name, vector(getattr(self, name), name, size, self._error))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        names = self.__dataclass_fields__
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in names)

    @property
    def n(self) -> int:
        return self.rho.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, name) for name in self.__dataclass_fields__])

    @classmethod
    def from_vector(cls, y: np.ndarray):
        return cls(*np.array_split(y, len(cls.__dataclass_fields__)))

    @classmethod
    def _from_admitted(cls, y: np.ndarray):
        """from_vector without the admission, for a finite float vector y, an array or a
        list, of a length the blocks divide, such as the state integrate hands its hooks."""
        state = object.__new__(cls)
        for name, block in zip(cls.__dataclass_fields__,
                               np.array_split(y, len(cls.__dataclass_fields__))):
            object.__setattr__(state, name, block)
        return state


@dataclass(frozen=True, eq=False)
class PhaseState(VertexBlocks):
    """Density vector paired with a per-vertex potential vector."""

    rho: np.ndarray
    S: np.ndarray


def second_order_field(graph: Graph, rule, potential, floats: bool = False) -> Callable:
    """Prebuilt packed field y = (rho, S) -> (d rho, d S) for one run; the sums come from
    ``Graph.second_order_terms``, held for the run.  With ``floats`` the field takes and
    returns a list of floats, with the bits of arrays, where the graph's ``held`` binds its
    float loop (and refuses otherwise); else it takes an array, a list as its array."""
    kappa = quadratic_kappa(potential)
    n, terms = graph.n, graph.held("second_order_terms", rule, floats)

    def float_field(y):
        rho = y[:n]  # g = grad F(rho) = -kappa rho, as potential.grad gives it
        drho, kinetic, g_flux = terms(rho, y[n:], [-kappa * v for v in rho])
        return drho + [0.5 * k - kappa * f for k, f in zip(kinetic, g_flux)]

    def field(y):
        rho = y[:n]
        drho, kinetic, g_flux = terms(rho, y[n:], potential.grad(rho))
        return np.concatenate([drho, 0.5 * kinetic - kappa * g_flux])

    return float_field if floats else field


def rhs_second_order(graph: Graph, rule, potential, state: PhaseState):
    """Time derivatives (d rho, d S); d rho components sum to zero."""
    return block_rhs(second_order_field, graph, rule, potential, state)


def block_rhs(factory, graph: Graph, rule, potential, state: VertexBlocks) -> tuple:
    """The time derivative of each of ``state``'s blocks under the field ``factory``
    builds.  A density at which an edge's weight slope is infinite, as min**alpha's
    is for alpha < 1 on an edge with a zero-density end, is refused."""
    vector(state.rho, "rho", graph.n, DimensionError)
    if not graph.slope_is_finite(rule, state.rho):
        raise DegenerateDerivativeError("weight derivative is infinite at a zero-density edge")
    dy = factory(graph, rule, potential)(state.as_vector())
    return tuple(np.split(dy, len(state.__dataclass_fields__)))


def hamiltonian(graph: Graph, rule, potential, state: PhaseState) -> float:
    """Conserved energy of the flow (ordered-pair sum with prefactor 1/4)."""
    quadratic_kappa(potential)
    vector(state.rho, "rho", graph.n, DimensionError)
    return 0.25 * float(graph.pair_energy(rule, state.rho, state.S, potential.grad(state.rho)))


def gradient_flow_init(rho0, potential, sign: int = +1) -> PhaseState:
    """Initial phase state S = -sign * grad F(rho0) selecting a first-order branch.

    sign=+1 reduces the flow to the concentration dynamics of F itself;
    sign=-1 to the flow of -F.  F must be the quadratic potential, whose
    gradient is -kappa * rho0.
    """
    kappa = quadratic_kappa(potential)
    real(sign, "sign", "+1 or -1", lambda s: s in (1, -1), DimensionError)
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
    from .flows import simulate  # the flow table, which imports this module
    return simulate("second", graph, rule, potential, (state0.rho, state0.S), spec, stop=stop_when)
