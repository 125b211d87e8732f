"""Synchronization dynamics on weighted graphs via transport-type couplings.

The package provides, on finite weighted graphs: the first-order
concentration flow of a quadratic potential, the second-order Hamiltonian
flow it embeds into, a Hopf-Cole-style change of variables that preserves
the gradient-flow branch structurally, and, on the two-node graph,
closed-form boundary-value paths, actions, divergences and decay-rate
classification for entropy-induced couplings.  A CLI (``graphsync``) runs
simulations, two-node analytics, and the bundled benchmark experiments.
"""

from .errors import (
    BoundarySingularityError,
    ConsistencyError,
    DegenerateDerivativeError,
    DimensionError,
    DomainError,
    DuplicateEdgeError,
    GraphConstructionError,
    GraphSyncError,
    InversionRangeError,
    NegativeWeightError,
    NonFiniteStateError,
    QuadratureError,
    SelfLoopError,
    SimplexViolationError,
    UnknownGraphNameError,
    UnsupportedRegimeError,
    VertexIndexError,
)
from .graphs import Graph, build_graph, complete_graph, graph_from_json, load_graph, named_graph
from .weights import (
    ArithmeticMean,
    EntropyInduced,
    MinPower,
    RuleValidationReport,
    rule_from_config,
    validate_rule,
)
from .potentials import (
    KuramotoQuadratic,
    RenyiPotential,
    ShannonPotential,
    TsallisPotential,
    potential_from_config,
)
from .integrate import IntegratorSpec, Trajectory, density_state, integrate, project_simplex_clip
from .first_order import (
    EquilibriumClass,
    classify_equilibrium,
    max_gap,
    rhs_first_order,
    simulate_first_order,
)
from .second_order import (
    PhaseState,
    gradient_flow_init,
    hamiltonian,
    rhs_second_order,
    simulate_second_order,
)
from .hopf_cole import (
    HopfColeState,
    from_hopf_cole,
    rhs_hopf_cole,
    simulate_hopf_cole,
    to_hopf_cole,
)
from .two_point import (
    RateClass,
    TwoPointState,
    action,
    analytic_solution,
    closed_form_gap,
    divergence,
    entropy_induced_theta,
    entropy_induced_theta_prime,
    entropy_theta_fn,
    hamiltonian_two_point,
    rate_class,
    rhs_two_point,
    simulate_two_point,
    x_of_r,
)
from .analysis import (
    RateFit,
    detect_limit,
    edge_dichotomy_report,
    fit_power,
    fit_rate,
)
from .experiments import ExperimentConfig, REPRODUCE_TARGETS, run_experiment

__version__ = "0.1.0"
