"""The graph flows, one record each, read by the simulate functions, the
experiment runner, the CSV writer, the summary, the config and the CLI: a new
graph flow is one more record.  A flow's state is its ``blocks``, one vector
over the vertices each, the density ``rho`` first.  A block's name is its CSV
column prefix, and in lower case with a ``0`` the config key and CLI flag of
its initial data (``S`` -> ``s0``).  The records call the flow modules'
functions through module attributes at call time, so that replacing such an
attribute reaches every run.  ``simulate`` alone decides, once per run with
``Graph.on_floats``, whether the run holds its state as a list of Python floats,
and builds the field (its graph kernel held, and the rule admitted, by ``Graph.held``)
and picks the post-step hook for that, with the array path's bits.  The observers take a
record's array; a sum of squares is ``np.add.reduce``'s, whose order numpy fixes, and not
a BLAS dot, whose bits follow the kernel OpenBLAS picks.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import first_order as fo, hopf_cole as hc, second_order as so
from .errors import ConsistencyError, DimensionError, vector
from .integrate import (IntegratorSpec, Trajectory, clip_array, clip_floats, density_array,
                        density_floats, density_state, integrate)
from .potentials import quadratic_kappa

#: Thresholds defining "synchronised": one dominant density, rest negligible.
SYNC_HI = 0.99
SYNC_LO = 0.01


def is_synchronised(rho: np.ndarray) -> bool:
    top = float(np.max(rho))
    rest = float(np.partition(rho, rho.size - 2)[-2])
    return top > SYNC_HI and rest < SYNC_LO


#: The initial data of a block after the density: ``keyword`` stands in for a
#: vector (and is the default unless ``required``), namely for
#: ``resolve(potential, rho0, *the blocks before it)``.
Block = namedtuple("Block", "keyword required resolve")

#: What a flow's hooks see of one run: the graph's ``pair_energy`` held for its rule, ``model``
#: kappa for the first-order flow and the potential for the others, ``stop`` the caller's option.
Run = namedtuple("Run", "pair_energy model n field stop")


@dataclass(frozen=True)
class Flow:
    """One graph dynamics.  The hooks take the ``Run`` and the packed state y."""

    help: str                   # the simulate-* command's help
    blocks: dict                # name -> Block of its initial data (None for rho)
    field: Callable             # (graph, rule, model, floats) -> the vector field of y
    observers: tuple            # (diagnostic, CSV column or None, hook) at each record
    simulate: Callable          # the public simulate function on (graph, rule, potential,
                                # initial blocks, spec, the config's stop_on_sync)
    post_step: tuple = (None, None)         # maps y after each step: (on arrays, on floats)
    stop: Optional[Callable] = None         # ends the run, given a stop option, ...
    stop_reason: str = "stop_condition"     # ... with this reason
    stop_on_sync: bool = False              # whether a config's stop_on_sync applies
    summary: Callable = lambda traj: {}     # the entries it adds to a run's summary

    @property
    def initial(self) -> dict:
        """The config key of each block's initial data after rho0, with its Block."""
        return {name.lower() + "0": block for name, block in self.blocks.items() if block}


def _sum_sq(v: np.ndarray) -> float:
    return float(np.add.reduce(v * v))


def _inside_simplex(check, run, y):
    check(y[: run.n], so.SIMPLEX_HARD_TOL)
    return y


def _carried_rho_deviation(run, y):
    n = run.n
    dev = float(np.max(np.abs(-(y[n : 2 * n] + y[2 * n :]) / run.model.kappa - y[:n])))
    if dev > hc.CARRIED_RHO_TOL:
        raise ConsistencyError(f"carried and recovered densities diverged by {dev:.3e}")
    return dev


def _energy_summary(traj):
    h = traj.diagnostics["hamiltonian"]
    return {"hamiltonian": {"initial": float(h[0]), "max_drift": float(np.max(np.abs(h - h[0])))},
            "synchronised": bool(is_synchronised(traj.densities[-1]))}


FLOWS = {
    "first": Flow(
        help="first-order concentration flow",
        blocks={"rho": None},
        field=lambda *args: fo.first_order_field(*args),
        observers=(("sum_sq", "sum_sq", lambda run, y: _sum_sq(y)),
                   ("max_gap", "max_gap", lambda run, y: fo._gap(y))),
        simulate=lambda graph, rule, potential, blocks, spec, sync: fo.simulate_first_order(
            graph, rule, quadratic_kappa(potential), *blocks, spec),
        post_step=(lambda run, y: clip_array(y), lambda run, y: clip_floats(y)),
        stop=lambda run, y: float(np.max(np.abs(run.field(y)))) < fo.CONVERGENCE_TOL,
        stop_reason="converged",
    ),
    "second": Flow(
        help="second-order Hamiltonian flow",
        blocks={"rho": None, "S": Block(
            "gradflow", True, lambda potential, rho0: so.gradient_flow_init(rho0, potential).S)},
        field=lambda *args: so.second_order_field(*args),
        # H as second_order.hamiltonian gives it, on a state the run has admitted already.
        observers=(("hamiltonian", "H", lambda run, y: 0.25 * float(run.pair_energy(
                        y[: run.n], y[run.n :], run.model.grad(y[: run.n])))),
                   ("sum_sq", None, lambda run, y: _sum_sq(y[: run.n]))),
        simulate=lambda graph, rule, potential, blocks, spec, sync: so.simulate_second_order(
            graph, rule, potential, so.PhaseState(*blocks), spec,
            stop_when=(lambda st: is_synchronised(st.rho)) if sync else None),
        post_step=(lambda run, y: _inside_simplex(density_array, run, y),
                   lambda run, y: _inside_simplex(density_floats, run, y)),
        stop=lambda run, y: bool(run.stop(so.PhaseState._from_admitted(y))),
        stop_on_sync=True,
        summary=_energy_summary,
    ),
    "hopf_cole": Flow(
        help="flow in split (xi, xi*) variables",
        blocks={"rho": None,
                "xi": Block("zero", False, lambda potential, rho0: np.zeros_like(rho0)),
                "xistar": Block("from-rho", False,
                                lambda potential, rho0, xi0: potential.grad(rho0) - xi0)},
        field=lambda *args: hc.hopf_cole_field(*args),
        observers=(("max_abs_xi", "max_abs_xi",
                    lambda run, y: float(np.max(np.abs(y[run.n : 2 * run.n])))),
                   ("rho_consistency", None, _carried_rho_deviation)),
        simulate=lambda graph, rule, potential, blocks, spec, sync: hc.simulate_hopf_cole(
            graph, rule, potential, hc.HopfColeState(*blocks), spec),
    ),
}


def simulate(dynamics: str, graph, rule, model, blocks, spec: IntegratorSpec, *,
             stop=None) -> Trajectory:
    """The run of every simulate function, from initial ``blocks`` whose density has one entry
    per vertex and lies on the simplex; ``stop`` is None for no stop."""
    flow, n, floats = FLOWS[dynamics], graph.n, graph.on_floats(rule)
    field = flow.field(graph, rule, model, floats)
    run = Run(graph.held("pair_energy", rule), model, n, field, stop)
    y0 = np.concatenate([density_state(vector(blocks[0], "rho0", n, DimensionError)), *blocks[1:]])
    bind = lambda hook: None if hook is None else partial(hook, run)
    traj = integrate(run.field, y0, spec, {name: bind(hook) for name, _, hook in flow.observers},
                     post_step=bind(flow.post_step[floats]), n_density=n,
                     stop_when=bind(None if stop is None else flow.stop), on_floats=floats)
    if traj.stop_reason == "stop_condition":
        traj.stop_reason = flow.stop_reason
    return traj
