"""Fixed-step explicit time integration with trajectory recording.

The integrator is deliberately plain: Euler or classical fourth-order
Runge-Kutta at a constant step, the last one shortened when need be so the
run ends at t_final, with states recorded every ``record_every`` steps plus
the final state.  Observers are scalar functions of the state evaluated at
each record point and stored as named diagnostic series.  Identical inputs
produce bit-identical trajectories; there is no adaptivity and no
randomness.

A small state can step on Python floats, where numpy's per-call dispatch
would outweigh the arithmetic: with ``on_floats`` the run holds it as a list
from the start, stepped by a generated step, the same formulas operation
for operation and so the same bits; only a record builds an array.  That
step is one straight-line function per (scheme, state length), written out
stage by stage and entry by entry and compiled once by ``codegen.compiled``
into a bounded cache.  The two-node flow and the graph flows on at most
``FLOAT_MAX_N`` vertices step so; ``clip_floats`` is the first-order flow's
simplex clip on such a list, and ``density_floats`` the second-order flow's
simplex check.  ``clip_array`` and ``density_array`` are the two on an array run's
density, which the run admitted at entry, so that no step admits it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from typing import Callable, Mapping, Optional

import numpy as np

from .codegen import compiled
from .errors import (DimensionError, DomainError, GraphSyncError, NonFiniteStateError,
                     SimplexViolationError, _float_vector, real, vector)

Rhs = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntegratorSpec:
    """Scheme, step size, horizon, and recording stride."""

    scheme: str = "rk4"
    dt: float = 0.01
    t_final: float = 10.0
    record_every: int = 1

    def __post_init__(self):
        if self.scheme not in ("euler", "rk4"):
            raise DomainError(f"scheme must be 'euler' or 'rk4', got {self.scheme!r}")
        dt = float(real(self.dt, "dt", "positive and finite", lambda v: 0 < v < math.inf))
        t_final = real(self.t_final, "t_final", f"finite and >= dt={dt!r}",
                       lambda v: dt <= v < math.inf)
        record_every = real(self.record_every, "record_every", "an integer >= 1",
                            lambda v: v >= 1 and v % 1 == 0)
        if not t_final / dt < math.inf:
            raise DomainError(f"t_final / dt must be a finite step count, got {t_final!r} / {dt!r}")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_final", float(t_final))
        object.__setattr__(self, "record_every", int(record_every))

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))

    @property
    def final_step(self) -> tuple[float, float]:
        """Size and end time of the last step.

        A full dt ending at n_steps * dt when t_final / dt is within 1e-12 of
        an integer; otherwise the shorter remainder, which ends at t_final.
        """
        n = self.n_steps
        if n - self.t_final / self.dt <= 1e-12:
            return self.dt, n * self.dt
        return self.t_final - (n - 1) * self.dt, self.t_final


@dataclass
class Trajectory:
    """Recorded states at strictly increasing times plus named diagnostics.

    ``n_density`` gives how many leading state columns are densities, which
    the analysis helpers use to form the synchronisation gap.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    n_density: int = 0
    stop_reason: str = "t_final"

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise DomainError("times and states lengths differ")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise DomainError("record times must be strictly increasing")

    @property
    def densities(self) -> np.ndarray:
        return self.states[:, : self.n_density]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _euler_step(rhs: Rhs, y: np.ndarray, dt: float) -> np.ndarray:
    return y + dt * rhs(y)

def _rk4_step(rhs: Rhs, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    # k + k is 2.0 * k to the bit, without a Python float to convert.
    return y + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


_STEPPERS = {"euler": _euler_step, "rk4": _rk4_step}


@lru_cache(maxsize=64)
def _float_stepper(scheme: str, size: int):
    """The RK4 or Euler step of a state of ``size`` floats held as a list, as
    ``step(rhs, y, dt)``, where ``rhs`` maps such a list to a sequence of as many floats:
    the array step's formulas, operation for operation, so the same bits.  One straight-line
    function, compiled once per (scheme, size) and cached: it unpacks y and each stage into
    locals and writes every stage's list out entry by entry."""
    def names(prefix: str) -> str:  # a list target, which unpacks any length, 0 too
        return "[" + ", ".join(f"{prefix}{v}" for v in range(size)) + "]"

    def stage(step: str, slope: str) -> str:
        return "[" + ", ".join(f"y{v} + {step} * {slope}{v}" for v in range(size)) + "]"

    euler = scheme == "euler"
    lines = ["def step(rhs, y, dt):", f"{names('y')} = y"]
    if euler:
        lines += [f"{names('d')} = rhs(y)", f"return {stage('dt', 'd')}"]
    else:
        lines += ["h = 0.5 * dt", f"{names('a')} = rhs(y)", f"{names('b')} = rhs({stage('h', 'a')})",
                  f"{names('c')} = rhs({stage('h', 'b')})", f"{names('d')} = rhs({stage('dt', 'c')})",
                  "w = dt / 6.0",
                  "return [" + ", ".join(f"y{v} + w * (a{v} + (b{v} + b{v}) + (c{v} + c{v}) + d{v})"
                                        for v in range(size)) + "]"]
    return compiled("step", lines, f"<{'Euler' if euler else 'RK4'} step of {size} floats>")


def integrate(
    rhs: Rhs,
    state0,
    spec: IntegratorSpec,
    observers: Optional[Mapping[str, Callable[[np.ndarray], float]]] = None,
    *,
    post_step: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    stop_when: Optional[Callable[[np.ndarray], bool]] = None,
    n_density: Optional[int] = None,
    on_floats: bool = False,
) -> Trajectory:
    """Advance ``state0`` under ``rhs`` and record a Trajectory.

    ``post_step`` may transform the state after each step (used for simplex
    clipping in the first-order flow).  ``stop_when`` is checked at record
    points; when it fires, recording stops and the trajectory is marked with
    ``stop_reason='stop_condition'``.  ``state0`` is admitted by errors.vector, and a
    NaN or infinity that a step reaches raises NonFiniteStateError.  A GraphSyncError
    raised in the loop (by the step, ``post_step``, an observer or ``stop_when``)
    carries the trajectory so far; its stop_reason is ``'nonfinite'`` for a
    NonFiniteStateError and the error's class name otherwise.  ``rhs``, ``post_step`` and
    ``stop_when`` take the state as the run holds it, which ``on_floats`` makes a list of
    floats from the start, stepped by the generated step of its scheme and length; only the
    records and the observers see an array, a copy.  The caller builds them for that
    representation, and the stepper and the finiteness check are picked here, once per run.
    """
    observers = dict(observers or {})
    y = vector(state0, "state0")
    dim = y.size
    step, finite = ((_float_stepper(spec.scheme, dim), lambda y: all(map(math.isfinite, y)))
                    if on_floats else (_STEPPERS[spec.scheme], lambda y: bool(np.isfinite(y).all())))
    y = y.tolist() if on_floats else y
    if n_density is None:
        n_density = dim

    times: list[float] = []
    states: list[np.ndarray] = []
    diag: dict[str, list[float]] = {name: [] for name in observers}

    def record(t: float, y) -> None:
        """Record a copy of y as an array."""
        state = np.array(y)
        # Observers run first, so a failing one leaves no half-written record.
        values = [float(fn(state)) for fn in observers.values()]
        times.append(t)
        states.append(state)
        for series, value in zip(diag.values(), values):
            series.append(value)

    def package(reason: str) -> Trajectory:
        return Trajectory(
            times=np.array(times),
            states=np.array(states).reshape(len(states), dim),
            diagnostics={k: np.array(v) for k, v in diag.items()},
            n_density=n_density,
            stop_reason=reason,
        )

    # A blow-up is reported by NonFiniteStateError, not by numpy's warnings on the way.
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            record(0.0, y)
            if stop_when is not None and stop_when(y):
                return package("stop_condition")

            n_steps, last = spec.n_steps, spec.final_step
            for k in range(1, n_steps + 1):
                dt, t = (spec.dt, k * spec.dt) if k < n_steps else last
                y = step(rhs, y, dt)
                if not finite(y):
                    raise NonFiniteStateError(f"non-finite state at t={t:.6g}")
                if post_step is not None:
                    y = post_step(y)
                if k % spec.record_every == 0 or k == n_steps:
                    record(t, y)
                    if stop_when is not None and stop_when(y):
                        return package("stop_condition")
    except GraphSyncError as exc:
        if exc.trajectory is None:
            nonfinite = isinstance(exc, NonFiniteStateError)
            exc.trajectory = package("nonfinite" if nonfinite else type(exc).__name__)
        raise
    return package("t_final")


#: How far a density's mass may be off one and an entry below zero, at entry and in the clip.
SIMPLEX_TOL = 1e-9

#: The most entries that np.add.reduce sums from 0.0 left to right, one after another, as a loop
#: on floats does; from 8 entries on it sums in unrolled blocks.  A run holds its state on floats
#: only up to here, so that the float clip's mass has project_simplex_clip's bits.
FLOAT_MAX_N = 7


def _check_simplex(s: float, low: float, tol: float) -> None:
    """Refuse a density of mass s and least entry low whose mass is off one, or whose least
    entry is below zero, beyond tol; a NaN or inf entry makes the mass fail."""
    if not abs(s - 1.0) <= tol:  # negated, so that a NaN mass fails it
        raise SimplexViolationError(f"density mass {s!r} differs from 1 beyond tol={tol}")
    # The mass passed, so rho holds no NaN, and low is rho's least entry.
    if low < -tol:
        raise SimplexViolationError(f"density component {low!r} below -tol={-tol}")


def _density(rho) -> np.ndarray:
    """rho as a float vector of length >= 2, NaN and inf passed on, else DimensionError."""
    rho = _float_vector(rho, "density", None, DimensionError)
    if rho.size < 2:
        raise DimensionError(f"density must have 2 or more entries, got {rho!r}")
    return rho


def density_state(rho, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate a density vector: nonnegative entries summing to one."""
    return density_array(_density(rho), tol)


def project_simplex_clip(rho, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Zero out components in [-tol, 0) and renormalise the sum to one.

    Components below -tol, or a total mass off by more than tol (or not
    finite), indicate a real violation and raise rather than being repaired.
    """
    return clip_array(_density(rho), tol)


def density_array(rho: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """density_state of a float array of 2 or more entries that the caller admitted, such as
    an array run's density, with no admission of its own."""
    _check_simplex(float(np.add.reduce(rho)), float(np.fmin.reduce(rho)), tol)
    return rho


def clip_array(rho: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """project_simplex_clip of a float array of 2 or more entries that the caller admitted,
    such as an array run's density, with no admission of its own."""
    s, low = float(np.add.reduce(rho)), float(np.fmin.reduce(rho))
    _check_simplex(s, low, tol)
    if low < 0.0:
        rho = np.where(rho < 0.0, 0.0, rho)
        s = float(np.add.reduce(rho))
    if abs(s - 1.0) > 1e-15:
        rho = rho / s
    return rho


def density_floats(rho: list, tol: float = SIMPLEX_TOL) -> list:
    """density_state of a list of 2 to FLOAT_MAX_N floats, with its decision and messages:
    its mass is summed from 0.0 left to right, as np.add.reduce sums so few entries."""
    _check_simplex(reduce(add, rho, 0.0), min(rho), tol)
    return rho


def clip_floats(rho: list, tol: float = SIMPLEX_TOL) -> list:
    """project_simplex_clip of a list of 2 to FLOAT_MAX_N floats, with its bits, decision
    and messages: its sums run from 0.0 left to right, as np.add.reduce's do on so few entries."""
    s, low = reduce(add, rho, 0.0), min(rho)
    _check_simplex(s, low, tol)
    if low < 0.0:
        rho = [0.0 if v < 0.0 else v for v in rho]
        s = reduce(add, rho, 0.0)
    if abs(s - 1.0) > 1e-15:
        rho = [v / s for v in rho]
    return rho
