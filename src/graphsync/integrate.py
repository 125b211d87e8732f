"""Fixed-step explicit time integration with trajectory recording.

The integrator is deliberately plain: Euler or classical fourth-order
Runge-Kutta at a constant step, the last one shortened when need be so the
run ends at t_final, with states recorded every ``record_every`` steps plus
the final state.  Observers are scalar functions of the state evaluated at
each record point and stored as named diagnostic series.  Identical inputs
produce bit-identical trajectories; there is no adaptivity and no
randomness.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, GraphSyncError, NonFiniteStateError, SimplexViolationError

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
        values = (self.dt, self.t_final, self.record_every)
        if not all(isinstance(v, numbers.Real) for v in values):
            raise DomainError(f"dt, t_final and record_every must be numbers, got {values!r}")
        if not (0 < self.dt < math.inf and 0 < self.t_final < math.inf):
            raise DomainError(
                f"dt and t_final must be positive and finite, got {self.dt}, {self.t_final}"
            )
        if self.dt > self.t_final:
            raise DomainError(f"dt={self.dt} exceeds t_final={self.t_final}")
        if not (float(self.record_every).is_integer() and self.record_every >= 1):
            raise DomainError(f"record_every must be an integer >= 1, got {self.record_every}")
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_final", float(self.t_final))
        object.__setattr__(self, "record_every", int(self.record_every))

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


def integrate(
    rhs: Rhs,
    state0,
    spec: IntegratorSpec,
    observers: Optional[Mapping[str, Callable[[np.ndarray], float]]] = None,
    *,
    post_step: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    stop_when: Optional[Callable[[np.ndarray], bool]] = None,
    n_density: Optional[int] = None,
) -> Trajectory:
    """Advance ``state0`` under ``rhs`` and record a Trajectory.

    ``post_step`` may transform the state after each step (used for simplex
    clipping in the first-order flow).  ``stop_when`` is checked at record
    points; when it fires, recording stops and the trajectory is marked with
    ``stop_reason='stop_condition'``.  A NaN or infinity in the state raises
    NonFiniteStateError.  A GraphSyncError raised in the loop (by the step,
    ``post_step``, an observer or ``stop_when``) carries the trajectory so
    far; its stop_reason is ``'nonfinite'`` for a NonFiniteStateError and
    the error's class name otherwise.
    """
    observers = dict(observers or {})
    step = _STEPPERS[spec.scheme]
    y = np.array(state0, dtype=float).reshape(-1)
    dim = y.size
    if n_density is None:
        n_density = dim

    times: list[float] = []
    states: list[np.ndarray] = []
    diag: dict[str, list[float]] = {name: [] for name in observers}

    def record(t: float, state: np.ndarray) -> None:
        # Observers run first, so a failing one leaves no half-written record.
        values = [float(fn(state)) for fn in observers.values()]
        times.append(t)
        states.append(state.copy())
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
                if not np.isfinite(y).all():
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


def project_simplex_clip(rho, tol: float = 1e-9) -> np.ndarray:
    """Zero out components in [-tol, 0) and renormalise the sum to one.

    Components below -tol, or a total mass off by more than tol, indicate a
    real violation and raise rather than being silently repaired.
    """
    rho = np.asarray(rho, dtype=float)
    # fmin skips NaN, so `low < -tol` is `any(rho < -tol)`; the message keeps rho.min().
    s, low = float(np.add.reduce(rho)), float(np.fmin.reduce(rho))
    if abs(s - 1.0) > tol:
        raise SimplexViolationError(f"density mass {s!r} differs from 1 beyond tol={tol}")
    if low < -tol:
        raise SimplexViolationError(
            f"density component {float(rho.min())!r} below -tol={-tol}"
        )
    if low < 0.0:
        rho = np.where(rho < 0.0, 0.0, rho)
        s = float(np.add.reduce(rho))
    if abs(s - 1.0) > 1e-15:
        rho = rho / s
    return rho
