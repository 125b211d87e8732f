"""Trajectory post-processing: limits, decay-rate fits, dichotomy checks.

The synchronisation gap of a trajectory is 1 - max_j rho_j(t).  Its decay
law is read off by least-squares lines through a transform of the gap:
log(gap) for exponential decay, 1/gap for a 1/t law, 1/gap^2 for a
1/sqrt(t) law, and log-log for a free power estimate.  Gaps at or below
GAP_FLOOR are treated as exhausted double precision and excluded, with the
requested window truncated accordingly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, DomainError, _float_vector, real, vector
from .graphs import Graph
from .integrate import Trajectory

GAP_FLOOR = 1e-14
#: detect_limit's tolerance (sup-norm) and trailing window (time units).
LIMIT_TOL = 1e-8
STALL_WINDOW = 10.0

_TRANSFORMS = {
    "log_gap": np.log,
    "inverse_gap": lambda g: 1.0 / g,
    "inverse_sq_gap": lambda g: 1.0 / g**2,
}


def trajectory_gap(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Record times and the gap 1 - max density at each record."""
    if traj.n_density < 1:
        raise DomainError("trajectory carries no density columns")
    gap = 1.0 - np.max(traj.densities, axis=1)
    return traj.times, gap


def detect_limit(traj: Trajectory) -> Optional[np.ndarray]:
    """Final density if every density over the trailing STALL_WINDOW is within
    LIMIT_TOL (sup-norm) of it; None otherwise."""
    if len(traj.times) == 0:
        raise DomainError("empty trajectory")
    rho = traj.densities
    t_end = traj.times[-1]
    in_window = traj.times >= t_end - STALL_WINDOW
    dev = np.max(np.abs(rho[in_window] - rho[-1]))
    if dev < LIMIT_TOL:
        return rho[-1].copy()
    return None


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through a transform of the gap against time."""

    transform: str
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    truncated: bool = False


def _resolve_window(times, valid, window):
    """Indices inside the (possibly truncated) fit window."""
    if not np.any(valid):
        raise DomainError("gap is below the floor everywhere; nothing to fit")
    t_valid = times[valid]
    truncated = False
    if window is None:
        t_lo = t_valid[0] + 0.5 * (t_valid[-1] - t_valid[0])
        t_hi = t_valid[-1]
    else:
        t_lo, t_hi = (real(t, "window", "a pair of numbers, not NaN", lambda v: v == v)
                      for t in _float_vector(window, "window", 2).tolist())
        if t_hi > t_valid[-1] or t_lo < times[0]:
            truncated = True
            t_hi = min(t_hi, t_valid[-1])
        if not t_lo < t_hi:
            t_lo = t_valid[0] + 0.5 * (t_valid[-1] - t_valid[0])
            truncated = True
    mask = valid & (times >= t_lo) & (times <= t_hi)
    if np.count_nonzero(mask) < 3:
        raise DomainError("fewer than 3 usable records in the fit window")
    if truncated:
        warnings.warn("fit window truncated to where the gap is resolvable", stacklevel=3)
    return mask, (float(times[mask][0]), float(times[mask][-1])), truncated


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid, dev = y - (slope * x + intercept), y - y.mean()
    # math.fsum's sums of squares are correctly rounded, so no BLAS kernel picks their bits.
    ss_res, ss_tot = math.fsum((resid * resid).tolist()), math.fsum((dev * dev).tolist())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2


def fit_rate(traj: Trajectory, transform: str, window=None) -> RateFit:
    """Fit a line through transform(gap) vs t; default window is the
    trailing half of the records where the gap is above GAP_FLOOR."""
    if not isinstance(transform, str) or transform not in _TRANSFORMS:  # a list is unhashable
        raise DomainError(f"transform must be one of {sorted(_TRANSFORMS)}, got {transform!r}")
    times, gap = trajectory_gap(traj)
    valid = gap > GAP_FLOOR
    mask, used_window, truncated = _resolve_window(times, valid, window)
    slope, intercept, r2 = _line_fit(times[mask], _TRANSFORMS[transform](gap[mask]))
    return RateFit(
        transform=transform,
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        window=used_window,
        truncated=truncated,
    )


@dataclass(frozen=True)
class PowerFit:
    """Log-log slope estimate: gap ~ t**(-power) on the window."""

    power: float
    r_squared: float
    window: tuple[float, float]


def fit_power(traj: Trajectory, window=None) -> PowerFit:
    """Estimate the algebraic decay power from a log gap vs log t line."""
    times, gap = trajectory_gap(traj)
    valid = (gap > GAP_FLOOR) & (times > 0.0)
    mask, used_window, _ = _resolve_window(times, valid, window)
    slope, _, r2 = _line_fit(np.log(times[mask]), np.log(gap[mask]))
    return PowerFit(power=-slope, r_squared=r2, window=used_window)


@dataclass(frozen=True)
class EdgeVerdict:
    """Per-edge outcome at a final state: one of the two admissible limits
    (vanishing smaller density or equal densities) or a violation."""

    i: int
    j: int
    verdict: str
    min_value: float
    abs_diff: float


def edge_dichotomy_report(graph: Graph, rho, tol: float = 1e-6) -> tuple[EdgeVerdict, ...]:
    """Classify each edge of a final state: MinVanishes, ValuesEqual, or Violation.

    Edges whose smaller endpoint density is below tol count as MinVanishes
    even if the endpoint values also agree (both zero); equality is only
    reported for edges carrying real mass.
    """
    real(tol, "tol", "finite and >= 0", lambda v: 0 <= v < math.inf)
    rho = vector(rho, "rho", graph.n, DimensionError)
    a, b = rho[graph.edges[:, 0] - 1], rho[graph.edges[:, 1] - 1]
    mn, diff = np.where(b < a, b, a), np.abs(a - b)  # min(a, b) exactly, signed zeros too
    verdict = np.where(mn < tol, "MinVanishes", np.where(diff < tol, "ValuesEqual", "Violation"))
    columns = (*graph.edges.T.tolist(), verdict.tolist(), mn.tolist(), diff.tolist())
    return tuple(map(EdgeVerdict, *columns))
