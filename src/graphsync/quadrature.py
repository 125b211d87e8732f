"""Adaptive Simpson quadrature with an explicit error estimate.

Classic bisection scheme: an interval is accepted when the two-half Simpson
sum agrees with the one-panel sum to 15x the local tolerance, and the
Richardson term (difference / 15) is both added as a correction and summed
into the reported error estimate.  Integrable endpoint singularities are the
caller's business (the two-node module clips its integration variable away
from the boundary before calling in).

Numerics: one call integrates one panel or an array of panels, refining the
live intervals of all of them together, one bisection level at a time, with
one integrand call per level.  Acceptance depends only on an interval's own
samples, so the accepted intervals are those of one-at-a-time recursion, and
each panel sums them in that recursion's depth-first order: a panel gives the
same bits alone or among others.  An unreachable tolerance doubles the live
set every level, so more than ``MAX_LIVE`` live intervals is an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureError, broadcastable, real, reals

#: Most intervals one bisection level may refine (two-node calls peak near 1k).
MAX_LIVE = 1 << 16


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate: floats for one panel, arrays for panels."""

    value: float
    error_estimate: float


def _eval(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    bad = ~np.isfinite(y)
    if np.any(bad):
        raise QuadratureError(f"integrand not finite at x={float(x[bad][0])!r}")
    return y


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``a`` and ``b`` are floats, or arrays of panel ends that broadcast
    together; each panel is integrated to ``tol`` on its own.  ``f`` takes
    an array of abscissae and returns the integrand there (a constant may
    come back as a scalar).

    Raises QuadratureError on a non-finite integrand value, when the
    subdivision depth limit is reached without the local error dropping,
    which is how a divergent integrand announces itself, or when more than
    ``MAX_LIVE`` intervals need refining at once.  Ends that are not real numbers, a ``tol``
    that is not positive and finite and a ``max_depth`` that is not an integer >= 0 are a
    DomainError, and ends whose shapes do not broadcast together a DimensionError, raised
    before any sample.
    """
    real(tol, "tol", "positive and finite", lambda v: 0 < v < math.inf)
    real(max_depth, "max_depth", "an integer >= 0", lambda d: d >= 0 and d % 1 == 0)
    a, b = np.broadcast_arrays(*broadcastable(reals(a, "a"), reals(b, "b"), "a", "b"))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    value, error = np.zeros(a.size), np.zeros(a.size)
    panel = np.flatnonzero(a != b)  # a == b integrates to (0, 0) without samples
    A, B = np.minimum(a, b)[panel], np.maximum(a, b)[panel]
    min_width = np.maximum(np.maximum(np.abs(A), np.abs(B)), 1.0) * 1e-15
    P = np.arange(panel.size)  # each live interval's panel
    if panel.size:
        FA, FB, FM = np.split(_eval(f, np.concatenate([A, B, 0.5 * (A + B)])), 3)
        S = (B - A) / 6.0 * (FA + 4.0 * FM + FB)
    done = []
    depth, level_tol = 0, tol
    while A.size:
        if A.size > MAX_LIVE:
            raise QuadratureError(
                f"{A.size} intervals to refine at depth {depth} (limit {MAX_LIVE}); "
                f"tolerance {tol!r} looks unreachable"
            )
        M = 0.5 * (A + B)
        FL, FR = np.split(_eval(f, np.concatenate([0.5 * (A + M), 0.5 * (M + B)])), 2)
        left = (M - A) / 6.0 * (FA + 4.0 * FL + FM)
        right = (B - M) / 6.0 * (FM + 4.0 * FR + FB)
        delta = left + right - S
        ok = (np.abs(delta) <= 15.0 * level_tol) | ((B - A) <= min_width[P])
        done.append((P[ok], A[ok], (left + right + delta / 15.0)[ok], np.abs(delta[ok]) / 15.0))
        more = ~ok
        if depth >= max_depth and np.any(more):
            k = np.flatnonzero(more)[0]
            raise QuadratureError(
                f"no convergence on [{float(A[k])!r}, {float(B[k])!r}] after depth {max_depth}; "
                "integrand looks divergent"
            )
        halves = np.stack([A, M, FA, FL, FM, left]), np.stack([M, B, FM, FR, FB, right])
        A, B, FA, FM, FB, S = np.concatenate([h[:, more] for h in halves], axis=1)
        P = np.concatenate([P[more], P[more]])
        depth, level_tol = depth + 1, 0.5 * level_tol
    if done:
        at, x0, sums, errs = map(np.concatenate, zip(*done))
        order = np.lexsort((-x0, at))  # by panel, each right to left: the recursion's order
        # bincount adds its weights one by one, in the order given.
        value[panel] = np.bincount(at[order], sums[order], panel.size)
        error[panel] = np.bincount(at[order], errs[order], panel.size)
    value = np.where(a > b, -value, value)
    if not shape:
        return QuadratureResult(float(value[0]), float(error[0]))
    return QuadratureResult(value.reshape(shape), error.reshape(shape))
