"""Level-order adaptive Simpson against the one-interval-at-a-time recursion.

``oracle_simpson`` is the recursion the package used before it refined all
panels together: an explicit stack, one scalar integrand call per point.
``oracle_integrand`` is the scalar 1/sqrt(theta) it was fed.  The array form
must accept the same intervals, so it samples the same points and returns
the same sums.
"""
import math
import tracemalloc

import numpy as np
import pytest

import graphsync as gs
from graphsync import quadrature, two_point
from graphsync.errors import DomainError, QuadratureError
from graphsync.quadrature import MAX_LIVE, adaptive_simpson
from graphsync.two_point import BOUNDARY_CLIP, _inv_sqrt_theta, _StretchMap, entropy_theta_fn

POTENTIALS = [
    gs.ShannonPotential(),
    gs.TsallisPotential(q=2.0),
    gs.TsallisPotential(q=3.0),
    gs.RenyiPotential(alpha=2.0),
]


def oracle_simpson(f, a, b, tol=1e-10, max_depth=50):
    def ev(x):
        y = float(f(x))
        if not math.isfinite(y):
            raise QuadratureError(f"integrand not finite at x={x!r}")
        return y

    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    fa, fb = ev(a), ev(b)
    m = 0.5 * (a + b)
    fm = ev(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    err = 0.0
    min_width = max(abs(a), abs(b), 1.0) * 1e-15
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, b0, f0, f1, f2, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm, rm = 0.5 * (a0 + m0), 0.5 * (m0 + b0)
        flm, frm = ev(lm), ev(rm)
        left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        delta = left + right - s0
        if abs(delta) <= 15.0 * tol0 or (b0 - a0) <= min_width:
            total += left + right + delta / 15.0
            err += abs(delta) / 15.0
        elif depth >= max_depth:
            raise QuadratureError(f"no convergence on [{a0!r}, {b0!r}] after depth {max_depth}")
        else:
            half = 0.5 * tol0
            stack.append((a0, m0, f0, flm, f1, left, half, depth + 1))
            stack.append((m0, b0, f1, frm, f2, right, half, depth + 1))
    return sign * total, err


def oracle_integrand(theta_fn):
    return lambda s: 1.0 / math.sqrt(float(theta_fn(s)))


def counting(theta_fn, points):
    def counted(r):
        points.append(np.size(r))
        return theta_fn(r)

    return counted


@pytest.mark.parametrize("potential", POTENTIALS, ids=lambda p: repr(p))
def test_x_of_r_matches_the_recursion(potential):
    fn = entropy_theta_fn(potential)
    rng = np.random.default_rng(20240)
    for r in rng.uniform(0.02, 0.98, 15):
        r = float(r)
        new_points, old_points = [], []
        res = two_point.x_of_r_with_error(counting(fn, new_points), r, tol=1e-10)
        r_eff = min(max(r, BOUNDARY_CLIP), 1.0 - BOUNDARY_CLIP)
        value, err = oracle_simpson(oracle_integrand(counting(fn, old_points)), 0.5, r_eff, tol=1e-10)
        assert abs(res.value - value) <= 1e-14 * abs(value)
        assert abs(res.error_estimate - err) <= 1e-14 * err
        assert sum(new_points) == sum(old_points)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.9, 0.05), (-2.0, 3.5)])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_same_bits_as_the_recursion(a, b, tol):
    # Built from correctly rounded operations only, so array and scalar
    # evaluation agree bit for bit and any change of summation order shows.
    f = lambda x: 1.0 / np.sqrt(x * x + 1e-3) + x * x * x
    res = adaptive_simpson(f, a, b, tol=tol)
    assert (res.value, res.error_estimate) == oracle_simpson(f, a, b, tol=tol)


def test_panels_equal_one_call_per_panel():
    fn = entropy_theta_fn(gs.ShannonPotential())
    nodes = _StretchMap(fn, 0.12, 0.93).nodes
    f = _inv_sqrt_theta(fn)
    panels = adaptive_simpson(f, nodes[:-1], nodes[1:], tol=1e-13)
    alone = [adaptive_simpson(f, a, b, tol=1e-13) for a, b in zip(nodes[:-1], nodes[1:])]
    assert panels.value.tolist() == [q.value for q in alone]
    assert panels.error_estimate.tolist() == [q.error_estimate for q in alone]


def test_empty_and_reversed_limits():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(x)

    assert adaptive_simpson(f, 0.3, 0.3) == quadrature.QuadratureResult(0.0, 0.0)
    assert calls == []
    fwd, back = adaptive_simpson(f, 0.0, 1.0), adaptive_simpson(f, 1.0, 0.0)
    assert back.value == -fwd.value
    assert back.error_estimate == fwd.error_estimate
    assert fwd.value == pytest.approx(math.e - 1.0, abs=1e-10)
    mixed = adaptive_simpson(f, [0.0, 1.0, 0.3], [1.0, 0.0, 0.3])
    assert mixed.value.tolist() == [fwd.value, back.value, 0.0]
    assert mixed.error_estimate.tolist() == [fwd.error_estimate, fwd.error_estimate, 0.0]


def test_constant_integrands_still_integrate():
    assert adaptive_simpson(lambda r: 1.0, 0.0, 2.0).value == 2.0
    assert gs.x_of_r(lambda r: 1.0, 0.9) == pytest.approx(0.4)
    assert gs.analytic_solution(lambda r: 1.0, 0.2, 0.7, 1.0) == pytest.approx(0.7, abs=1e-10)
    # A theta that takes only scalars is applied point by point.
    step = lambda r: 1.0 if r < 0.7 else 4.0
    assert gs.x_of_r(step, 0.9) == pytest.approx(0.2 + 0.1, abs=1e-9)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_simpson(lambda x: np.where(x < 0.6, 1.0, np.nan), 0.0, 1.0)
    with pytest.raises(QuadratureError, match="not positive"):
        gs.x_of_r(lambda r: 0.6 - r, 0.9)


def test_depth_exhaustion_raises():
    with pytest.raises(QuadratureError, match="after depth 3"):
        adaptive_simpson(np.exp, 0.0, 10.0, tol=1e-12, max_depth=3)


def test_unreachable_tolerance_raises_in_bounded_memory():
    points = []
    fn = counting(entropy_theta_fn(gs.ShannonPotential()), points)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match=f"limit {MAX_LIVE}"):
            gs.x_of_r(fn, 0.8, tol=1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(points) <= 2 * MAX_LIVE  # two new points per live interval
    assert peak < 100e6


def test_one_quadrature_per_map_and_array_integrand(monkeypatch):
    calls, seen = [], []
    simpson = two_point.adaptive_simpson

    def counted(f, *args, **kwargs):
        def watched(x):
            seen.append(type(x))
            return f(x)

        calls.append(args)
        return simpson(watched, *args, **kwargs)

    monkeypatch.setattr(two_point, "adaptive_simpson", counted)
    fn = entropy_theta_fn(gs.TsallisPotential(q=2.0))
    _StretchMap(fn, 0.05, 0.95)
    assert len(calls) == 1
    calls.clear()
    path = gs.analytic_solution(fn, 0.2, 0.85, np.array([0.0, 0.5, 1.0]))
    assert len(calls) == 1
    assert path[0] == pytest.approx(0.2, abs=1e-10) and path[-1] == pytest.approx(0.85, abs=1e-10)
    assert seen and set(seen) == {np.ndarray}


def test_map_bracket_must_hold_one_half():
    fn = entropy_theta_fn(gs.ShannonPotential())
    with pytest.raises(DomainError):
        _StretchMap(fn, 0.6, 0.9)
