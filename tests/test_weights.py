import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsync as gs
from graphsync.errors import DomainError

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.mark.parametrize(
    "alpha, a, b, want",
    [
        (1.0, 0.3, 0.2, 0.2),
        (2.0, 0.3, 0.2, 0.04),
        (3.0, 0.5, 0.5, 0.125),
    ],
)
def test_min_power_values(alpha, a, b, want):
    assert gs.MinPower(alpha).theta(a, b) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize(
    "alpha, a, b, want",
    [
        (2.0, 0.2, 0.3, (0.4, 0.0)),
        (1.0, 0.5, 0.5, (0.5, 0.5)),
        (3.0, 0.1, 0.9, (0.03, 0.0)),
    ],
)
def test_min_power_partials(alpha, a, b, want):
    da, db = gs.MinPower(alpha).partials(a, b)
    assert da == pytest.approx(want[0], abs=1e-15)
    assert db == pytest.approx(want[1], abs=1e-15)


def test_degenerate_derivative_sentinel():
    da, db = gs.MinPower(0.5).partials(0.0, 0.3)
    assert np.isinf(da) and db == 0.0


def test_alpha_must_be_positive():
    for alpha in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.MinPower(alpha=alpha)


def test_lipschitz_flag():
    assert gs.MinPower(1.0).is_lipschitz
    assert not gs.MinPower(0.5).is_lipschitz


@given(a=unit, b=unit)
def test_theta_symmetry_exact(a, b):
    rule = gs.MinPower(2.0)
    assert rule.theta(a, b) == rule.theta(b, a)


@given(a=unit, b=unit, c=unit, d=unit)
def test_monotone_in_min(a, b, c, d):
    rule = gs.MinPower(1.5)
    if min(a, b) >= min(c, d):
        assert rule.theta(a, b) >= rule.theta(c, d)


@settings(max_examples=50)
@given(
    a=st.floats(min_value=2e-3, max_value=1.0),
    b=st.floats(min_value=2e-3, max_value=1.0),
    alpha=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_partials_match_one_sided_differences(a, b, alpha):
    if abs(a - b) < 1e-4:
        return
    rule = gs.MinPower(alpha)
    h = 1e-7 * max(a, 1.0)
    da, db = rule.partials(a, b)
    fd_a = (rule.theta(a + h, b) - rule.theta(a - h, b)) / (2 * h)
    fd_b = (rule.theta(a, b + h) - rule.theta(a, b - h)) / (2 * h)
    assert da == pytest.approx(fd_a, rel=1e-6, abs=1e-9)
    assert db == pytest.approx(fd_b, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_reduced_derivative_matches_difference_quotient(alpha):
    rule = gs.MinPower(alpha)
    h = 1e-7
    for r in [0.1, 0.3, 0.45, 0.62, 0.9]:
        fd = (rule.theta(r + h, 1 - r - h) - rule.theta(r - h, 1 - r + h)) / (2 * h)
        assert rule.dtheta_r(r) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_partials_vectorised():
    rule = gs.MinPower(2.0)
    a = np.array([0.2, 0.5, 0.9])
    b = np.array([0.3, 0.5, 0.1])
    da, db = rule.partials(a, b)
    np.testing.assert_allclose(da, [0.4, 0.5, 0.0])
    np.testing.assert_allclose(db, [0.0, 0.5, 0.2])


def test_validate_rule_min_power_passes():
    for alpha in (1.0, 2.0):
        report = gs.validate_rule(gs.MinPower(alpha), grid_resolution=100)
        assert report.passed, report


def test_validate_rule_arithmetic_mean_fails_vanishing():
    report = gs.validate_rule(gs.ArithmeticMean(), grid_resolution=50)
    assert not report.vanishing_only_at_boundary.passed
    assert report.vanishing_only_at_boundary.worst_violation == pytest.approx(0.5)
    assert report.symmetry.passed and report.nonnegativity.passed
    assert not report.passed


def test_validate_rule_resolution_floor():
    with pytest.raises(DomainError):
        gs.validate_rule(gs.MinPower(1.0), grid_resolution=5)


def test_entropy_induced_rule():
    rule = gs.EntropyInduced(potential=gs.ShannonPotential())
    assert rule.theta(0.75, 0.25) == pytest.approx(
        gs.entropy_induced_theta(gs.ShannonPotential(), 0.75)
    )
    with pytest.raises(DomainError):
        rule.theta(0.6, 0.6)
    with pytest.raises(DomainError):
        rule.partials(0.6, 0.4)
    with pytest.raises(DomainError):
        rule.theta_and_slope(0.6, 0.4)


def test_rule_from_config():
    rule = gs.rule_from_config({"kind": "min_power", "alpha": 2.0})
    assert rule == gs.MinPower(2.0)
    assert gs.rule_from_config({"kind": "arithmetic_mean"}) == gs.ArithmeticMean()
    ent = gs.rule_from_config(
        {"kind": "entropy_induced", "potential": {"kind": "tsallis", "q": 2.0}}
    )
    assert ent.theta_r(0.6) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        gs.rule_from_config({"kind": "geometric_mean"})
    for bad in (
        {"kind": "min_power", "alpha": "x"},
        {"kind": "min_power", "alpha": None},
        {"kind": "entropy_induced"},
        {"kind": "entropy_induced", "potential": "tsallis"},
    ):
        with pytest.raises(DomainError):
            gs.rule_from_config(bad)


KERNEL_RULES = [gs.MinPower(0.5), gs.MinPower(1.0), gs.MinPower(2.0), gs.MinPower(3.0), gs.ArithmeticMean()]
# Densities as the kernel meets them: interior values, exact zeros, and the
# small negatives that round-off leaves before a simplex repair.
kernel_value = st.one_of(
    unit,
    st.just(0.0),
    st.floats(min_value=-1e-9, max_value=0.0),
)
kernel_pair = st.tuples(kernel_value, kernel_value, st.booleans()).map(
    lambda p: (p[0], p[0]) if p[2] else (p[0], p[1])
)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("rule", KERNEL_RULES, ids=repr)
@settings(max_examples=60)
@given(pairs=st.lists(kernel_pair, min_size=1, max_size=8))
def test_theta_and_slope_matches_theta_and_partials_bitwise(rule, pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    th, slope = rule.theta_and_slope(a, b)
    assert _bits(th) == _bits(rule.theta(a, b))
    assert _bits(slope) == _bits(rule.partials(a, b)[0])

    th0, slope0 = rule.theta_and_slope(a[0], b[0])
    assert isinstance(th0, float) and isinstance(slope0, float)
    assert _bits(th0) == _bits(rule.theta(a[0], b[0]))
    assert _bits(slope0) == _bits(rule.partials(a[0], b[0])[0])

