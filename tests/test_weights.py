import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    for resolution in (5, 9, 10.5, True, "100", None, math.inf, math.nan):
        with pytest.raises(DomainError, match="grid_resolution must be an integer >= 10"):
            gs.validate_rule(gs.MinPower(1.0), grid_resolution=resolution)
    assert gs.validate_rule(gs.MinPower(1.0), grid_resolution=10.0).grid_resolution == 10


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
    assert gs.rule_from_config({"kind": "min_power"}) == gs.MinPower(1.0)
    with pytest.raises(DomainError):
        gs.rule_from_config({"kind": "geometric_mean"})
    for bad in (
        {"kind": "min_power", "alpha": "x"},
        {"kind": "min_power", "alpha": None},
        {"kind": "entropy_induced"},
        {"kind": "entropy_induced", "potential": "tsallis"},
        # theta(0.3) = -3.625 from -(kappa/2) sum rho^2, were it built
        {"kind": "entropy_induced", "potential": {"kind": "kuramoto", "kappa": 1.0}},
        # A mistyped or stray key is refused, not read as the default.
        {"kind": "min_power", "alpah": 3},
        {"kind": "min_power", "alpha": 2.0, "kappa": 1.0},
        {"kind": "arithmetic_mean", "alpha": 2.0},
        {"kind": "entropy_induced", "potenital": {"kind": "shannon"}},
        {"kind": "entropy_induced", "potential": {"kind": "tsallis", "Q": 2.0}},
        {"alpha": 2.0},
        None,
        "min_power",
        ["min_power", 2.0],
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


def _seed_partials(rule, a, b):
    """The partials as the array code first computed them, kept as the reference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if isinstance(rule, gs.ArithmeticMean):
        if a.ndim == 0 and b.ndim == 0:
            return 0.5, 0.5
        a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
        return np.full(a.shape, 0.5), np.full(a.shape, 0.5)
    m = np.minimum(a, b)
    with np.errstate(divide="ignore"):
        if rule.alpha == 0.5:  # phi' at alpha 1/2 is a quotient, not np.power's
            d = 0.5 / np.sqrt(np.maximum(m, 0.0))
        else:
            d = rule.alpha * np.power(np.maximum(m, 0.0), rule.alpha - 1.0)
    d = np.where(m >= 0.0, d, 0.0)
    da = np.where(a < b, d, np.where(a > b, 0.0, 0.5 * d))
    db = np.where(b < a, d, np.where(b > a, 0.0, 0.5 * d))
    return (float(da), float(db)) if da.ndim == 0 else (da, db)


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

    for args in ((a, b), (a[0], b[0]), (a[0], b), (a[:1], b[0])):
        got, want = rule.partials(*args), _seed_partials(rule, *args)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            assert _bits(g) == _bits(w)
        if isinstance(got[0], np.ndarray):
            assert not np.shares_memory(got[0], got[1])



def _within_one_ulp(x: float, y: float) -> bool:
    if x == y:
        return math.copysign(1.0, x) == math.copysign(1.0, y)
    return abs(x - y) <= math.ulp(max(abs(x), abs(y)))


TWO_NODE_RULES = [gs.MinPower(a) for a in (0.5, 1.0, 1.5, 2.0, 3.0)] + [gs.ArithmeticMean()]
#: A dense seeded sample: a rounding gap that shows for one r in a thousand shows here.
R_SAMPLE = np.random.default_rng(0).uniform(0.0, 1.0, 20000).tolist()


@pytest.mark.parametrize("rule", TWO_NODE_RULES, ids=repr)
@settings(max_examples=100, deadline=None)  # the 20000-value example alone takes ~0.1 s
@given(rs=st.lists(st.one_of(unit, st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=100))
@example(rs=R_SAMPLE)
def test_two_node_reduction_on_floats_matches_the_array_kernel(rule, rs):
    # theta_r and dtheta_r run on Python floats; the array theta and
    # partials at (r, 1 - r) are the reference.  At the stock alphas both take
    # the same products, square roots and quotient, so the same bits; the
    # arithmetic mean's a + (1 - a) may be 1 ulp off 1.
    a = np.array(rs)
    want_th = rule.theta(a, 1.0 - a)
    da, db = rule.partials(a, 1.0 - a)
    want_thp = da - db  # inf - 0 at most: a tie has a finite slope
    exact = isinstance(rule, gs.MinPower)
    for r, wth, wthp in zip(rs, want_th.tolist(), want_thp.tolist()):
        th, thp = rule.theta_r(r), rule.dtheta_r(r)
        assert type(th) is float and type(thp) is float
        if exact:
            assert _bits([th, thp]) == _bits([wth, wthp]), (r, th, thp)
        else:
            assert _within_one_ulp(th, wth) and _within_one_ulp(thp, wthp), (r, th, wth, thp, wthp)


def test_two_node_slope_is_inf_where_the_power_fails():
    # Python floats raise where numpy returns inf: 0.0 ** -0.5 and an
    # overflowing m ** (alpha - 1) for a small alpha.
    for alpha, r in ((0.5, 0.0), (0.5, 1.0), (1e-3, 5e-324), (1e-3, 1.0)):
        thp = gs.MinPower(alpha).dtheta_r(r)
        assert math.isinf(thp) and (thp > 0) == (r < 0.5)
    assert gs.MinPower(1e-3).dtheta_r(0.5) == 0.0


@pytest.mark.parametrize("potential", [gs.KuramotoQuadratic(1.0), None, "shannon"], ids=repr)
def test_entropy_induced_refuses_a_potential_that_is_no_two_node_entropy(potential):
    with pytest.raises(DomainError):
        gs.EntropyInduced(potential)

