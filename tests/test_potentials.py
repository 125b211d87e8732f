import math
import warnings

import numpy as np
import pytest

import graphsync as gs
from graphsync.errors import BoundarySingularityError, DimensionError, DomainError

ENTROPY_POTENTIALS = [
    gs.ShannonPotential(),
    gs.RenyiPotential(alpha=2.0),
    gs.RenyiPotential(alpha=0.5),
    gs.TsallisPotential(q=2.0),
    gs.TsallisPotential(q=3.0),
]


def test_kuramoto_values():
    pot = gs.KuramotoQuadratic(kappa=1.0)
    assert pot.value([1.0, 0.0, 0.0]) == pytest.approx(-0.5)
    np.testing.assert_allclose(
        gs.KuramotoQuadratic(2.0).grad([0.5, 0.3, 0.2]),
        [-1.0, -0.6, -0.4],
    )
    np.testing.assert_allclose(pot.hess([0.2, 0.3, 0.5]), -np.eye(3))


@pytest.mark.parametrize("bad", [["a", 1], [[1, 2], [3]], [math.nan, 1], [1.0, math.inf], [True, 0.5],
                                 None, 0.5])
@pytest.mark.parametrize("method", ["value", "hess"])
def test_kuramoto_value_and_hess_admit_the_density(method, bad):
    with pytest.raises(DomainError):
        getattr(gs.KuramotoQuadratic(kappa=1.0), method)(bad)


def test_kuramoto_reduction_consistency():
    pot = gs.KuramotoQuadratic(kappa=1.5)
    for r in [0.1, 0.5, 0.8]:
        rho = np.array([r, 1 - r])
        assert pot.value_r(r) == pytest.approx(pot.value(rho))
        g = pot.grad(rho)
        assert pot.grad_r(r) == pytest.approx(g[0] - g[1])


def test_shannon_values():
    sh = gs.ShannonPotential()
    assert sh.value(0.5) == pytest.approx(0.0, abs=1e-15)
    assert sh.grad(0.5) == pytest.approx(0.0, abs=1e-15)
    assert sh.grad(0.75) == pytest.approx(math.log(3.0))
    assert sh.hess(0.5) == pytest.approx(4.0)
    # 0 log 0 = 0 at the corners
    assert sh.value_r(0.0) == pytest.approx(math.log(2.0))
    assert sh.value_r(1.0) == pytest.approx(math.log(2.0))


def test_tsallis_plug_in():
    assert gs.TsallisPotential(q=2.0).value_r(1.0) == pytest.approx(0.5)


def test_renyi_hessian_against_second_difference():
    pot = gs.RenyiPotential(alpha=2.0)
    h = 1e-5
    fd = (pot.value_r(0.5 + h) - 2 * pot.value_r(0.5) + pot.value_r(0.5 - h)) / h**2
    assert pot.hess_r(0.5) == pytest.approx(fd, rel=1e-5)
    assert pot.hess_r(0.5) == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("pot", ENTROPY_POTENTIALS, ids=repr)
def test_entropy_gradient_matches_central_difference(pot):
    h = 1e-6
    for r in [0.05, 0.2, 0.5, 0.8, 0.95]:
        fd = (pot.value_r(r + h) - pot.value_r(r - h)) / (2 * h)
        assert pot.grad_r(r) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("pot", ENTROPY_POTENTIALS, ids=repr)
def test_entropy_symmetry_and_positivity(pot):
    grid = np.linspace(0.0, 1.0, 101)
    vals = pot.value_r(grid)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)
    assert np.min(vals) >= -1e-15
    assert pot.value_r(0.5) == pytest.approx(0.0, abs=1e-15)
    off_half = np.abs(grid - 0.5) > 1e-9
    assert np.min(vals[off_half]) > 0.0


@pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 0.9])
def test_renyi_limit_to_shannon(r):
    sh = gs.ShannonPotential().value_r(r)
    for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
        assert abs(gs.RenyiPotential(alpha=alpha).value_r(r) - sh) < 1e-3


@pytest.mark.parametrize("r", [0.1, 0.3, 0.7, 0.9])
def test_tsallis_limit_to_shannon(r):
    sh = gs.ShannonPotential().value_r(r)
    assert abs(gs.TsallisPotential(q=1.0 + 1e-4).value_r(r) - sh) < 1e-3


def test_boundary_gradients_raise():
    with pytest.raises(BoundarySingularityError):
        gs.ShannonPotential().grad_r(0.0)
    with pytest.raises(BoundarySingularityError):
        gs.RenyiPotential(alpha=0.5).grad_r(1.0)
    with pytest.raises(BoundarySingularityError):
        gs.TsallisPotential(q=1.5).hess_r(0.0)


@pytest.mark.parametrize("pot", ENTROPY_POTENTIALS + [gs.KuramotoQuadratic(kappa=2.0)], ids=repr)
@pytest.mark.parametrize("method", ["value_r", "grad_r", "hess_r"])
def test_reduced_methods_share_one_guard(pot, method):
    fn = getattr(pot, method)
    grid = np.linspace(0.05, 0.95, 7)
    out = fn(grid)
    assert isinstance(out, np.ndarray) and out.shape == grid.shape
    scalars = [fn(float(r)) for r in grid]
    assert all(type(v) is float for v in scalars)
    assert out.tolist() == scalars
    for bad in (-0.1, 1.2, math.nan):
        with pytest.raises(DomainError):
            fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([0.5, bad]))


@pytest.mark.parametrize(
    "pot",
    ENTROPY_POTENTIALS + [gs.RenyiPotential(alpha=2.5), gs.TsallisPotential(q=2.5),
                          gs.KuramotoQuadratic(kappa=2.0)],
    ids=repr,
)
@pytest.mark.parametrize("method", ["value_r", "grad_r", "hess_r"])
def test_tolerance_band_gives_the_boundary_value(pot, method):
    # r just outside [0, 1], inside the guard's tolerance, is the boundary
    # itself: the same value, or the same singularity, and no warning.
    fn = getattr(pot, method)
    band = np.array([-1e-10, 1.0 + 1e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ends = fn(np.array([0.0, 1.0]))
        except BoundarySingularityError:
            for r in (band, band[0], band[1]):
                with pytest.raises(BoundarySingularityError):
                    fn(r)
            return
        np.testing.assert_array_equal(fn(band), ends)
        assert [fn(band[0]), fn(band[1])] == ends.tolist()


@pytest.mark.parametrize("bad", ["0.3", True, None, [0.3, "x"], np.array([True, False]), 0.3 + 0j],
                         ids=["str", "bool", "none", "list-with-str", "bool-array", "complex"])
@pytest.mark.parametrize("call", [
    lambda r: gs.ShannonPotential().value_r(r),
    lambda r: gs.ShannonPotential().value(r),
    lambda r: gs.TsallisPotential(q=2.0).grad(r),
    lambda r: gs.RenyiPotential(alpha=2.0).hess_r(r),
    lambda r: gs.KuramotoQuadratic(kappa=1.0).grad_r(r),
    lambda r: gs.entropy_induced_theta(gs.ShannonPotential(), r),
    lambda r: gs.EntropyInduced(gs.TsallisPotential(q=2.0)).dtheta_r(r),
], ids=["value_r", "value", "grad", "hess_r", "kuramoto-grad_r", "induced-theta", "induced-dtheta_r"])
def test_two_node_methods_admit_r_as_real_numbers(call, bad):
    # What numpy would read as a number, or fail on with a bare error, is refused by name;
    # a list given to value or grad is a two-node density, which DimensionError refuses.
    with pytest.raises((DomainError, DimensionError), match="real number"):
        call(bad)


def test_entropy_needs_two_nodes():
    with pytest.raises(DimensionError):
        gs.ShannonPotential().value([0.5, 0.3, 0.2])
    with pytest.raises(DomainError):
        gs.ShannonPotential().value([0.7, 0.7])
    # A NaN second entry makes a NaN mass, which is refused, not read past.
    for method in ("value", "grad", "hess"):
        with pytest.raises(DomainError):
            getattr(gs.ShannonPotential(), method)([0.5, math.nan])


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        gs.RenyiPotential(alpha=1.0)
    with pytest.raises(DomainError):
        gs.RenyiPotential(alpha=-0.5)
    with pytest.raises(DomainError):
        gs.RenyiPotential(alpha=0.0)  # degenerate: vanishes everywhere
    with pytest.raises(DomainError):
        gs.TsallisPotential(q=1.0)
    for kappa in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.KuramotoQuadratic(kappa=kappa)
    for bad in (gs.RenyiPotential, gs.TsallisPotential):
        with pytest.raises(DomainError):
            bad(math.nan)
    # A parameter that is no number: a DomainError, not a TypeError from its comparison.
    for build, bad in ((gs.KuramotoQuadratic, "1"), (gs.KuramotoQuadratic, None), (gs.MinPower, "2"),
                       (gs.RenyiPotential, "2"), (gs.TsallisPotential, "3"), (gs.TsallisPotential, [3.0])):
        with pytest.raises(DomainError):
            build(bad)
    # A bool is no number here, and each bound is refused from just outside it.
    below_one, above_one = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    for build, bad in ((gs.KuramotoQuadratic, True), (gs.KuramotoQuadratic, -math.inf),
                       (gs.KuramotoQuadratic, -5e-324), (gs.MinPower, True), (gs.MinPower, math.inf),
                       (gs.MinPower, 0.0), (gs.RenyiPotential, False), (gs.RenyiPotential, math.inf),
                       (gs.RenyiPotential, -5e-324), (gs.TsallisPotential, True),
                       (gs.TsallisPotential, math.inf), (gs.TsallisPotential, below_one)):
        with pytest.raises(DomainError, match=" must be .*, got "):
            build(bad)
    assert gs.TsallisPotential(above_one).q == above_one
    # A config document's number may be a numeric string, never a bool.
    assert gs.potential_from_config({"kind": "kuramoto", "kappa": "2"}) == gs.KuramotoQuadratic(2.0)
    for doc in ({"kind": "kuramoto", "kappa": True}, {"kind": "tsallis", "q": True},
                {"kind": "renyi", "alpha": "two"}, {"kind": "kuramoto", "kappa": "inf"}):
        with pytest.raises(DomainError):
            gs.potential_from_config(doc)
    with pytest.raises(DomainError):
        gs.rule_from_config({"kind": "min_power", "alpha": True})


def test_potential_from_config():
    assert gs.potential_from_config({"kind": "kuramoto", "kappa": 2.0}) == gs.KuramotoQuadratic(2.0)
    assert gs.potential_from_config({"kind": "shannon"}) == gs.ShannonPotential()
    assert gs.potential_from_config({"kind": "renyi", "alpha": 2.0}) == gs.RenyiPotential(2.0)
    assert gs.potential_from_config({"kind": "tsallis", "q": 2.0}) == gs.TsallisPotential(2.0)
    for doc in (
        {"kind": "gibbs"},
        {"kind": "renyi"},
        {"kind": "tsallis", "q": "two"},
        {"kind": "kuramoto", "kappa": None},
        {"kind": ["kuramoto"]},
        # A mistyped or stray key is refused, not read as the default.
        {"kind": "kuramoto", "kapa": 5},
        {"kind": "shannon", "alpha": 2.0},
        {"kind": "renyi", "alpah": 2.0},
        {"kind": "tsallis", "q": 2.0, "alpha": 2.0},
        {"kappa": 2.0},
        None,
        "kuramoto",
    ):
        with pytest.raises(DomainError):
            gs.potential_from_config(doc)
    assert gs.potential_from_config({"kind": "kuramoto"}) == gs.KuramotoQuadratic(1.0)


def test_quadratic_two_node_values_keep_their_bits():
    # The shared guard passes r in [0, 1] through unchanged, ends included.
    pot, r = gs.KuramotoQuadratic(kappa=1.7), np.linspace(0.0, 1.0, 11)
    assert pot.value_r(r).tolist() == (-0.5 * 1.7 * (r**2 + (1.0 - r) ** 2)).tolist()
    assert pot.grad_r(r).tolist() == (-1.7 * (2.0 * r - 1.0)).tolist()
    assert [pot.value_r(v) for v in r] == pot.value_r(r).tolist()
    assert pot.hess_r(0.3) == -3.4 and pot.hess_r(r).tolist() == [-3.4] * 11
