import inspect
import math

import numpy as np
import pytest

from stickybm import kernel, ldp, quadrature
from stickybm.quadrature import (QuadratureError, QuadratureSpec, gauss_legendre, log_integrate,
                                 logsumexp)

from oracles import reference_log_integrate


def test_spec_validation():
    with pytest.raises(ValueError, match="max_subdivisions must be at least 8"):
        QuadratureSpec(max_subdivisions=4)
    assert QuadratureSpec().max_subdivisions == 20
    assert quadrature._RTOL == 1e-10


def test_an_empty_batch_gives_an_empty_array():
    got = log_integrate(lambda rows, x: -x, [], QuadratureSpec())
    assert got.shape == (0,) and got.dtype == float


def test_gauss_legendre_normalized():
    nodes, w = gauss_legendre(15)
    assert np.all((nodes > 0) & (nodes < 1))
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


def test_the_tabulated_orders_are_the_ones_the_library_passes():
    target_order = inspect.signature(ldp.log_target_probability).parameters["order"].default
    assert sorted(quadrature._RULES) == sorted(
        {kernel._GRID_ORDER, quadrature._ORDER, ldp._SCAN_ORDER, target_order})


@pytest.mark.parametrize("n", sorted(quadrature._RULES))
def test_tabulated_rules_are_leggauss_on_zero_one(n):
    # Within 2 ulp of numpy's rule on any numpy (equal bit for bit on numpy
    # 2.4), and exact on monomials up to degree 2n - 1.
    nodes, w = gauss_legendre(n)
    x, ref_w = np.polynomial.legendre.leggauss(n)
    for got, ref in ((nodes, 0.5 * (x + 1.0)), (w, 0.5 * ref_w)):
        assert got.shape == (n,) and got.dtype == float
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(np.abs(ref)))
    for k in range(2 * n):
        assert abs(float(np.sum(w * nodes ** k)) - 1.0 / (k + 1)) <= 1e-15


@pytest.mark.parametrize("n", [4, 15, 32])
def test_cached_rules_are_read_only(n):
    nodes, w = gauss_legendre(n)
    for arr in (nodes, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    assert gauss_legendre(n)[0][0] == nodes[0] != 5.0


def test_exponential_integral():
    spec = QuadratureSpec()
    for alpha in (0.5, 3.0, 40.0):
        got = log_integrate(lambda rows, x: -alpha * x, [math.nan], spec)[0]
        expected = math.log((1.0 - math.exp(-alpha)) / alpha)
        assert got == pytest.approx(expected, abs=1e-11)


def test_sharp_gaussian_bump_with_split():
    spec = QuadratureSpec()
    center, width = 0.37, 1e-4

    def log_f(rows, x):
        return -((x - center) / width) ** 2 / 2.0

    got = log_integrate(log_f, [center], spec)[0]
    expected = math.log(width * math.sqrt(2 * math.pi))
    assert got == pytest.approx(expected, abs=1e-9)


def test_extreme_scaling_stays_finite():
    # Integrals of exp(-c/eps) magnitude must survive in the log domain.
    spec = QuadratureSpec()
    got = log_integrate(lambda rows, x: -2000.0 + 0.0 * x, [math.nan], spec)[0]
    assert got == pytest.approx(-2000.0, abs=1e-12)


def test_large_log_integrals_converge_whatever_their_rounding():
    # Beyond |log I| = 2^17 one ulp of the log is 2.9e-11 relative, more than
    # 0.25 * rtol: a converged panel's two estimates may still differ by it.
    # At -2e5 the two estimates of this bump's panel near 0.3389 still round
    # one ulp apart after the 20 subdivisions allowed.
    spec = QuadratureSpec()
    log_mass = math.log(math.sqrt(math.pi / 30.0) / 2.0
                        * (math.erf(math.sqrt(30.0) * 0.7) + math.erf(math.sqrt(30.0) * 0.3)))
    for shift in (-2e5, -5e5, -1e6, 1e6):
        got = log_integrate(lambda rows, x: shift - 30.0 * (x - 0.3) ** 2, [math.nan],
                            spec)[0]
        assert got == pytest.approx(shift + log_mass, abs=1e-8)


def test_failure_is_reported():
    spec = QuadratureSpec(max_subdivisions=8)

    def nasty(rows, x):
        return 30.0 * np.sin(1000.0 * x) ** 2

    with pytest.raises(QuadratureError):
        log_integrate(nasty, [math.nan], spec)



def test_boundary_layer_missed_by_the_nodes_is_kept():
    # A layer of width 1e-5 just right of the split: every Gauss node of
    # [0.5, 1] sees less than exp(-300), far below the prune threshold, but
    # the endpoint bound at 0.5 shows the panel matters.
    spec = QuadratureSpec()
    width = 1e-5

    def log_f(rows, x):
        return np.where(x <= 0.5, 0.0, -(x - 0.5) / width)

    got = log_integrate(log_f, [0.5], spec)[0]
    assert got == pytest.approx(math.log(0.5 + width), abs=1e-10)


def test_batch_matches_each_integrand_alone():
    # Each integrand keeps its own prune scale, splits and panels, so a batch
    # gives exactly the values of its integrands integrated one at a time.
    # A split of 1.0 or outside (0, 1) is ignored: that integrand equals its
    # unsplit integral.
    spec = QuadratureSpec()
    centers = np.array([0.37, 0.5, 0.9, 0.6, 0.2])
    widths = np.array([1e-4, 1e-2, 0.3, 0.05, 0.1])
    splits = np.array([0.37, 0.5, 0.9, 1.0, -0.25])

    def log_f(rows, x):
        return -((x - centers[rows, None]) / widths[rows, None]) ** 2 / 2.0

    batch = log_integrate(log_f, splits, spec)
    assert batch.shape == (5,)
    for k, (c, w, split) in enumerate(zip(centers, widths, splits)):
        alone = log_integrate(lambda rows, x: -((x - c) / w) ** 2 / 2.0,
                              [split if 0.0 < split < 1.0 else math.nan], spec)
        assert batch[k] == alone[0]


def test_failure_names_the_integrand():
    spec = QuadratureSpec(max_subdivisions=8)

    def log_f(rows, x):
        return np.where(rows[:, None] == 1, 30.0 * np.sin(1000.0 * x) ** 2, -x)

    with pytest.raises(QuadratureError) as err:
        log_integrate(log_f, np.full(3, math.nan), spec)
    assert err.value.index == 1


def test_logsumexp_propagates_nan():
    assert math.isnan(logsumexp([0.0, math.nan]))
    assert logsumexp([]) == -math.inf
    assert logsumexp([-math.inf, 0.0]) == 0.0


def test_nan_integrand_raises_before_any_refinement():
    # A NaN term is an error, not a dropped term, and it is reported on the
    # first pass instead of being bisected down to max_subdivisions.
    calls = []

    def log_f(rows, x):
        calls.append(rows.size)
        return np.where((rows[:, None] == 1) & (x > 0.6), math.nan, -x)

    with pytest.raises(QuadratureError, match="NaN") as err:
        log_integrate(log_f, np.full(3, math.nan), QuadratureSpec())
    assert err.value.index == 1
    assert len(calls) == 1


_CENTERS = np.array([0.37, 0.5, 0.9, 0.6, 0.2])
_WIDTHS = np.array([1e-4, 1e-2, 0.3, 0.05, 0.1])


def _bumps(rows, x):
    return -((x - _CENTERS[rows, None]) / _WIDTHS[rows, None]) ** 2 / 2.0


# (log_f, splits) of the cases above that converge, the batch of bumps last.
CASES = [
    *((lambda rows, x, alpha=alpha: -alpha * x, [math.nan]) for alpha in (0.5, 3.0, 40.0)),
    (lambda rows, x: -((x - 0.37) / 1e-4) ** 2 / 2.0, [0.37]),
    (lambda rows, x: -2000.0 + 0.0 * x, [math.nan]),
    *((lambda rows, x, shift=shift: shift - 30.0 * (x - 0.3) ** 2, [math.nan])
      for shift in (-2e5, -5e5, -1e6, 1e6)),
    (lambda rows, x: np.where(x <= 0.5, 0.0, -(x - 0.5) / 1e-5), [0.5]),
    (_bumps, [0.37, 0.5, 0.9, 1.0, -0.25]),
]


@pytest.mark.parametrize("log_f, splits", CASES, ids=[
    "exp-0.5", "exp-3", "exp-40", "sharp-bump", "flat-2000", "large-2e5", "large-5e5",
    "large-1e6", "large+1e6", "boundary-layer", "batch"])
def test_matches_the_rule_that_evaluates_ends_again_bit_for_bit(log_f, splits):
    # The same panels, estimates, bounds and acceptance tests as the rule
    # that evaluates every panel's ends and midpoint again at each level.
    spec = QuadratureSpec()
    assert np.array_equal(log_integrate(log_f, splits, spec),
                          reference_log_integrate(log_f, splits, spec))


@pytest.mark.parametrize("log_f, rows", [
    (lambda rows, x: 30.0 * np.sin(1000.0 * x) ** 2, 1),
    (lambda rows, x: np.where(rows[:, None] == 1, 30.0 * np.sin(1000.0 * x) ** 2, -x), 3),
], ids=["alone", "in-a-batch"])
def test_fails_where_the_rule_that_evaluates_ends_again_fails(log_f, rows):
    spec = QuadratureSpec(max_subdivisions=8)
    with pytest.raises(QuadratureError) as ours:
        log_integrate(log_f, np.full(rows, math.nan), spec)
    with pytest.raises(QuadratureError) as theirs:
        reference_log_integrate(log_f, np.full(rows, math.nan), spec)
    assert ours.value.index == theirs.value.index


def _spy(log_f, calls):
    def spy(rows, x):
        calls.append((rows.copy(), x.copy()))
        return log_f(rows, x)
    return spy


def test_each_point_once_per_call_and_31_per_bisected_panel():
    # Both halves of a bisected panel cost one row of 31 points (the left
    # half's 15 nodes, the midpoint, the right half's 15 nodes), not two of
    # 17: its ends are carried from the calls that evaluated them.
    spec, splits = QuadratureSpec(), [0.37, 0.5, 0.9, 1.0, -0.25]
    ours, theirs = [], []
    log_integrate(_spy(_bumps, ours), splits, spec)
    reference_log_integrate(_spy(_bumps, theirs), splits, spec)
    for rows, x in ours:
        pairs = list(zip(np.broadcast_to(rows[:, None], x.shape).ravel().tolist(),
                         x.ravel().tolist()))
        assert len(set(pairs)) == len(pairs)
    # Three integrands are split, two are not: 8 first panels, each 16 points
    # (its left end and nodes), and the right end 1 of each of the 5.
    assert [x.shape for _, x in ours[:2]] == [(8, 16), (5, 1)]
    assert theirs[0][1].shape == (8, 17)
    # The bisection visits the same panels at every level.
    assert [x.shape[1] for _, x in ours[2:]] == [31] * (len(theirs) - 1)
    assert [2 * x.shape[0] for _, x in ours[2:]] == [x.shape[0] for _, x in theirs[1:]]
    assert all(np.array_equal(np.concatenate((r, r)), rows)
               for (r, _), (rows, _) in zip(ours[2:], theirs[1:]))
