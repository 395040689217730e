import math

import numpy as np
import pytest

from stickybm.quadrature import (QuadratureError, QuadratureSpec, gauss_legendre, log_integrate,
                                 logsumexp)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=0.5)
    with pytest.raises(ValueError):
        QuadratureSpec(relative_tolerance=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=4)
    spec = QuadratureSpec()
    assert spec.relative_tolerance == 1e-10
    assert spec.max_subdivisions == 20


def test_gauss_legendre_normalized():
    nodes, w = gauss_legendre(15)
    assert np.all((nodes > 0) & (nodes < 1))
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


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
    spec = QuadratureSpec(relative_tolerance=1e-10, max_subdivisions=8)

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
    spec = QuadratureSpec(relative_tolerance=1e-10, max_subdivisions=8)

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
