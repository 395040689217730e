import math
import tracemalloc

import numpy as np
import pytest

import stickybm.kernel
from stickybm.geometry import HalfSpacePoint, ModelParams, cost
from stickybm.kernel import (
    kernel_total_mass,
    log_densities,
    log_sticky_integral,
    _log_g,
    _log_h,
    _log_killed_kernel,
    _sticky_log_grid,
    _sticky_log_integrand_m,
    _sticky_peak_m,
    _PEAK_GRID,
)
from stickybm.quadrature import QuadratureError, QuadratureSpec, gauss_legendre, log_integrate

from oracles import (_h_density, bivariate_density, chapman_kolmogorov_residual,
                     fixed_gauss_legendre_integral, fokker_planck_residual,
                     fp_residuals_from_fields, reference_log_g, reference_log_h,
                     reference_log_integrate, reference_sticky_log_grid)


SPEC = QuadratureSpec()


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


def log_kernel(params, t, x, y):
    """The log mu-density at one pair (x, y): a log_densities batch of one."""
    v = float(np.linalg.norm(np.asarray(y.xp) - np.asarray(x.xp)))
    return float(log_densities(params, SPEC, t, x.x1, y.x1, v))


def kernel(params, t, x, y):
    """The mu-density of :func:`log_kernel`, exponentiated."""
    return math.exp(log_kernel(params, t, x, y))


class TestBuildingBlocks:
    def test_hitting_density(self):
        assert _log_h(1.0, 0.0) == -math.inf
        assert _log_h(0.37, 0.0) == -math.inf
        # closed form; the Monte Carlo oracle value 0.241971 carries
        # histogram noise of a few 1e-4
        exact = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert math.exp(_log_h(1.0, 1.0)) == pytest.approx(exact, rel=1e-15)
        assert math.exp(_log_h(1.0, 1.0)) == pytest.approx(0.241971, abs=5e-4)

    def test_hitting_time_is_proper(self):
        # int_0^T h(t, 1) dt = P(hit before T) = erfc(1 / sqrt(2T)), which
        # tends to one: hitting is almost sure in one dimension.  The integral
        # over [1e-12, T] runs in m on [0, 1], t = 1e-12 + (T - 1e-12) m,
        # split at the density's maximum t = 1/3 so both panels are monotone.
        for horizon in (0.05, 0.5, 2.0, 50.0, 1e4):
            width = horizon - 1e-12

            def log_h_in_m(rows, m):
                with np.errstate(divide="ignore"):
                    return np.log(_h_density(1e-12 + width * m, 1.0)) + math.log(width)

            split = (1.0 / 3.0 - 1e-12) / width
            got = math.exp(log_integrate(log_h_in_m, [split], SPEC)[0])
            assert got == pytest.approx(math.erfc(1.0 / math.sqrt(2.0 * horizon)), rel=1e-9)

    def test_killed_kernel(self):
        assert _log_killed_kernel(1.0, 1.0, 0.0) == -math.inf
        assert _log_killed_kernel(1.0, 0.0, 1.0) == -math.inf
        exact = (1.0 - math.exp(-2.0)) / math.sqrt(2 * math.pi)
        assert math.exp(_log_killed_kernel(1.0, 1.0, 1.0)) == pytest.approx(exact, rel=1e-14)
        assert math.exp(_log_killed_kernel(1.0, 1.0, 1.0)) == pytest.approx(0.344954, abs=5e-4)
        for (t, x1, z) in [(0.7, 0.3, 1.1), (2.0, 1.5, 0.2)]:
            assert math.exp(_log_killed_kernel(t, x1, z)) == pytest.approx(
                math.exp(_log_killed_kernel(t, z, x1)), rel=1e-14)

    def test_gaussian_density(self):
        assert math.exp(_log_g(1.0, 0.0, 2)) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                              rel=1e-15)
        # d = 3: tensor quadrature of the 2-D Gaussian integrates to one
        nodes = np.linspace(-8.0, 8.0, 401)
        u, v = np.meshgrid(nodes, nodes, indexing="ij")
        vals = np.exp(_log_g(1.0, np.sqrt(u * u + v * v), 3))
        mass = np.trapezoid(np.trapezoid(vals, nodes, axis=1), nodes)
        assert mass == pytest.approx(1.0, abs=1e-8)
        # scaling identity
        r = math.hypot(0.4, -1.2)
        assert math.exp(_log_g(2.0, r, 3)) == pytest.approx(
            math.exp(_log_g(1.0, r / math.sqrt(2), 3)) / 2.0, rel=1e-14)


def _block_inputs():
    """Seeded (t, w) pairs for the building blocks: scalars, 0-d arrays, row
    against column broadcasts, and arrays seeded with t <= 0, w <= 0, NaN
    and +-inf."""
    rng = np.random.default_rng(3207)
    special = np.array([0.0, -0.0, -0.7, math.nan, math.inf, -math.inf, 1e-300])
    row = np.concatenate((rng.uniform(-0.5, 2.0, 9), special))[None, :]
    col = np.concatenate((rng.uniform(-0.5, 3.0, 5), special))[:, None]
    t = rng.uniform(-0.2, 2.0, (6, 11))
    w = rng.uniform(-0.3, 3.0, (6, 11))
    t.flat[::7] = special[rng.integers(0, special.size, t.flat[::7].size)]
    w.flat[::5] = special[rng.integers(0, special.size, w.flat[::5].size)]
    return [(1.0, 1.0), (0.37, 0.0), (-1.0, 2.0), (2.0, math.nan), (math.inf, 1.0),
            (np.array(0.8), np.array(1.3)), (np.array(0.8), 1.3), (0.8, col),
            (row, col), (col, row), (row, 0.4), (t, w), (t[:1], w)]


class TestInPlaceBlocks:
    """The in-place building blocks against their plain numpy expressions:
    the same floating-point operations in the same order, so the same
    bits."""

    @pytest.mark.parametrize("k", range(len(_block_inputs())))
    def test_log_h(self, k):
        t, w = _block_inputs()[k]
        got, ref = _log_h(t, w), reference_log_h(t, w)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", range(len(_block_inputs())))
    def test_log_g(self, k, d):
        t, v = _block_inputs()[k]
        with np.errstate(all="ignore"):
            got, ref = _log_g(t, v, d), reference_log_g(t, v, d)
        assert np.shape(got) == np.shape(ref)
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("a, theta, d, t", [
        (0.5, 2.0, 2, 0.25), (1.0, 0.5, 2, 1.0), (4.0, 0.5, 3, 0.05), (4.0, 2.0, 2, 1.0)])
    def test_sticky_log_grid(self, a, theta, d, t):
        rng = np.random.default_rng(3208)
        params = ModelParams(a, theta, d)
        s = np.concatenate(([0.0], rng.uniform(0.0, 4.0 * math.sqrt(t), 9)))
        v = np.concatenate(([0.0], rng.uniform(0.0, 6.0 * math.sqrt(t * a), 7)))
        got, ref = _sticky_log_grid(params, t, s, v), reference_sticky_log_grid(params, t, s, v)
        assert got.shape == (10, 8)
        assert np.array_equal(got, ref)


class TestBivariate:
    def test_components_and_mass(self):
        params = ModelParams(2.0, 1.5)
        t, x1 = 0.8, 0.4
        diffuse, boundary, zero_l = bivariate_density(params, t, x1, 0.3, 0.5)
        th = params.theta
        assert diffuse == pytest.approx(2 * math.exp(_log_h(t - 0.5 / th, 0.5 + x1 + 0.3)),
                                        rel=1e-14)
        assert boundary == pytest.approx(math.exp(_log_h(t - 0.5 / th, 0.5 + x1)) / th, rel=1e-14)
        assert zero_l == pytest.approx(math.exp(_log_killed_kernel(t, x1, 0.3)), rel=1e-14)

        # total mass: erf(x1/sqrt(2t)) + int (1/th) h + int int 2 h = 1
        mass = math.erf(x1 / math.sqrt(2 * t))
        ls = np.linspace(0.0, th * t, 20001)

        def b_dens(l):
            return _h_density(t - l / th, l + x1) / th

        def j_marginal(l):
            tau = t - l / th
            out = np.zeros_like(l)
            pos = tau > 0
            s = l[pos] + x1
            out[pos] = 2.0 * np.exp(-s * s / (2 * tau[pos])) / np.sqrt(2 * math.pi * tau[pos])
            return out

        mass += np.trapezoid(b_dens(ls), ls) + np.trapezoid(j_marginal(ls), ls)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_far_start_never_touches(self):
        params = ModelParams(1.0, 1.0)
        # mass of the zero-local-time component is erf(x1 / sqrt(2t))
        assert math.erf(10.0 / math.sqrt(2 * 0.01)) >= 1.0 - 1e-10
        d, b, z = bivariate_density(params, 0.01, 10.0, 10.0, 0.0)
        assert z == pytest.approx(math.exp(_log_killed_kernel(0.01, 10.0, 10.0)), rel=1e-14)

    def test_boundary_atom_mass_monotone_in_theta(self):
        # Larger stickiness pushes the process off the boundary faster
        # (inward drift theta), so the atom mass decreases in theta, in line
        # with the stationary atom weight 1/(2 theta).  Cross-checked by
        # exact simulation.
        from stickybm.simulate import SimConfig, simulate_batch

        t, x1 = 1.0, 0.0
        masses, mc = [], []
        for th in (0.5, 1.0, 2.0, 4.0):
            ls = np.linspace(0.0, th * t, 40001)
            vals = np.exp(_log_h(t - ls / th, ls + x1)) / th
            masses.append(np.trapezoid(vals, ls))
            cfg = SimConfig(ModelParams(1.0, th), P(x1, 0.0), t, 1, seed=3)
            mc.append(float(np.mean(simulate_batch(cfg, 20000).x1[:, 1] == 0.0)))
        assert all(m2 < m1 for m1, m2 in zip(masses, masses[1:]))
        assert all(m2 < m1 for m1, m2 in zip(mc, mc[1:]))
        for q, m in zip(masses, mc):
            assert abs(q - m) < 3 * math.sqrt(q * (1 - q) / 20000) + 1e-3


class TestTransitionKernel:
    def test_atom_weight_counted_once(self):
        # mu-density divided back by the atom weight reproduces the boundary
        # density (1/theta) int_0^{theta t} h(t - l/theta, l + x1) g dl
        params = ModelParams(3.0, 0.7)
        x, y = P(0.4, 0.0), P(0.0, 1.0)
        kv = kernel(params, 0.6, x, y)
        boundary = math.exp(log_sticky_integral(params, SPEC, 0.6, x.x1, 1.0)) / params.theta
        assert boundary == pytest.approx(kv / (2 * params.theta), rel=1e-12)

    def test_normalization_spot(self):
        for (a, th, t, x1) in [(2.0, 1.0, 0.5, 0.3), (0.5, 2.0, 1.0, 0.0)]:
            mass = kernel_total_mass(ModelParams(a, th, 2), t, P(x1, 0.0))
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_total_mass_peak_memory(self):
        # The fixed rule's 97 x 336 working arrays are written in place: one
        # warm call peaks at 1.0 MB at most under tracemalloc.
        params, x = ModelParams(4.0, 0.5), P(0.3, 0.0)
        kernel_total_mass(params, 0.25, x)
        tracemalloc.start()
        try:
            kernel_total_mass(params, 0.25, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_normalization_d3(self):
        mass = kernel_total_mass(ModelParams(2.0, 1.0, 3), 0.5, HalfSpacePoint(0.2, (0.0, 0.0)))
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.0, -0.5, math.inf, math.nan])
    def test_total_mass_rejects_a_horizon_outside_zero_to_inf(self, t):
        with pytest.raises(ValueError, match=r"kernel_total_mass needs 0 < t < inf, got t="):
            kernel_total_mass(ModelParams(2.0, 1.0), t, P(0.3, 0.0))

    @pytest.mark.parametrize("d, x", [(2, HalfSpacePoint(0.3, (0.0, 0.0))),
                                      (3, HalfSpacePoint(0.3, (0.0,)))],
                             ids=["3d-point-d2", "2d-point-d3"])
    def test_total_mass_rejects_a_point_of_another_dimension(self, d, x):
        with pytest.raises(ValueError, match=f"point has dimension {5 - d}, model expects {d}"):
            kernel_total_mass(ModelParams(2.0, 1.0, d), 0.5, x)

    def test_total_mass_rejects_d_4(self):
        with pytest.raises(ValueError, match="total-mass quadrature implemented for d = 2 and 3"):
            kernel_total_mass(ModelParams(2.0, 1.0, 4), 0.5, P(0.3, 0.0, 0.0, 0.0))

    def test_one_grid_call_per_kernel_holds_the_boundary_row(self, monkeypatch):
        # The boundary row joins the interior rows: one fixed-rule grid per
        # kernel, with y1 = 0, the gap s = x1 + y1 = x1, once in it.
        grids = []

        def counted(params, t, s_vals, v_vals):
            grids.append(np.asarray(s_vals))
            return _sticky_log_grid(params, t, s_vals, v_vals)

        monkeypatch.setattr(stickybm.kernel, "_sticky_log_grid", counted)
        params = ModelParams(2.0, 1.0)
        kernel_total_mass(params, 0.5, P(0.3, 0.0))
        assert len(grids) == 1
        chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, P(0.0, 0.0), P(0.0, 0.0),
                                    n1=12, np_=6)
        assert len(grids) == 3
        assert [np.count_nonzero(g == x1) for g, x1 in zip(grids, (0.3, 0.0, 0.0))] == [1, 1, 1]

    def test_mu_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = float(rng.uniform(0.3, 5.0))
            th = float(rng.uniform(0.3, 3.0))
            t = float(rng.uniform(0.05, 1.5))
            params = ModelParams(a, th)
            x = P(float(rng.uniform(0, 2)), float(rng.uniform(-2, 2)))
            y1 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 2))
            y = P(y1, float(rng.uniform(-2, 2)))
            q1 = log_kernel(params, t, x, y)
            q2 = log_kernel(params, t, y, x)
            assert abs(q1 - q2) <= 1e-8 * max(abs(q1), 1.0)

    def test_flat_diffusivity_reference_quadrature(self):
        # a = 1 makes the Gaussian factor constant in the local time: the
        # boundary value matches a plain 200-point Gauss-Legendre reference.
        params = ModelParams(1.0, 1.3)
        t = 1.0
        kv = kernel(params, t, P(0.0, 0.0), P(0.0, 0.0))
        th = params.theta
        g0 = math.exp(_log_g(t, 0.0, 2))

        def integrand(l):
            return g0 * _h_density(t - l / th, l)

        ref = fixed_gauss_legendre_integral(integrand, 0.0, th * t, n=200) / th
        assert kv / (2 * th) == pytest.approx(ref, rel=1e-8)

    def test_far_from_boundary_is_free_gaussian(self):
        params = ModelParams(3.0, 1.0)
        t = 0.01
        x = P(1.0, 0.0)   # x1^2 / t = 100 >= 50
        y = P(1.02, 0.03)
        kv = kernel(params, t, x, y)
        free = math.exp(-((x.x1 - y.x1) ** 2 + (x.xp[0] - y.xp[0]) ** 2) / (2 * t)) / (2 * math.pi * t)
        assert kv == pytest.approx(free, rel=1e-8)
        # total boundary mass is the hitting probability, tiny here
        boundary_mass = 1.0 - math.erf(x.x1 / math.sqrt(2 * t))
        assert boundary_mass <= 1e-10

    def test_time_rescaling_identity(self):
        # The slowed kernel is evaluated by rescaling the horizon: the kernel
        # of the generator eps*Q at time t is the kernel at time eps*t.
        params = ModelParams(2.0, 1.0)
        x, y = P(0.3, 0.0), P(0.1, 0.5)
        assert kernel(params, 0.25 * 0.8, x, y) == pytest.approx(
            kernel(params, 0.2, x, y), rel=1e-14)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            kernel(ModelParams(1.0, 1.0), 0.0, P(0.0, 0.0), P(0.0, 0.0))


class TestLogKernel:
    @pytest.mark.parametrize("x1, y1, v, name, bad", [
        (0.3, -0.2, 1.0, "y1", "-0.2"),
        (-0.3, 0.2, 1.0, "x1", "-0.3"),
        (0.3, 0.2, -1.0, "v", "-1.0"),
        (0.3, math.nan, 1.0, "y1", "nan"),
        (math.inf, 0.2, 1.0, "x1", "inf"),
        (0.3, [0.1, -math.inf, -1.0], 1.0, "y1", "-inf"),
        (0.3, 0.2, [0.5, math.nan, -2.0], "v", "nan"),
    ], ids=["y1-negative", "x1-negative", "v-negative", "y1-nan", "x1-inf", "y1-minus-inf",
            "v-nan"])
    def test_rejects_points_outside_the_half_space(self, monkeypatch, x1, y1, v, name, bad):
        def not_yet(*args, **kwargs):
            raise AssertionError("quadrature ran before the input was validated")

        monkeypatch.setattr(stickybm.kernel, "log_sticky_integral", not_yet)
        with pytest.raises(ValueError, match=rf"log_densities needs {name} .*, got {name}={bad}$"):
            log_densities(ModelParams(2.0, 1.0), SPEC, 0.5, x1, y1, v)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, monkeypatch, bad):
        def not_yet(*args, **kwargs):
            raise AssertionError("quadrature ran before the horizon was validated")

        monkeypatch.setattr(stickybm.kernel, "log_sticky_integral", not_yet)
        with pytest.raises(ValueError,
                           match=rf"log_densities needs t positive and finite, got t={bad}$"):
            log_densities(ModelParams(2.0, 1.0), SPEC, [[0.5], [bad], [0.25]], 0.3, 0.2, 1.0)

    def test_infinite_tangential_distance_is_a_zero_density(self):
        got = log_densities(ModelParams(2.0, 1.0), SPEC, 0.5, [0.3, 0.0], 0.2, math.inf)
        assert np.array_equal(got, [-math.inf, -math.inf])

    def test_varadhan_boundary_pair(self):
        params = ModelParams(4.0, 1.0)
        x, y = P(0.0, 0.0), P(0.0, 1.0)
        c = cost(params, x, y)
        assert c == 0.125
        lp = log_kernel(params, 0.01, x, y) - math.log(2 * params.theta)
        assert abs(-0.01 * lp - c) <= 0.15 * c

    def test_monotone_in_t_far_pair(self):
        params = ModelParams(4.0, 1.0)
        x, y = P(0.5, 0.0), P(0.5, 6.0)
        vals = [log_kernel(params, t, x, y) for t in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_small_horizon_stays_finite(self):
        params = ModelParams(0.5, 1.0)
        lp = log_kernel(params, 1e-3, P(0.0, 0.0), P(0.0, 1.9)) - math.log(2 * params.theta)
        assert np.isfinite(lp)
        assert lp < -1000     # exp underflows, the log does not


class TestTailEnvelope:
    def test_batched_grid_matches_adaptive(self):
        params = ModelParams(2.0, 1.0)
        t = 0.5
        s_vals = np.array([0.0, 0.3, 1.2])
        v_vals = np.array([0.0, 0.8, 2.5])
        grid = _sticky_log_grid(params, t, s_vals, v_vals)
        for i, s in enumerate(s_vals):
            for j, v in enumerate(v_vals):
                assert grid[i, j] == pytest.approx(
                    log_sticky_integral(params, SPEC, t, float(s), float(v)), abs=1e-9)


def _sweep_inputs():
    """1500 (a, theta, d, t, s, v) draws spanning t in [1e-3, 10^0.5]; a quarter
    of them start on the boundary (s = 0) and a tenth have no tangential gap."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(1500):
        a = 10.0 ** rng.uniform(-1.3, 1.5)
        theta = 10.0 ** rng.uniform(-1.5, 1.2)
        d = int(rng.choice([2, 3]))
        t = 10.0 ** rng.uniform(-3.0, 0.5)
        s = rng.uniform(0.0, 4.0) * (rng.random() > 0.25)
        v = rng.uniform(0.0, 8.0) * (rng.random() > 0.1)
        out.append((float(a), float(theta), d, float(t), float(s), float(v)))
    return out


@pytest.fixture(scope="module")
def sweep_pass():
    """One pass over the sweep: its values, and the splits of every
    ``log_integrate`` call whose result differs in any bit from the rule
    that evaluates each panel's ends again."""
    mismatches = []

    def both(log_f, splits, spec):
        ours = log_integrate(log_f, splits, spec)
        if not np.array_equal(ours, reference_log_integrate(log_f, splits, spec)):
            mismatches.append(splits)
        return ours

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stickybm.kernel, "log_integrate", both)
        values = [log_sticky_integral(ModelParams(a, theta, d), SPEC, t, s, v)
                  for a, theta, d, t, s, v in _sweep_inputs()]
    return values, mismatches


class TestStickyIntegral:
    def test_sweep_never_raises(self, sweep_pass):
        values, _ = sweep_pass
        assert len(values) == 1500 and np.all(np.isfinite(values))

    def test_sweep_matches_the_rule_that_evaluates_ends_again(self, sweep_pass):
        # Carrying each panel's end values instead of evaluating them again
        # changes no bit of any integral of the sweep.
        _, mismatches = sweep_pass
        assert mismatches == []

    # 50-digit mpmath references for the sweep inputs on which a boundary
    # layer next to the peak split hides from the Gauss nodes.
    @pytest.mark.parametrize("index, reference", [
        (191, -23713.0910761784),
        (226, -30053.306435283514),
        (953, -16754.44712509392),
        (999, -30662.6810394922),
        (1332, -15961.466584435631),
        (1423, -22807.474139057213),
    ])
    def test_boundary_layer_cases_match_reference(self, index, reference):
        a, theta, d, t, s, v = _sweep_inputs()[index]
        got = log_sticky_integral(ModelParams(a, theta, d), SPEC, t, s, v)
        assert got == pytest.approx(reference, abs=1e-8)

    def test_large_log_integrals_match_reference(self):
        # Beyond |log I| = 2^17 a converged panel's two estimates may differ
        # by whole ulps of the log, more than 0.25 * rtol, as they do on one
        # panel of each of these integrands.  50-digit mpmath references.
        got = log_sticky_integral(ModelParams(4.55, 2.32), SPEC, 1e-4, 3.71, 5.91)
        assert got == pytest.approx(-182873.12636649254, abs=1e-8)
        got = float(log_densities(ModelParams(4.0, 1.0), SPEC, 1e-5, 1.0, 1.0, 5.0))
        assert got == pytest.approx(-895509.52943073637, abs=1e-8)


def _peak_sweep():
    """Seeded (params, t, s, v) batches over a in {0.5, 1, 4, 8}, theta in
    {0.2, 1, 2} and t in {1e-3, 0.01, 1}; a quarter of the gaps s are 0,
    as at the nodes of a boundary patch."""
    rng = np.random.default_rng(29)
    for a in (0.5, 1.0, 4.0, 8.0):
        for theta in (0.2, 1.0, 2.0):
            for t in (1e-3, 0.01, 1.0):
                s = rng.uniform(0.0, 4.0 * math.sqrt(t), 64)
                s[::4] = 0.0
                v = rng.uniform(0.0, 6.0 * math.sqrt(t * max(a, 1.0)), 64)
                yield ModelParams(a, theta), t, s, v


def _located_maxima(log_f, n):
    """Each integrand's maximum over m in [0, 1], by bisection on the sign of
    a central difference inside the bracket around its largest grid value."""
    rows = np.arange(n)
    i = np.argmax(log_f(rows, np.broadcast_to(_PEAK_GRID, (n, _PEAK_GRID.size))), axis=1)
    lo = np.where(i > 0, _PEAK_GRID[np.maximum(i - 1, 0)], 0.0)
    hi = _PEAK_GRID[np.minimum(i + 1, _PEAK_GRID.size - 1)]
    for _ in range(80):
        m = 0.5 * (lo + hi)
        f = log_f(rows, m[:, None] * np.array([1.0 - 1e-7, 1.0 + 1e-7]))
        rising = f[:, 1] > f[:, 0]
        lo, hi = np.where(rising, m, lo), np.where(rising, hi, m)
    return 0.5 * (lo + hi)


class TestPeakSplit:
    def test_grid_split_matches_split_at_located_maximum(self):
        # The grid node only seeds a panel boundary: the bisection resolves
        # the grid cell around the true maximum, so splitting exactly at the
        # maximum gives the same integral.
        off_grid = 0
        for params, t, s, v in _peak_sweep():
            log_f = _sticky_log_integrand_m(params, t, s, v)
            peak = _located_maxima(log_f, s.size)
            split = math.log(params.theta * t) + log_integrate(log_f, peak, SPEC)
            got = log_sticky_integral(params, SPEC, t, s, v)
            np.testing.assert_allclose(got, split, rtol=0.0, atol=1e-11, err_msg=str((params, t)))
            off_grid += np.sum(~np.isin(peak, _PEAK_GRID) & (peak < 1.0 - 1e-9))
        assert off_grid > 1000

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="below t ~ 5e-6 a peak far narrower than its "
                       "grid cell hides from every Gauss node of its panel (ROADMAP item 16)")
    def test_narrow_peak_below_the_grid_resolution(self):
        # Today -9373518.01, against -9373150.56 split at the maximum of a
        # 200 001-point grid: 3.9e-5 relative, and nothing is raised.
        params, t, s, v = ModelParams(24.88, 1.14), 1e-6, np.array([3.562]), np.array([4.19])
        log_f = _sticky_log_integrand_m(params, t, s, v)
        fine = np.linspace(0.0, 1.0, 200001)
        peak = fine[np.argmax(log_f(np.arange(1), fine[None, :]), axis=1)]
        split = math.log(params.theta * t) + log_integrate(log_f, peak, SPEC)
        got = log_sticky_integral(params, SPEC, t, 3.562, 4.19)
        assert got == pytest.approx(float(split[0]), rel=1e-9)


def _kernel_grid_gaps(t, n=16, extent=4.0):
    """(s, v) of ``stickybm kernel --a 1 --theta 1 --x 0,0 --grid n``."""
    y1s = np.linspace(0.0, extent * math.sqrt(t), n)
    yps = np.linspace(-extent * math.sqrt(t), extent * math.sqrt(t), n)
    return (np.concatenate((np.repeat(y1s, n), np.zeros(n))),
            np.abs(np.concatenate((np.tile(yps, n), yps))))


def _mixed_matrix_gaps():
    """(s, v) of a 10 x 10 Gibbs matrix, half of each measure on the boundary."""
    x1 = np.array([0.0, 0.4, 0.0, 0.9, 0.0, 0.2, 0.0, 1.3, 0.0, 0.6])
    xp = np.linspace(-1.5, 1.5, 10)
    y1 = x1[::-1]
    yp = xp + 0.5
    return x1[:, None] + y1[None, :], np.abs(yp[None, :] - xp[:, None])


def _patch_gaps():
    """(s, v) at the 32 Gauss nodes of the criterion-7 patch, from the origin."""
    nodes, _ = gauss_legendre(32)
    return np.zeros(32), 1.9 + 0.2 * nodes


class TestBatch:
    @pytest.mark.parametrize("params, t, gaps", [
        (ModelParams(1.0, 1.0), 1.0, _kernel_grid_gaps(1.0)),
        (ModelParams(1.0, 1.0), 0.01, _kernel_grid_gaps(0.01)),
        (ModelParams(4.0, 1.0), 0.01, _mixed_matrix_gaps()),
        (ModelParams(4.0, 1.0), 0.025, _patch_gaps()),
    ], ids=["kernel-grid-t1", "kernel-grid-t0.01", "mixed-matrix", "patch-nodes"])
    def test_batch_matches_one_at_a_time(self, params, t, gaps):
        s, v = gaps
        batch = log_sticky_integral(params, SPEC, t, s, v)
        assert batch.shape == s.shape
        alone = np.vectorize(lambda si, vi: log_sticky_integral(params, SPEC, t, si, vi))(s, v)
        np.testing.assert_allclose(batch, alone, rtol=1e-13, atol=0.0)

    def test_scalar_inputs_give_a_float(self):
        value = log_sticky_integral(ModelParams(2.0, 1.5), SPEC, 0.25, 0.5, 0.75)
        assert type(value) is float
        row = log_sticky_integral(ModelParams(2.0, 1.5), SPEC, 0.25, [0.5, 0.5], 0.75)
        assert row.shape == (2,) and np.all(row == value)

    def test_smaller_passes_leave_values_unchanged(self, monkeypatch):
        # Passes of 7 on a Gibbs matrix, and of the default size on 1 200
        # distinct integrands, against one pass over the whole batch.
        params = ModelParams(4.0, 1.0)
        default = stickybm.kernel._MAX_BATCH
        rng = np.random.default_rng(17)
        many = rng.uniform(0.0, 1.0, 1200), rng.uniform(0.0, 0.5, 1200)
        for (s, v), size in ((_mixed_matrix_gaps(), 7), (many, default)):
            assert s.size > size
            monkeypatch.setattr(stickybm.kernel, "_MAX_BATCH", s.size)
            whole = log_sticky_integral(params, SPEC, 0.01, s, v)
            monkeypatch.setattr(stickybm.kernel, "_MAX_BATCH", size)
            assert np.array_equal(log_sticky_integral(params, SPEC, 0.01, s, v), whole)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="0 < t < inf"):
            log_sticky_integral(ModelParams(2.0, 1.5), SPEC, t, [0.5, 1.0], 0.75)

    def test_repeated_and_mirrored_pairs_match_one_at_a_time_bit_for_bit(self):
        # Rows of a grid symmetric in y': |y' - x'| repeats across the axis,
        # and two rows are the same row.
        params, t = ModelParams(2.0, 1.5), 0.25
        s = np.repeat([0.0, 0.3, 0.3, 1.2], 7)[:, None] * np.ones((1, 2))
        v = np.abs(np.tile(np.linspace(-1.0, 1.0, 7), 4))[:, None] * np.array([1.0, 0.5])
        batch = log_sticky_integral(params, SPEC, t, s, v)
        alone = np.array([log_sticky_integral(params, SPEC, t, float(si), float(vi))
                          for si, vi in zip(s.ravel(), v.ravel())]).reshape(s.shape)
        assert np.array_equal(batch, alone)
        repeated = log_sticky_integral(params, SPEC, t, np.full(5, 0.3), 0.5)
        assert np.array_equal(repeated, np.full(5, alone[7, 1]))

    @pytest.mark.parametrize("gaps, n_pairs, n_distinct", [
        (lambda: _kernel_grid_gaps(1.0), 256, 176),
        (lambda: (np.full(9, 0.4), np.full(9, 1.1)), 9, 1),
        (lambda: (0.4, 1.1), 1, 1),
    ], ids=["kernel-grid-t1", "one-pair-repeated", "scalar"])
    def test_one_integrand_per_distinct_pair(self, monkeypatch, gaps, n_pairs, n_distinct):
        seen = []

        def spy(params, t, s, v):
            seen.extend(zip(s.tolist(), v.tolist()))
            return _sticky_log_integrand_m(params, t, s, v)

        monkeypatch.setattr(stickybm.kernel, "_sticky_log_integrand_m", spy)
        s, v = np.broadcast_arrays(*gaps())
        s, v = s.ravel()[:n_pairs], v.ravel()[:n_pairs]
        log_sticky_integral(ModelParams(1.0, 1.0), SPEC, 1.0, s, v)
        assert len(seen) == len(set(seen)) == n_distinct
        assert set(seen) == set(zip(s.tolist(), v.tolist()))


# Horizons at which numpy's vectorized log and math.log round differently on
# some builds (AVX-512 among them, at 0.020535 and 0.02558); the kernel takes
# every log of a horizon with np.log.
_HORIZONS = np.array([0.04, 0.020535, 0.02558, 0.01])


class TestHorizonBatch:
    def test_array_of_horizons_matches_each_horizon_bit_for_bit(self):
        params = ModelParams(4.0, 1.0)
        x1 = np.array([0.0, 0.4, 0.0, 0.9, 0.0, 0.2, 0.0, 1.3, 0.0, 0.6])
        xp = np.linspace(-1.5, 1.5, 10)
        x1, y1, v = x1[:, None], x1[None, ::-1], np.abs(xp[None, :] + 0.5 - xp[:, None])
        batch = log_densities(params, SPEC, _HORIZONS[:, None, None], x1, y1, v)
        assert batch.shape == (4, 10, 10)
        for t, got in zip(_HORIZONS.tolist(), batch):
            assert np.array_equal(got, log_densities(params, SPEC, t, x1, y1, v))

    def test_log_theta_t_is_numpy_log_of_each_horizon(self):
        params = ModelParams(2.0, 1.0)
        s, v = _patch_gaps()
        batch = log_sticky_integral(params, SPEC, _HORIZONS[:, None], s, v)
        for t, got in zip(_HORIZONS.tolist(), batch):
            log_f = _sticky_log_integrand_m(params, t, s, v)
            expected = np.log(params.theta * t) + log_integrate(
                log_f, _sticky_peak_m(log_f, s.size), SPEC)
            assert np.array_equal(got, expected)

    def test_values_do_not_depend_on_the_layout_of_their_arrays(self):
        # A contiguous column of horizons, a strided view, a broadcast view
        # and one 0-d horizon at a time give the same bits, and so does a
        # 0-d point: at these three, numpy's scalar ``(x1 - y1) ** 2`` (libm's
        # pow) and the product that an array takes differ in the last bit.
        params = ModelParams(4.0, 1.0)
        x1 = np.array([0.3225891321582967, 0.47356223438707074, 1.3776593729363977, 0.0])
        y1 = np.array([1.1648336142304088, 1.8189628321733948, 0.7676855225445713, 0.4])
        v = np.array([0.5, 0.0, 1.2, 0.7])
        expected = log_densities(params, SPEC, np.ascontiguousarray(_HORIZONS[:, None]), x1, y1, v)
        strided = np.repeat(_HORIZONS, 3)[::3, None]
        broadcast = np.broadcast_to(_HORIZONS[:, None], (4, 4))
        assert not strided.flags.contiguous and broadcast.strides[1] == 0
        for t in (strided, broadcast):
            assert np.array_equal(log_densities(params, SPEC, t, x1, y1, v), expected)
        for t, row in zip(_HORIZONS, expected):
            assert np.array_equal(log_densities(params, SPEC, np.array(t), x1, y1, v), row)
            for k in range(x1.size):
                point = log_densities(params, SPEC, np.array(t), np.array(x1[k]),
                                      np.array(y1[k]), np.array(v[k]))
                assert point == row[k]

    def test_one_integrand_per_distinct_triple(self, monkeypatch):
        # (s, v) = (0.3, 1.0) at two horizons is two integrals; the repeated
        # triple (0.1, 0.3, 1.0) is one.
        seen, batches = [], []

        def spy(params, t, s, v):
            seen.extend(zip(t.tolist(), s.tolist(), v.tolist()))
            return _sticky_log_integrand_m(params, t, s, v)

        def count(log_f, splits, spec):
            batches.append(len(splits))
            return log_integrate(log_f, splits, spec)

        monkeypatch.setattr(stickybm.kernel, "_sticky_log_integrand_m", spy)
        monkeypatch.setattr(stickybm.kernel, "log_integrate", count)
        t, s = [0.1, 0.2, 0.1, 0.1], [0.3, 0.3, 0.3, 0.5]
        got = log_sticky_integral(ModelParams(1.0, 1.0), SPEC, t, s, 1.0)
        assert sorted(seen) == [(0.1, 0.3, 1.0), (0.1, 0.5, 1.0), (0.2, 0.3, 1.0)]
        assert batches == [3]
        assert got[0] == got[2] != got[1]

    def test_failure_names_its_horizon_and_the_caller_index(self):
        # At 8 subdivisions only (t, s, v) = (1e-3, 0, 3) misses the
        # tolerance; it first appears at flat index 3.
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(QuadratureError) as err:
            log_sticky_integral(ModelParams(2.0, 1.5), spec,
                                [[0.25, 0.5, 1e-3], [1e-3, 1e-3, 0.25]], 0.0,
                                [[3.0, 3.0, 1.0], [3.0, 3.0, 3.0]])
        assert "t=0.001, s=0.0, v=3.0" in str(err.value)
        assert err.value.index == 3


class TestQuadratureFailure:
    def test_batch_error_names_the_failing_integrand(self):
        # At 8 subdivisions only (s, v) = (0, 3) misses the tolerance.
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(QuadratureError) as err:
            log_sticky_integral(ModelParams(2.0, 1.5), spec, 1e-3,
                                [0.3, 1.0, 0.0], [1.0, 0.3, 3.0])
        msg = str(err.value)
        assert "s=0.0, v=3.0" in msg and "s=0.3" not in msg
        assert err.value.index == 2

    def test_error_carries_the_first_caller_index_of_a_repeated_pair(self):
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(QuadratureError) as err:
            log_sticky_integral(ModelParams(2.0, 1.5), spec, 1e-3,
                                [[0.3, 1.0], [0.0, 0.0]], [[1.0, 0.3], [3.0, 3.0]])
        assert "s=0.0, v=3.0" in str(err.value)
        assert err.value.index == 2

    def test_error_names_the_evaluation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("tolerance not met")

        monkeypatch.setattr(stickybm.kernel, "log_integrate", fail)
        with pytest.raises(QuadratureError) as err:
            log_sticky_integral(ModelParams(2.0, 1.5), SPEC, 0.25, 0.5, 0.75)
        msg = str(err.value)
        for part in ("a=2.0", "theta=1.5", "t=0.25", "s=0.5", "v=0.75", "tolerance not met"):
            assert part in msg
        assert isinstance(err.value.__cause__, QuadratureError)


class TestChapmanKolmogorov:
    def test_residual_coarse(self):
        params = ModelParams(2.0, 1.0)
        res = chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, P(0.0, 0.0), P(0.0, 0.0),
                                          n1=120, np_=60)
        assert res.residual <= 2e-3
        assert not res.coarse_warning

    def test_coarse_warning(self):
        params = ModelParams(2.0, 1.0)
        res = chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, P(0.0, 0.0), P(0.0, 0.0),
                                          n1=6, np_=4)
        assert res.coarse_warning

    def test_small_s_limit(self):
        params = ModelParams(2.0, 1.0)
        res = chapman_kolmogorov_residual(params, SPEC, 1e-3, 0.5, P(0.2, 0.0), P(0.4, 0.3),
                                          n1=600, np_=300)
        # int p_s(x,.) p_t(.,y) -> p_t(x,y) as s -> 0, loose tolerance
        assert res.residual <= 5e-3 * res.reference + 5e-4


class TestFokkerPlanck:
    def test_stationarity_of_mu(self):
        # constant mu-density q = 1: u = 1, v = 1/(2 theta) annihilates all
        # three residual operators exactly
        params = ModelParams(2.0, 1.3)
        q = lambda t, y1, gaps: np.ones_like(y1)
        r1, r2, r3 = fp_residuals_from_fields(params, q, 0.5, 0.01, [(0.5, 0.2)], [0.1])
        assert r1 == 0.0 and r2 == 0.0
        assert abs(r3) < 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_kernel_batch_per_time_level(self, monkeypatch, d):
        # t - h, t and t + h: three log_densities calls, whatever the stencil
        calls = []

        def counted(params, spec, t, x1, y1, v):
            calls.append(t)
            return log_densities(params, spec, t, x1, y1, v)

        monkeypatch.setattr(stickybm.kernel, "log_densities", counted)
        x = HalfSpacePoint(0.3, (0.0,) * (d - 1))
        res = fokker_planck_residual(ModelParams(1.0, 1.0, d), SPEC, 0.5, x, 0.04)
        assert sorted(calls) == [0.5 - 0.04, 0.5, 0.5 + 0.04]
        assert all(np.isfinite(res))

    def test_residuals_small_and_second_order(self):
        params = ModelParams(1.0, 1.0)
        x = P(0.3, 0.0)
        res_h = fokker_planck_residual(params, SPEC, 0.5, x, 0.04)
        res_h2 = fokker_planck_residual(params, SPEC, 0.5, x, 0.02)
        for coarse, fine in zip(res_h, res_h2):
            order = math.log2(coarse / fine)
            assert 1.4 <= order <= 2.8

    def test_trace_residual_tight(self):
        params = ModelParams(1.0, 1.0)
        _, _, trace = fokker_planck_residual(params, SPEC, 0.5, P(0.3, 0.0), 1e-3)
        assert trace <= 1e-6

    def test_guards(self):
        params = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            fokker_planck_residual(params, SPEC, 0.05, P(0.3, 0.0), 0.01)
        with pytest.raises(ValueError):
            fokker_planck_residual(params, SPEC, 0.5, P(0.3, 0.0), 1e-8)
