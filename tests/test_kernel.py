import math

import numpy as np
import pytest

import stickybm.kernel
from stickybm.geometry import HalfSpacePoint, ModelParams, cost
from stickybm.kernel import (
    bivariate_density,
    chapman_kolmogorov_residual,
    fokker_planck_residual,
    fp_residuals_from_fields,
    gaussian_density,
    hitting_density,
    kernel_total_mass,
    killed_kernel,
    log_densities,
    log_sticky_integral,
    _grid_densities,
    _log_g,
    _log_h,
    _sticky_log_grid,
    _sticky_log_integrand_m,
    _sticky_log_slopes_m,
    _sticky_peak_m,
)
from stickybm.quadrature import QuadratureError, QuadratureSpec, gauss_legendre, log_integrate

from oracles import _h_density, fixed_gauss_legendre_integral


SPEC = QuadratureSpec()


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


def log_kernel(params, t, x, y):
    """The log densities at one pair (x, y): a log_densities batch of one."""
    v = float(np.linalg.norm(np.asarray(y.xp) - np.asarray(x.xp)))
    return log_densities(params, SPEC, t, x.x1, y.x1, v)


def kernel(params, t, x, y):
    """The densities of :func:`log_kernel`, exponentiated."""
    logs = log_kernel(params, t, x, y)
    return logs._make(math.exp(p) for p in logs)


class TestBuildingBlocks:
    def test_hitting_density(self):
        assert hitting_density(1.0, 0.0) == 0.0
        assert hitting_density(0.37, 0.0) == 0.0
        # closed form; the Monte Carlo oracle value 0.241971 carries
        # histogram noise of a few 1e-4
        exact = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert hitting_density(1.0, 1.0) == pytest.approx(exact, rel=1e-15)
        assert hitting_density(1.0, 1.0) == pytest.approx(0.241971, abs=5e-4)
        with pytest.raises(ValueError):
            hitting_density(0.0, 1.0)

    def test_hitting_time_is_proper(self):
        # int_0^T h(t, 1) dt = P(hit before T) = erfc(1 / sqrt(2T)), which
        # tends to one: hitting is almost sure in one dimension.  Split at the
        # density's maximum t = 1/3 so both panels are monotone.
        def log_h_in_t(rows, t):
            with np.errstate(divide="ignore"):
                return np.log(_h_density(t, 1.0))

        for horizon in (0.05, 0.5, 2.0, 50.0, 1e4):
            got = math.exp(log_integrate(log_h_in_t, 1e-12, horizon, SPEC, split_points=(1.0 / 3.0,)))
            assert got == pytest.approx(math.erfc(1.0 / math.sqrt(2.0 * horizon)), rel=1e-9)

    def test_killed_kernel(self):
        assert killed_kernel(1.0, 1.0, 0.0) == 0.0
        assert killed_kernel(1.0, 0.0, 1.0) == 0.0
        exact = (1.0 - math.exp(-2.0)) / math.sqrt(2 * math.pi)
        assert killed_kernel(1.0, 1.0, 1.0) == pytest.approx(exact, rel=1e-14)
        assert killed_kernel(1.0, 1.0, 1.0) == pytest.approx(0.344954, abs=5e-4)
        for (t, x1, z) in [(0.7, 0.3, 1.1), (2.0, 1.5, 0.2)]:
            assert killed_kernel(t, x1, z) == pytest.approx(killed_kernel(t, z, x1), rel=1e-14)
        with pytest.raises(ValueError):
            killed_kernel(-1.0, 1.0, 1.0)

    def test_gaussian_density(self):
        assert gaussian_density(1.0, (0.0,)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        # d = 3: tensor quadrature of the 2-D Gaussian integrates to one
        nodes = np.linspace(-8.0, 8.0, 401)
        u, v = np.meshgrid(nodes, nodes, indexing="ij")
        vals = np.exp(_log_g(1.0, np.sqrt(u * u + v * v), 3))
        mass = np.trapezoid(np.trapezoid(vals, nodes, axis=1), nodes)
        assert mass == pytest.approx(1.0, abs=1e-8)
        # scaling identity
        zp = (0.4, -1.2)
        assert gaussian_density(2.0, zp) == pytest.approx(
            gaussian_density(1.0, tuple(z / math.sqrt(2) for z in zp)) / 2.0, rel=1e-14)


class TestBivariate:
    def test_components_and_mass(self):
        params = ModelParams(2.0, 1.5)
        t, x1 = 0.8, 0.4
        diffuse, boundary, zero_l = bivariate_density(params, t, x1, 0.3, 0.5)
        th = params.theta
        assert diffuse == pytest.approx(2 * hitting_density(t - 0.5 / th, 0.5 + x1 + 0.3), rel=1e-14)
        assert boundary == pytest.approx(hitting_density(t - 0.5 / th, 0.5 + x1) / th, rel=1e-14)
        assert zero_l == pytest.approx(killed_kernel(t, x1, 0.3), rel=1e-14)

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
        assert z == pytest.approx(killed_kernel(0.01, 10.0, 10.0), rel=1e-14)

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

    def test_argument_validation(self):
        params = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            bivariate_density(params, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            bivariate_density(params, 1.0, 0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            bivariate_density(params, 1.0, 0.0, 0.0, 2.0)


class TestTransitionKernel:
    def test_boundary_target_conventions(self):
        params = ModelParams(2.0, 1.0)
        kv_int = kernel(params, 0.5, P(0.3, 0.0), P(0.7, 0.4))
        assert kv_int.boundary == 0.0
        assert kv_int.rho_int > 0 and kv_int.rho_st > 0
        assert kv_int.interior == pytest.approx(kv_int.rho_int + kv_int.rho_st, rel=1e-15)

        kv_b = kernel(params, 0.5, P(0.3, 0.0), P(0.0, 0.4))
        assert kv_b.boundary > 0
        assert kv_b.rho_int == 0.0
        # trace relation between interior limit and the atom value
        assert kv_b.interior == pytest.approx(2 * params.theta * kv_b.boundary, rel=1e-12)

    def test_atom_weight_counted_once(self):
        # mu-density divided back by the atom weight reproduces the boundary density
        params = ModelParams(3.0, 0.7)
        x, y = P(0.4, 0.0), P(0.0, 1.0)
        kv = kernel(params, 0.6, x, y)
        assert kv.boundary == pytest.approx(kv.interior / (2 * params.theta), rel=1e-12)

    def test_normalization_spot(self):
        for (a, th, t, x1) in [(2.0, 1.0, 0.5, 0.3), (0.5, 2.0, 1.0, 0.0)]:
            mass = kernel_total_mass(ModelParams(a, th, 2), t, P(x1, 0.0))
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_normalization_d3(self):
        mass = kernel_total_mass(ModelParams(2.0, 1.0, 3), 0.5, HalfSpacePoint(0.2, (0.0, 0.0)))
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_one_grid_call_per_kernel_holds_the_boundary_row(self, monkeypatch):
        # The boundary row joins the interior rows: one fixed-rule grid per
        # kernel, with y1 = 0 once in it.
        grids = []

        def counted(params, t, x1, y1_grid, v_grid):
            grids.append(np.asarray(y1_grid))
            return _grid_densities(params, t, x1, y1_grid, v_grid)

        monkeypatch.setattr(stickybm.kernel, "_grid_densities", counted)
        params = ModelParams(2.0, 1.0)
        kernel_total_mass(params, 0.5, P(0.3, 0.0))
        assert len(grids) == 1
        chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, P(0.0, 0.0), P(0.0, 0.0),
                                    n1=12, np_=6)
        assert len(grids) == 3
        assert all(np.count_nonzero(g == 0.0) == 1 for g in grids)

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
            q1 = float(log_kernel(params, t, x, y).interior)
            q2 = float(log_kernel(params, t, y, x).interior)
            assert abs(q1 - q2) <= 1e-8 * max(abs(q1), 1.0)

    def test_flat_diffusivity_reference_quadrature(self):
        # a = 1 makes the Gaussian factor constant in the local time: the
        # boundary value matches a plain 200-point Gauss-Legendre reference.
        params = ModelParams(1.0, 1.3)
        t = 1.0
        kv = kernel(params, t, P(0.0, 0.0), P(0.0, 0.0))
        th = params.theta
        g0 = gaussian_density(t, (0.0,))

        def integrand(l):
            return g0 * _h_density(t - l / th, l)

        ref = fixed_gauss_legendre_integral(integrand, 0.0, th * t, n=200) / th
        assert kv.boundary == pytest.approx(ref, rel=1e-8)

    def test_far_from_boundary_is_free_gaussian(self):
        params = ModelParams(3.0, 1.0)
        t = 0.01
        x = P(1.0, 0.0)   # x1^2 / t = 100 >= 50
        y = P(1.02, 0.03)
        kv = kernel(params, t, x, y)
        free = math.exp(-((x.x1 - y.x1) ** 2 + (x.xp[0] - y.xp[0]) ** 2) / (2 * t)) / (2 * math.pi * t)
        assert kv.interior == pytest.approx(free, rel=1e-8)
        # total boundary mass is the hitting probability, tiny here
        boundary_mass = 1.0 - math.erf(x.x1 / math.sqrt(2 * t))
        assert boundary_mass <= 1e-10

    def test_decomposition_nonnegative(self):
        params = ModelParams(0.5, 1.0)
        kv = kernel(params, 0.3, P(0.5, 0.0), P(0.2, 0.6))
        assert kv.rho_int >= 0 and kv.rho_st >= 0

    def test_time_rescaling_identity(self):
        # The slowed kernel is evaluated by rescaling the horizon: the kernel
        # of the generator eps*Q at time t is the kernel at time eps*t.
        params = ModelParams(2.0, 1.0)
        x, y = P(0.3, 0.0), P(0.1, 0.5)
        assert kernel(params, 0.25 * 0.8, x, y).interior == pytest.approx(
            kernel(params, 0.2, x, y).interior, rel=1e-14)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            kernel(ModelParams(1.0, 1.0), 0.0, P(0.0, 0.0), P(0.0, 0.0))


class TestLogKernel:
    def test_varadhan_boundary_pair(self):
        params = ModelParams(4.0, 1.0)
        x, y = P(0.0, 0.0), P(0.0, 1.0)
        c = cost(params, x, y)
        assert c == 0.125
        lp = float(log_kernel(params, 0.01, x, y).boundary)
        assert abs(-0.01 * lp - c) <= 0.15 * c

    def test_monotone_in_t_far_pair(self):
        params = ModelParams(4.0, 1.0)
        x, y = P(0.5, 0.0), P(0.5, 6.0)
        vals = [float(log_kernel(params, t, x, y).interior) for t in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_small_horizon_stays_finite(self):
        params = ModelParams(0.5, 1.0)
        lp = float(log_kernel(params, 1e-3, P(0.0, 0.0), P(0.0, 1.9)).boundary)
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


class TestStickyIntegral:
    def test_sweep_never_raises(self):
        values = [log_sticky_integral(ModelParams(a, theta, d), SPEC, t, s, v)
                  for a, theta, d, t, s, v in _sweep_inputs()]
        assert np.all(np.isfinite(values))

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


class TestPeakSearch:
    def test_slopes_match_central_differences(self):
        for params, t, s, v in _peak_sweep():
            log_f = _sticky_log_integrand_m(params, t, s, v)
            slopes = _sticky_log_slopes_m(params, t, s, v)
            rows = np.arange(s.size)
            m = np.linspace(0.05, 0.95, s.size)
            h = 1e-6 * m
            d1, d2 = slopes(rows, m)
            fd1 = (log_f(rows, (m + h)[:, None]) - log_f(rows, (m - h)[:, None]))[:, 0] / (2 * h)
            fd2 = (slopes(rows, m + h)[0] - slopes(rows, m - h)[0]) / (2 * h)
            np.testing.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(d2, fd2, rtol=1e-6, atol=1e-6)

    def test_newton_peaks_are_maxima_in_few_passes(self):
        kinds = set()
        for params, t, s, v in _peak_sweep():
            log_f = _sticky_log_integrand_m(params, t, s, v)
            slopes = _sticky_log_slopes_m(params, t, s, v)
            passes = []

            def counted(rows, m):
                passes.append(rows.size)
                return slopes(rows, m)

            peak = _sticky_peak_m(log_f, counted, s.size)
            assert len(passes) <= 12, (params, t)
            # A peak at m = 1 is an endpoint maximum: f rises into it.
            top = np.flatnonzero(peak == 1.0)
            assert np.all(slopes(top, np.ones(top.size))[0] >= 0.0), (params, t)
            # Any other peak is no lower than its neighbours at m (1 +- 1e-6).
            inner = np.flatnonzero(peak < 1.0)
            m = peak[inner, None] * np.array([1.0, 1.0 - 1e-6, 1.0 + 1e-6])
            f = log_f(inner, np.minimum(m, 1.0))
            assert np.all(f[:, :1] >= f[:, 1:]), (params, t)
            kinds.update(peak == 1.0)
        assert kinds == {False, True}


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
        params = ModelParams(4.0, 1.0)
        s, v = _mixed_matrix_gaps()
        whole = log_sticky_integral(params, SPEC, 0.01, s, v)
        monkeypatch.setattr(stickybm.kernel, "_MAX_BATCH", 7)
        assert np.array_equal(log_sticky_integral(params, SPEC, 0.01, s, v), whole)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="0 < t < inf"):
            log_sticky_integral(ModelParams(2.0, 1.5), SPEC, t, [0.5, 1.0], 0.75)


class TestQuadratureFailure:
    def test_batch_error_names_the_failing_integrand(self):
        # At 8 subdivisions only (s, v) = (0, 3) misses the tolerance.
        spec = QuadratureSpec(relative_tolerance=1e-10, max_subdivisions=8)
        with pytest.raises(QuadratureError) as err:
            log_sticky_integral(ModelParams(2.0, 1.5), spec, 1e-3,
                                [0.3, 1.0, 0.0], [1.0, 0.3, 3.0])
        msg = str(err.value)
        assert "s=0.0, v=3.0" in msg and "s=0.3" not in msg
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
        # constant mu-density: u = 1, v = 1/(2 theta) annihilates all three
        # residual operators exactly
        params = ModelParams(2.0, 1.3)
        u = lambda t, y1, gap: 1.0
        v = lambda t, gap: 1.0 / (2 * params.theta)
        r1, r2, r3 = fp_residuals_from_fields(params, u, v, 0.5, 0.01,
                                              [(0.5, 0.2)], [0.1])
        assert r1 == 0.0 and r2 == 0.0
        assert abs(r3) < 1e-15

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
