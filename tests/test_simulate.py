import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stickybm.geometry import HalfSpacePoint, ModelParams
from stickybm.simulate import (
    SamplePath,
    SimConfig,
    _draw_horizontal,
    euler_thin_layer,
    horizontal_cdf,
    increment_tables,
    modulus_statistics,
    sample_increments,
    simulate,
    simulate_batch,
    simulate_many,
    step_batch,
    step_horizontal,
    step_vertical,
)


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


PARAMS = ModelParams(2.0, 1.5, 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.0, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 10, 1, tabulation_resolution=100)
        with pytest.raises(ValueError):
            SimConfig(ModelParams(1.0, 1.0, 3), P(0.0, 0.0), 0.1, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 10, seed=-1)


class TestIncrementTables:
    def test_masses_sum_to_one(self):
        tab = increment_tables(PARAMS, 0.25, 0.25)
        assert tab.mass_no_visit + tab.mass_boundary + tab.mass_diffuse == pytest.approx(1.0, abs=1e-12)

    def test_cdfs_monotone(self):
        tab = increment_tables(PARAMS, 0.7, 0.1)
        assert np.all(np.diff(tab.z_cdf) >= 0)
        assert np.all(np.diff(tab.l_cdf_boundary) >= 0)
        assert np.all(np.diff(tab.l_cdf_diffuse) >= 0)

    def test_start_quantization(self):
        t1 = increment_tables(PARAMS, 0.250004, 0.25)
        t2 = increment_tables(PARAMS, 0.250002, 0.25)
        assert t1 is t2      # same 1e-4 cell, cache hit

    def test_boundary_start(self):
        tab = increment_tables(PARAMS, 0.0, 0.2)
        assert tab.mass_no_visit == 0.0
        assert tab.mass_boundary + tab.mass_diffuse == pytest.approx(1.0, abs=1e-12)


class TestSteps:
    def test_horizontal_far_start_no_local_time(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z, dl = step_horizontal(ModelParams(1.0, 1.0), rng, 10.0, 0.01)
            assert dl == 0.0
            assert z > 0

    def test_horizontal_increment_range(self):
        rng = np.random.default_rng(1)
        dt = 0.3
        for _ in range(500):
            z, dl = step_horizontal(PARAMS, rng, 0.05, dt)
            assert z >= 0.0
            assert 0.0 <= dl <= PARAMS.theta * dt * (1 + 1e-12)

    def test_vertical_variances(self):
        rng = np.random.default_rng(2)
        dt = 0.2
        draws0 = np.array([step_vertical(PARAMS, rng, dt, 0.0)[0] for _ in range(40000)])
        assert draws0.var() == pytest.approx(dt, rel=0.05)
        draws1 = np.array([step_vertical(PARAMS, rng, dt, dt)[0] for _ in range(40000)])
        assert draws1.var() == pytest.approx(PARAMS.a * dt, rel=0.05)
        d_o = 0.12
        draws = np.array([step_vertical(PARAMS, rng, dt, d_o)[0] for _ in range(100000)])
        assert draws.var() == pytest.approx(dt + PARAMS.big_a * d_o, rel=0.02)

    def test_batch_step_matches_per_start_tables(self):
        # Starts in four 1e-4 cells, interleaved; each path must draw from its
        # own cell's tables with its own uniforms.
        dt = 0.1
        x1 = np.array([0.0, 0.25, 0.250002, 1.3, 0.0, 0.6, 0.25, 1.3])
        xp = np.arange(8.0)[:, None]
        rng = np.random.default_rng(4)
        u = rng.random((3, 8))
        g = rng.standard_normal((8, 1))
        z, xp_new, d_o = step_batch(PARAMS, x1, xp, dt, u, g, 512)
        for i in range(8):
            tab = increment_tables(PARAMS, x1[i], dt, 512)
            zi, dli = _draw_horizontal(tab, u[0, i], u[1, i], u[2, i])
            assert z[i] == zi[0]
            assert d_o[i] == min(dli[0] / PARAMS.theta, dt)
            assert xp_new[i, 0] == xp[i, 0] + math.sqrt(dt + PARAMS.big_a * d_o[i]) * g[i, 0]

    def test_vertical_guards(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            step_vertical(PARAMS, rng, 0.1, 0.2)
        with pytest.raises(ValueError):
            step_vertical(PARAMS, rng, 0.1, -0.01)


class TestMarginalLaw:
    def test_one_step_against_quadrature(self):
        x1, dt = 0.25, 0.25
        n = 100000
        z, dl = sample_increments(PARAMS, x1, dt, n, seed=42)
        tab = increment_tables(PARAMS, x1, dt)
        # boundary atom frequency within 3 binomial standard errors
        freq = float(np.mean(z == 0.0))
        se = math.sqrt(tab.mass_boundary * (1 - tab.mass_boundary) / n)
        assert abs(freq - tab.mass_boundary) <= 3 * se
        # interior Kolmogorov-Smirnov against the quadrature CDF, evaluated
        # on a fine grid and interpolated at the samples
        interior = np.sort(z[z > 0])
        zg = np.linspace(0.0, float(interior[-1]) * 1.0001, 4001)
        cdf_grid = horizontal_cdf(PARAMS, tab.x1, dt, zg)
        cond = (np.interp(interior, zg, cdf_grid) - tab.mass_boundary) / (1 - tab.mass_boundary)
        k = interior.size
        ks = max(np.max(np.abs(np.arange(1, k + 1) / k - cond)),
                 np.max(np.abs(np.arange(0, k) / k - cond)))
        assert ks < 1.628 / math.sqrt(k)
        # mean occupation increment never exceeds the horizon
        assert np.mean(dl) / PARAMS.theta <= dt

    def test_composition_in_law(self):
        # four exact steps of dt/4 against one exact step of dt: the sampled
        # chain satisfies Chapman-Kolmogorov up to tabulation error.
        x1, dt = 0.25, 0.25
        cfg = SimConfig(PARAMS, P(x1, 0.0), dt / 4, 4, seed=11, tabulation_resolution=512)
        ends = simulate_batch(cfg, 15000).x1[:, -1]
        one, _ = sample_increments(PARAMS, x1, dt, 15000, seed=12)
        assert ks_2samp(ends, one).pvalue > 0.001

    def test_time_scaling_consistency(self):
        # step eps*Delta with params equals the eps-slowed process at Delta
        eps, delta = 0.25, 0.4
        za, _ = sample_increments(PARAMS, 0.3, eps * delta, 15000, seed=21)
        zb, _ = sample_increments(PARAMS, 0.3, 0.1, 15000, seed=22)
        assert ks_2samp(za, zb).pvalue > 0.001


class TestPaths:
    def test_invariants(self):
        cfg = SimConfig(PARAMS, P(0.3, 0.0), 0.05, 200, seed=7)
        path = simulate(cfg)
        assert np.all(path.local_time == PARAMS.theta * path.occupation_time)
        assert np.all(np.diff(path.occupation_time) >= 0)
        assert np.all(np.diff(path.occupation_time) <= 0.05 + 1e-15)
        assert np.all(path.x1 >= 0)
        visits = path.x1 == 0.0
        assert visits.any()    # theta = 1.5, 200 steps from 0.3: visits certain
        assert np.all(path.x1[visits] == 0.0)

    def test_determinism_contract(self):
        cfg = SimConfig(PARAMS, P(0.3, 0.0), 0.05, 50, seed=7)
        p1, p2 = simulate(cfg), simulate(cfg)
        assert np.array_equal(p1.x1, p2.x1) and np.array_equal(p1.xp, p2.xp)
        p3 = simulate(SimConfig(PARAMS, P(0.3, 0.0), 0.05, 50, seed=8))
        assert not np.array_equal(p1.x1, p3.x1)

    def test_batch_matches_single(self):
        cfg = SimConfig(PARAMS, P(0.1, 0.0), 0.1, 5, seed=3)
        batch = simulate_batch(cfg, 4)
        for i in range(4):
            single = simulate(cfg, path_index=i)
            assert np.array_equal(single.x1, batch.path(i).x1)
            assert np.array_equal(single.xp, batch.path(i).xp)

    def test_simulate_many(self):
        cfg = SimConfig(PARAMS, P(0.1, 0.0), 0.1, 3, seed=3)
        paths = simulate_many(cfg, 3)
        assert len(paths) == 3
        assert all(isinstance(p, SamplePath) for p in paths)

    def test_far_from_boundary_is_plain_bm(self):
        params = ModelParams(3.0, 1.0, 2)
        cfg = SimConfig(params, P(50.0, 0.0), 0.01, 10, seed=5, tabulation_resolution=512)
        batch = simulate_batch(cfg, 1500)
        assert np.all(batch.occupation_time == 0.0)
        incs = np.diff(batch.x1, axis=1).ravel()
        ref = np.random.default_rng(9).normal(scale=math.sqrt(0.01), size=incs.size)
        assert ks_2samp(incs, ref).pvalue > 0.001
        vert = np.diff(batch.xp[:, :, 0], axis=1).ravel()
        assert vert.var() == pytest.approx(0.01, rel=0.05)

    def test_states_property_exact_zeros(self):
        cfg = SimConfig(PARAMS, P(0.05, 0.0), 0.2, 30, seed=13)
        path = simulate(cfg)
        for i, st in enumerate(path.states):
            assert st.x1 == path.x1[i]
            if path.x1[i] == 0.0:
                assert st.on_boundary()


class TestModulus:
    def test_eta_limits(self):
        cfg = SimConfig(PARAMS, P(0.5, 0.0), 0.05, 40, seed=17)
        paths = simulate_many(cfg, 40)
        assert modulus_statistics(paths, 0.2, 1e-9) == 1.0
        assert modulus_statistics(paths, 0.2, 1e9) == 0.0

    def test_monotone_in_eta(self):
        cfg = SimConfig(PARAMS, P(0.5, 0.0), 0.05, 40, seed=19)
        paths = simulate_many(cfg, 60)
        etas = [0.1, 0.3, 0.6, 1.0]
        freqs = [modulus_statistics(paths, 0.25, e) for e in etas]
        assert all(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:]))

    def test_slowed_paths_tightness_slope(self):
        # log-frequency of large oscillations vs 1/(delta * eps) has a
        # negative slope: the exponential equicontinuity bound at work.
        params = ModelParams(1.0, 1.0, 2)
        delta, eta = 0.2, 0.55
        points = []
        for eps in (0.2, 0.1, 0.05):
            cfg = SimConfig(params, P(1.0, 0.0), eps * 0.05, 20, seed=23,
                            tabulation_resolution=512)
            paths = simulate_many(cfg, 400)
            freq = modulus_statistics(paths, delta, eta, time_scale=eps)
            if freq > 0:
                points.append((1.0 / (delta * eps), math.log(freq)))
        assert len(points) >= 2
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope < 0

    def test_empty_error(self):
        with pytest.raises(ValueError):
            modulus_statistics([], 0.1, 0.1)


class TestLongRun:
    def test_occupation_fraction_trend(self):
        # With theta = 1 the boundary-time to window-time ratio drifts toward
        # the stationary proportion (1/2) / (M + 1/2) on the window [0, M].
        params = ModelParams(1.0, 1.0, 2)
        m_win = 1.0
        target = 0.5 / (m_win + 0.5)
        errs = []
        for horizon in (6.0, 60.0):
            cfg = SimConfig(params, P(0.2, 0.0), 0.08, int(horizon / 0.08), seed=29,
                            tabulation_resolution=512)
            batch = simulate_batch(cfg, 24)
            on_b = batch.x1 == 0.0
            in_win = batch.x1 <= m_win
            ratio = np.sum(on_b) / max(np.sum(in_win), 1)
            errs.append(abs(ratio - target))
        assert errs[-1] < errs[0]


class TestEulerOracle:
    def test_biased_scheme_is_qualitatively_consistent(self):
        # The thin-layer Euler scheme is biased at any finite step; only the
        # occupation-time fraction's order of magnitude can be compared with
        # the exact sampler.
        params = ModelParams(1.0, 1.0, 2)
        horizon = 10.0
        exact = simulate_batch(SimConfig(params, P(0.2, 0.0), 0.05, 200, seed=31), 60)
        frac_exact = float(np.mean(exact.occupation_time[:, -1])) / horizon
        euler_fracs = []
        for i in range(15):
            ep = euler_thin_layer(params, P(0.2, 0.0), 0.0025, 4000, seed=100 + i)
            euler_fracs.append(ep.occupation_time[-1] / horizon)
        frac_euler = float(np.mean(euler_fracs))
        assert 0.2 * frac_exact < frac_euler < 3.0 * frac_exact
