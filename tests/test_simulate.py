import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, ndtr, ndtri
from scipy.stats import ks_2samp, kstest, qmc

import stickybm.simulate as sim
from stickybm.geometry import HalfSpacePoint, ModelParams
from stickybm.simulate import (
    BatchPaths,
    SimConfig,
    simulate_batch,
    step_batch,
    walk,
)

from oracles import (_cumulative_gl, _graded_unit_grid, _h_density, _phi, euler_thin_layer,
                     horizontal_cdf, modulus_statistics)


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


PARAMS = ModelParams(2.0, 1.5, 2)


def one_step(params, x1, dt, n, seed):
    """``n`` one-step draws of (z, delta_L) from ``x1``: one-step paths of a batch."""
    batch = simulate_batch(SimConfig(params, P(x1, 0.0), dt, 1, seed), n)
    return batch.x1[:, 1], batch.local_time[:, 1]


def walk_rows(cfg, first, count):
    """Paths ``first .. first + count - 1`` of ``cfg``'s batch, stepped by
    :func:`walk` alone: ``(x1, xp, occupation_time)`` after every step, as
    :func:`simulate_batch` accumulates them."""
    x1, xp = np.empty((count, cfg.n_steps)), np.empty((count, cfg.n_steps, cfg.params.d - 1))
    occ = np.zeros((count, cfg.n_steps + 1))
    steps = walk(cfg.params, cfg.x0, np.full(cfg.n_steps, cfg.step), count, cfg.seed,
                 first_index=first)
    for j, (z, y, d_o) in enumerate(steps):
        x1[:, j], xp[:, j], occ[:, j + 1] = z, y, occ[:, j] + d_o
    return x1, xp, occ[:, 1:]


def map_atom_probability(params, x1, dt):
    """``P(z = 0)`` of the sampler's map: ``b / (b + 2 theta1 s)`` integrated over
    the clock uniform ``u0`` up to the visit threshold ``2 Phi(-xi)``."""
    sd = math.sqrt(dt)
    theta1, xi = params.theta * sd, x1 / sd

    def atom(u0):
        s = sim._unstuck_time(ndtri(0.5 * u0), xi + theta1, theta1)
        b = xi + theta1 * (1.0 - s)
        return b / (b + 2.0 * theta1 * s)

    return quad(atom, 0.0, 2.0 * ndtr(-xi), epsabs=1e-15, epsrel=1e-13, limit=200)[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.0, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(ModelParams(1.0, 1.0, 3), P(0.0, 0.0), 0.1, 10, 1)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 10, seed=-1)

    def test_start_dimension_is_the_one_dimension_rule(self):
        # The same check and message as ``walk``'s start point.
        with pytest.raises(ValueError, match="^x0 has dimension 3, model expects 2$"):
            SimConfig(PARAMS, P(0.0, 0.0, 1.0), 0.1, 10, 1)

    def test_seed_rejects_a_bool(self):
        # ``True == 1``, but a flag passed as a seed is a mistake, as it is
        # for ``minimize_path_action``'s ``n_segments``.
        with pytest.raises(ValueError, match="seed"):
            SimConfig(PARAMS, P(0.0, 0.0), 0.1, 10, seed=True)


def clock_law_by_quadrature(xi, theta1, k=1024, sub=4):
    """``P(s* <= 1 - g)`` at the nodes ``g`` of ``_graded_unit_grid(k)``, by the
    oracle's per-cell Gauss-Legendre (each cell cut in ``sub``) of the
    local-time density ``h / theta1 + 2 phi`` at ``l = theta1 g``."""
    g = _graded_unit_grid(k)
    fine = theta1 * np.append((g[:-1, None] + np.diff(g)[:, None] * np.arange(sub) / sub), 1.0)
    s = np.asarray(xi, dtype=float)[:, None, None]
    cdf = _cumulative_gl(lambda l: _h_density(1.0 - l / theta1, l + s) / theta1
                         + 2.0 * _phi(1.0 - l / theta1, l + s), fine)[:, ::sub]
    return 1.0 - g, cdf[:, -1:] - cdf


class TestExactStep:
    XI = np.array([1e-3, 0.0, 1.4, 8.0])

    @pytest.mark.parametrize("theta1", [1e-3, 0.01, math.sqrt(0.05), 1.0, 4.0, 20.0])
    def test_meeting_time_law(self, theta1):
        # The clock runs out at s with P(s* <= s) = 2 Phi((theta1 s - c) / sqrt s),
        # and the unstuck time inverts it on (0, 1] below the visit threshold.
        c = self.XI[:, None] + theta1
        u0 = np.concatenate([np.geomspace(1e-15, 0.5, 200), np.linspace(0.5, 1.0, 201)[1:-1]])
        visit = u0[None, :] < 2.0 * ndtr(-self.XI[:, None])
        s = sim._unstuck_time(ndtri(0.5 * u0)[None, :], c, theta1)
        assert np.all((s[visit] > 0.0) & (s[visit] <= 1.0 + 1e-15))
        back = 2.0 * ndtr((theta1 * s - c) / np.sqrt(s))
        assert np.max(np.abs(back - u0)) < 1e-12

    @pytest.mark.parametrize("theta, x1, dt", [
        (1.5, 0.25, 0.25), (1.5, 0.0, 0.2), (1.5, 1.4 * math.sqrt(0.05), 0.05),
        (1e-3 / math.sqrt(0.05), 0.01, 0.05), (20.0 / math.sqrt(0.1), 0.3, 0.1),
    ])
    def test_atom_probability(self, theta, x1, dt):
        # The atom event is b / (b + 2 theta1 s) of each u0 below the visit
        # threshold; integrated, it is the oracle's boundary mass.
        params = ModelParams(2.0, theta, 2)
        atom = horizontal_cdf(params, x1, dt, 0.0, l_cells=4096)
        assert abs(map_atom_probability(params, x1, dt) - atom) < 1e-12

    @pytest.mark.parametrize("xi, theta1", [(0.3, 0.2), (1.4, 1.0), (2.5, 0.05)])
    def test_visit_threshold(self, xi, theta1):
        # At u0 = 2 Phi(-xi) the clock runs out exactly at s = 1 with no
        # local time, and off the atom the draw does not jump there.
        s = sim._unstuck_time(np.array(-xi), xi + theta1, theta1)
        assert s == pytest.approx(1.0, abs=1e-15)
        params, dt = ModelParams(2.0, theta1, 2), 1.0
        thr = 2.0 * ndtr(-xi)
        u0 = thr * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        u = np.stack([u0, np.full(3, 0.999), np.full(3, 0.4)])
        z, dl = sim._horizontal(params, np.full(3, xi), dt, u)
        assert np.all(z > 0.0) and dl[2] == 0.0
        assert np.max(dl) < 1e-8 and np.ptp(z) < 1e-8

class TestClosedFormRows:
    XI = np.array([0.0, 1e-3, 0.05, 0.5, 1.4, 3.0, 8.0])

    @pytest.mark.parametrize("k", [256, 1024])
    @pytest.mark.parametrize("theta1", [1e-3, 0.01, math.sqrt(0.05), 1.0, 4.0, 20.0])
    def test_rows_match_quadrature(self, theta1, k):
        # The closed-form clock law, read at the nodes of the graded grid, is
        # the law of l = theta1 (1 - s) under the oracle's local-time densities.
        # Four Gauss nodes per cell, each cell cut in four, err by at most about
        # 3.3e-11 (the rounding of 1 - l / theta1 sets that floor).
        c = self.XI[:, None] + theta1
        s, by_quadrature = clock_law_by_quadrature(self.XI, theta1, k)
        with np.errstate(divide="ignore"):        # s = 0 at the last node
            closed = 2.0 * ndtr((theta1 * s - c) / np.sqrt(s))
        assert np.max(np.abs(closed - by_quadrature)) < 1e-10
        assert np.all(np.diff(closed, axis=1) <= 0)          # s falls along the row
        assert np.max(np.abs(closed[:, 0] - 2.0 * ndtr(-self.XI))) < 1e-15
        assert np.all(closed[:, -1] == 0.0)


class TestIncrementTables:
    """The one-step increment law from a single start."""

    def test_exact_start(self):
        # No quantization: nearby starts each step from their own x1.  Off the
        # boundary the same uniforms move both by the same amount.
        x1, dt = np.array([0.250004, 0.250002]), 0.25
        u = np.array([[0.9, 0.9], [0.5, 0.5], [0.3, 0.3]])
        z, dl = sim._horizontal(PARAMS, x1, dt, u)
        assert np.all(dl == 0.0)
        assert z[0] - z[1] == pytest.approx(2e-6, rel=1e-9)
        thr = 2.0 * ndtr(-x1 / math.sqrt(dt))
        assert thr[0] < thr[1]
        u = np.array([[thr[0] * (1 + 1e-9)] * 2, [0.5, 0.5], [0.3, 0.3]])
        z, dl = sim._horizontal(PARAMS, x1, dt, u)
        assert dl[0] == 0.0 and dl[1] > 0.0

    def test_boundary_start(self):
        # From x1 = 0 every step reaches the boundary: local time is positive.
        z, dl = one_step(PARAMS, 0.0, 0.2, 20000, 3)
        assert np.all(dl > 0.0) and np.all(z >= 0.0)
        assert (z == 0.0).any() and (z > 0.0).any()

    def test_far_start(self):
        # Past xi = 8.5 the visit probability 2 Phi(-xi) is below the smallest
        # uniform walk draws, 2^-53: no local time, exactly.
        x1 = np.array([8.5, 10.0, 100.0]) * math.sqrt(0.01)
        u = np.array([np.full(3, 2.0 ** -53), np.full(3, 0.5), np.full(3, 0.5)])
        z, dl = sim._horizontal(PARAMS, x1, 0.01, u)
        assert np.all(dl == 0.0) and np.all(z > 0.0)
        z, dl = one_step(PARAMS, 10.0, 0.01, 2000, 1)
        assert np.all(dl == 0.0) and np.all(z > 0.0)


class TestSteps:
    def test_horizontal_far_start_no_local_time(self):
        z, dl = one_step(ModelParams(1.0, 1.0), 10.0, 0.01, 200, 0)
        assert np.all(dl == 0.0)
        assert np.all(z > 0)

    def test_far_starts_take_the_killed_gaussian_step(self):
        # From xi = 8.5 on, not even the smallest uniform (2^-53) reaches the
        # boundary: zero local time and the killed Gaussian law.
        dt = 0.04
        for x1 in (8.5 * math.sqrt(dt), 0.3 + 8.5 * math.sqrt(dt), 3.0):
            z, dl = one_step(PARAMS, x1, dt, 20000, 8)
            assert np.all(dl == 0.0) and np.all(z > 0.0)
            sd = math.sqrt(dt)

            def killed_cdf(y):
                return ((ndtr((y - x1) / sd) - ndtr(-x1 / sd))
                        - (ndtr((y + x1) / sd) - ndtr(x1 / sd))) / erf(x1 / (sd * math.sqrt(2)))

            assert kstest(z, killed_cdf).pvalue > 0.001

    def test_horizontal_increment_range(self):
        dt = 0.3
        z, dl = one_step(PARAMS, 0.05, dt, 500, 1)
        assert np.all(z >= 0.0)
        assert np.all((0.0 <= dl) & (dl <= PARAMS.theta * dt * (1 + 1e-12)))

    def test_mixed_starts_match_single_starts(self):
        # Each path draws from its own start: one batch over many starts
        # equals each start stepped alone, bit for bit.
        dt, n = 0.25, 3000
        rng = np.random.default_rng(4)
        x1 = np.repeat([0.0, 0.01, 0.3, 1.0, 4.0], n // 5)
        xp = np.arange(float(n))[:, None]
        u = rng.random((3, n))
        g = rng.standard_normal((n, 1))
        z, xp_new, d_o = step_batch(PARAMS, x1, xp, dt, u, g)
        for start in np.unique(x1):
            i = x1 == start
            alone = step_batch(PARAMS, x1[i], xp[i], dt, u[:, i], g[i])
            assert all(np.array_equal(a, b) for a, b in zip(alone, (z[i], xp_new[i], d_o[i])))
        assert np.array_equal(xp_new, xp + np.sqrt(dt + PARAMS.big_a * d_o)[:, None] * g)
        assert (z == 0.0).any() and (d_o[x1 == 4.0] == 0.0).all()


class TestScaledTables:
    def test_law_between_nodes(self):
        # The step is exact at every scaled start xi = x1 / sqrt(dt); here xi
        # = 0.075, 1.41 and 3.05.  2^20 scrambled Sobol points per start, fed to the
        # sampler as its three uniforms, give an empirical law whose own
        # distance to the exact one is about 3e-5; it must stay within 1e-4
        # of horizontal_cdf everywhere (measured: 4.2e-5, 4.0e-5, 4.0e-5).
        # The atom event is curved in (u0, u1), so its Sobol frequency errs
        # by up to 2.2e-5; its exact integral matches the oracle to 1e-12.
        dt, n = 0.05, 2 ** 20
        u = qmc.Sobol(3, scramble=True, seed=5).random_base2(20).T.copy()
        xp = np.zeros((n, 1))
        for xi in (0.075, 1.41, 3.05):
            x1 = xi * math.sqrt(dt)
            z, _, _ = step_batch(PARAMS, np.full(n, x1), xp, dt, u, xp)
            zs = np.sort(z)
            zg = np.linspace(0.0, zs[-1], 300)
            exact = horizontal_cdf(PARAMS, x1, dt, zg, l_cells=4096)
            empirical = np.searchsorted(zs, zg, side="right") / n
            assert np.max(np.abs(empirical - exact)) < 1e-4
            assert abs(map_atom_probability(PARAMS, x1, dt) - exact[0]) < 1e-12


class TestMarginalLaw:
    def test_one_step_against_quadrature(self):
        x1, dt = 0.25, 0.25
        n = 100000
        z, dl = one_step(PARAMS, x1, dt, n, 42)
        mass_boundary = horizontal_cdf(PARAMS, x1, dt, 0.0)
        # boundary atom frequency within 3 binomial standard errors
        freq = float(np.mean(z == 0.0))
        se = math.sqrt(mass_boundary * (1 - mass_boundary) / n)
        assert abs(freq - mass_boundary) <= 3 * se
        # interior Kolmogorov-Smirnov against the quadrature CDF, evaluated
        # on a fine grid and interpolated at the samples
        interior = np.sort(z[z > 0])
        zg = np.linspace(0.0, float(interior[-1]) * 1.0001, 4001)
        cdf_grid = horizontal_cdf(PARAMS, x1, dt, zg)
        cond = (np.interp(interior, zg, cdf_grid) - mass_boundary) / (1 - mass_boundary)
        k = interior.size
        ks = max(np.max(np.abs(np.arange(1, k + 1) / k - cond)),
                 np.max(np.abs(np.arange(0, k) / k - cond)))
        assert ks < 1.628 / math.sqrt(k)
        # mean occupation increment never exceeds the horizon
        assert np.mean(dl) / PARAMS.theta <= dt

    def test_composition_in_law(self):
        # four exact steps of dt/4 against one exact step of dt: the sampled
        # chain satisfies Chapman-Kolmogorov.
        x1, dt = 0.25, 0.25
        cfg = SimConfig(PARAMS, P(x1, 0.0), dt / 4, 4, seed=11)
        ends = simulate_batch(cfg, 15000).x1[:, -1]
        one, _ = one_step(PARAMS, x1, dt, 15000, 12)
        assert ks_2samp(ends, one).pvalue > 0.001

    def test_time_scaling_consistency(self):
        # step eps*Delta with params equals the eps-slowed process at Delta
        eps, delta = 0.25, 0.4
        za, _ = one_step(PARAMS, 0.3, eps * delta, 15000, 21)
        zb, _ = one_step(PARAMS, 0.3, 0.1, 15000, 22)
        assert ks_2samp(za, zb).pvalue > 0.001


class TestPaths:
    def test_invariants(self):
        cfg = SimConfig(PARAMS, P(0.3, 0.0), 0.05, 200, seed=7)
        path = simulate_batch(cfg, 1)
        assert np.all(path.local_time == PARAMS.theta * path.occupation_time)
        assert np.all(np.diff(path.occupation_time) >= 0)
        assert np.all(np.diff(path.occupation_time) <= 0.05 + 1e-15)
        assert np.all(path.x1 >= 0)
        visits = path.x1 == 0.0
        assert visits.any()    # theta = 1.5, 200 steps from 0.3: visits certain
        assert np.all(path.x1[visits] == 0.0)

    def test_clock_identity_across_table_and_far_starts(self):
        # Starts on both sides of xi = 8.5: L = theta O exactly, and no
        # clock moves on far steps, which not even the smallest uniform
        # takes to the boundary.
        cfg = SimConfig(PARAMS, P(0.5, 0.0), 0.001, 40, seed=9)
        batch = simulate_batch(cfg, 300)
        assert np.array_equal(batch.local_time, PARAMS.theta * batch.occupation_time)
        first = simulate_batch(cfg, 1)
        assert np.array_equal(first.x1[0], batch.x1[0])
        assert np.array_equal(first.local_time, PARAMS.theta * first.occupation_time)
        assert np.array_equal(walk_rows(cfg, 299, 1)[0][0], batch.x1[299, 1:])
        far = batch.x1[:, :-1] / math.sqrt(0.001) >= 8.5
        assert far.any() and (~far).any()
        assert np.all(np.diff(batch.occupation_time, axis=1)[far] == 0.0)

    def test_determinism_contract(self):
        cfg = SimConfig(PARAMS, P(0.3, 0.0), 0.05, 50, seed=7)
        p1, p2 = simulate_batch(cfg, 1), simulate_batch(cfg, 1)
        assert np.array_equal(p1.x1, p2.x1) and np.array_equal(p1.xp, p2.xp)
        p3 = simulate_batch(SimConfig(PARAMS, P(0.3, 0.0), 0.05, 50, seed=8), 1)
        assert not np.array_equal(p1.x1, p3.x1)

    def test_batch_matches_single(self):
        cfg = SimConfig(PARAMS, P(0.1, 0.0), 0.1, 5, seed=3)
        batch = simulate_batch(cfg, 4)
        for i in range(4):
            x1, xp, occ = walk_rows(cfg, i, 1)
            assert np.array_equal(x1[0], batch.x1[i, 1:])
            assert np.array_equal(xp[0], batch.xp[i, 1:])
            assert np.array_equal(occ[0], batch.occupation_time[i, 1:])

    def test_paths_read_their_own_rows(self):
        # d = 3 and 3 steps: 15 draws per row, padded to 16.
        params = ModelParams(2.0, 1.5, 3)
        cfg = SimConfig(params, P(0.1, 0.0, 0.0), 0.1, 3, seed=3)
        full = simulate_batch(cfg, 10)
        head = simulate_batch(cfg, 5)
        tail = walk_rows(cfg, 5, 5)
        for k, name in enumerate(("x1", "xp", "occupation_time")):
            assert np.array_equal(getattr(head, name), getattr(full, name)[:5])
            assert np.array_equal(tail[k], getattr(full, name)[5:, 1:])

    def test_layout_reads_philox_rows(self, monkeypatch):
        # Row r of the generator keyed on seed + stream * 2^64 holds path r's
        # draws, step by step: three uniforms, then d - 1 normals as ndtri of
        # uniforms, each uniform (k + 1/2) 2^-52 for the top 52 bits k.
        params, seed, stream, first, n_paths = ModelParams(2.0, 1.5, 3), 12, 4, 7, 3
        dts = [0.1, 0.2]
        seen = []

        def spy(params, x1, xp, dt, u, g):
            seen.append((u.copy(), g.copy()))
            return x1, xp, np.zeros_like(x1)

        monkeypatch.setattr(sim, "step_batch", spy)
        list(walk(params, P(0.2, 0.0, 0.0), dts, n_paths, seed, stream, first))
        gen = np.random.Philox(key=seed + (stream << 64))
        raw = gen.random_raw((first + n_paths) * 12).reshape(-1, 12)[first:, :10]
        u = ((raw >> 12).astype(float) + 0.5) * 2.0 ** -52
        assert np.all((0.0 < u) & (u < 1.0))
        for j, (u_j, g_j) in enumerate(seen):
            step = u[:, 5 * j:5 * j + 5]
            assert np.array_equal(u_j, step[:, :3].T)
            assert np.array_equal(g_j, ndtri(step[:, 3:]))
        assert len(seen) == len(dts)

    def test_sent_masks_keep_the_rows_values(self):
        # A walk told to drop rows steps the rest exactly as the full walk does.
        params, dts, n = ModelParams(2.0, 1.5, 3), [0.1, 0.2, 0.05], 40
        full = list(walk(params, P(0.2, 0.0, 0.0), dts, n, 5, stream=2, first_index=3))
        steps = walk(params, P(0.2, 0.0, 0.0), dts, n, 5, stream=2, first_index=3)
        got, rows = next(steps), np.arange(n)
        for j in (1, 2):
            keep = (np.arange(rows.size) + j) % 3 != 0
            rows = rows[keep]
            got = steps.send(keep)
            assert all(np.array_equal(a, b[rows]) for a, b in zip(got, full[j]))
        assert rows.size == 18

    def test_a_mask_that_keeps_no_row_steps_none(self):
        # After an all-False mask the walk goes on with zero rows, silently.
        params, dts, n = ModelParams(2.0, 1.5, 3), [0.1, 0.2, 0.05], 7
        steps = walk(params, P(0.2, 0.0, 0.0), dts, n, 5)
        next(steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rest = [steps.send(np.zeros(n, dtype=bool)), next(steps)]
        for x1, xp, d_o in rest:
            assert x1.shape == (0,) and xp.shape == (0, 2) and d_o.shape == (0,)

    def test_streams_do_not_overlap_across_seeds(self):
        # (seed 0, stream 1) and (seed 1, stream 0) are different keys.
        dts = [0.05, 0.05]
        a = [x1 for x1, _, _ in walk(PARAMS, P(0.3, 0.0), dts, 50, 0, stream=1)]
        b = [x1 for x1, _, _ in walk(PARAMS, P(0.3, 0.0), dts, 50, 1, stream=0)]
        assert not np.array_equal(a[-1], b[-1])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            walk(PARAMS, P(0.3, 0.0), [0.1], 5, seed)

    def test_start_point_dimension_checked(self):
        # One tangential coordinate would broadcast against d = 3's two.
        with pytest.raises(ValueError, match="start point"):
            walk(ModelParams(2.0, 1.0, 3), P(0.3, 0.5), [0.1, 0.1], 3, 0)

    @pytest.mark.parametrize("dts", [[0.1, -0.1], [0.1, 0.0], [math.inf], [math.nan]])
    def test_steps_checked_at_the_call(self, dts):
        # walk raises at the call; its iterator is never advanced.
        with pytest.raises(ValueError, match="steps must be positive and finite"):
            walk(PARAMS, P(0.3, 0.0), dts, 3, 0)

    @pytest.mark.parametrize("stream, first_index", [(0, -1), (-1, 0)],
                             ids=["first-index", "stream"])
    def test_stream_layout_checked_at_the_call(self, stream, first_index):
        with pytest.raises(ValueError, match="first_index and stream must be non-negative"):
            walk(PARAMS, P(0.3, 0.0), [0.1], 3, 0, stream=stream, first_index=first_index)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_step_batch_rejects_a_step_that_is_not_positive(self, dt):
        u, g = np.full((3, 1), 0.5), np.zeros((1, 1))
        with pytest.raises(ValueError, match="dt must be positive"):
            step_batch(PARAMS, np.array([0.3]), np.zeros((1, 1)), dt, u, g)

    def test_simulate_many(self):
        # Many paths are one batch, stacked on the leading axis.
        cfg = SimConfig(PARAMS, P(0.1, 0.0), 0.1, 3, seed=3)
        paths = simulate_batch(cfg, 3)
        assert isinstance(paths, BatchPaths)
        assert paths.x1.shape == (3, 4) and paths.xp.shape == (3, 4, 1)
        assert paths.occupation_time.shape == (3, 4) and paths.times.shape == (4,)

    def test_far_from_boundary_is_plain_bm(self):
        params = ModelParams(3.0, 1.0, 2)
        cfg = SimConfig(params, P(50.0, 0.0), 0.01, 10, seed=5)
        batch = simulate_batch(cfg, 1500)
        assert np.all(batch.occupation_time == 0.0)
        incs = np.diff(batch.x1, axis=1).ravel()
        ref = np.random.default_rng(9).normal(scale=math.sqrt(0.01), size=incs.size)
        assert ks_2samp(incs, ref).pvalue > 0.001
        vert = np.diff(batch.xp[:, :, 0], axis=1).ravel()
        assert vert.var() == pytest.approx(0.01, rel=0.05)


def modulus_by_path(paths, delta, eta, time_scale):
    """Reference for :func:`modulus_statistics`: path by path, lag by lag."""
    hits = 0
    for i in range(len(paths.x1)):
        times = paths.times / time_scale
        k_max = int(math.floor(delta / (times[1] - times[0]) + 1e-9))
        coords = np.column_stack([paths.x1[i], paths.xp[i]])
        worst = 0.0
        for k in range(1, min(k_max, times.size - 1) + 1):
            worst = max(worst, float(np.max(np.linalg.norm(coords[k:] - coords[:-k], axis=1))))
        hits += worst >= eta
    return hits / len(paths.x1)


class TestModulus:
    @pytest.mark.parametrize("d", [2, 3])
    def test_batch_matches_a_loop_over_paths(self, d):
        params = ModelParams(2.0, 1.5, d)
        cfg = SimConfig(params, P(0.2, *[0.0] * (d - 1)), 0.05, 30, seed=37)
        paths = simulate_batch(cfg, 50)
        cases = [(0.2, 0.5, 1.0), (0.25, 0.8, 1.0), (0.01, 0.1, 1.0), (0.05, 0.3, 0.5),
                 (1.0, 1.2, 0.25), (5.0, 1.0, 1.0), (0.1, 1e9, 1.0)]
        freqs = []
        for delta, eta, time_scale in cases:
            freq = modulus_statistics(paths, delta, eta, time_scale=time_scale)
            assert freq == modulus_by_path(paths, delta, eta, time_scale)
            freqs.append(freq)
        assert 0.0 in freqs and any(0.0 < f < 1.0 for f in freqs)

    def test_eta_limits(self):
        cfg = SimConfig(PARAMS, P(0.5, 0.0), 0.05, 40, seed=17)
        paths = simulate_batch(cfg, 40)
        assert modulus_statistics(paths, 0.2, 1e-9) == 1.0
        assert modulus_statistics(paths, 0.2, 1e9) == 0.0

    def test_monotone_in_eta(self):
        cfg = SimConfig(PARAMS, P(0.5, 0.0), 0.05, 40, seed=19)
        paths = simulate_batch(cfg, 60)
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
            cfg = SimConfig(params, P(1.0, 0.0), eps * 0.05, 20, seed=23)
            paths = simulate_batch(cfg, 400)
            freq = modulus_statistics(paths, delta, eta, time_scale=eps)
            if freq > 0:
                points.append((1.0 / (delta * eps), math.log(freq)))
        assert len(points) >= 2
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope < 0


class TestLongRun:
    def test_occupation_fraction_trend(self):
        # With theta = 1 the boundary-time to window-time ratio drifts toward
        # the stationary proportion (1/2) / (M + 1/2) on the window [0, M].
        params = ModelParams(1.0, 1.0, 2)
        m_win = 1.0
        target = 0.5 / (m_win + 0.5)
        errs = []
        for horizon in (6.0, 60.0):
            cfg = SimConfig(params, P(0.2, 0.0), 0.08, int(horizon / 0.08), seed=29)
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
            euler_fracs.append(ep.occupation_time[0, -1] / horizon)
        frac_euler = float(np.mean(euler_fracs))
        assert 0.2 * frac_exact < frac_euler < 3.0 * frac_exact
