"""Acceptance suite: one test per criterion, one pass/fail line each.

Every tolerance is pinned here; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from stickybm.geometry import HalfSpacePoint, ModelParams, cost, cost_batch
from stickybm.geometry import _sticky_rate_core
from stickybm.kernel import kernel_total_mass, log_densities
from stickybm.ldp import (Ball, BoundaryPatch, discrete_waypoint_cost, phase_transition_scan,
                          sliced_ldp, static_ldp)
from stickybm.pathopt import minimize_path_action
from stickybm.quadrature import QuadratureSpec
from stickybm.simulate import SimConfig, simulate_batch
from stickybm.transport import (DiscreteMeasure, cost_matrix, gamma_limit_experiment,
                                kantorovich)

from oracles import (chapman_kolmogorov_residual, enumerate_assignment_value,
                     enumerate_transport_value, fokker_planck_residual,
                     golden_min_sticky_profile, horizontal_cdf, _graded_unit_grid, _h_density,
                     _phi)

SPEC = QuadratureSpec()


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_brute_force_never_undercuts_cost():
    t0 = time.time()
    rng = np.random.default_rng(101)
    gaps = []
    for i in range(50):
        a = float(rng.uniform(1.05, 8.0))
        params = ModelParams(a, 1.0)
        x = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        y = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        res = minimize_path_action(params, x, y, n_segments=64, restarts=20, seed=1000 + i)
        c = cost(params, x, y)
        assert res.value >= c * (1 - 1e-9), f"undercut at instance {i}: {res.value} < {c}"
        gaps.append((res.value - c) / max(c, 1e-12))
    elapsed = time.time() - t0
    best20 = sorted(gaps)[:20]
    worst_of_best = max(abs(g) for g in best20)
    ok = worst_of_best <= 2e-3 and elapsed <= 300
    report(1, ok, f"50 instances, no undercut; 20 best gaps <= {worst_of_best:.2e} "
                  f"(limit 2e-3); {elapsed:.0f}s (limit 300s)")


def test_criterion_02_sticky_rate_golden_section():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n = 10000
    a = rng.uniform(0.2, 8.0, n)
    s = rng.uniform(0.0, 3.0, n) + rng.uniform(0.0, 3.0, n)
    v = rng.uniform(0.0, 7.0, n)
    # force both branches to appear
    branch2 = (a > 1) & (np.sqrt(np.maximum(a - 1, 0)) * v > s)
    assert branch2.any() and (~branch2).any()
    ours = _sticky_rate_core(a, s, v)[0]
    ref = golden_min_sticky_profile(a, s, v)
    worst = float(np.max(np.abs(ours - ref)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed <= 10
    report(2, ok, f"1e4 inputs, max |closed form - golden section| = {worst:.2e} "
                  f"(limit 1e-10); {elapsed:.1f}s (limit 10s)")


def test_criterion_03_normalization_and_mu_symmetry():
    t0 = time.time()
    worst_mass = 0.0
    worst_sym = 0.0
    rng = np.random.default_rng(303)
    for a in (0.5, 1.0, 4.0):
        for th in (0.5, 1.0, 2.0):
            for tt in (0.25, 0.5, 1.0):
                for x1 in (0.0, 0.3, 1.0):
                    params = ModelParams(a, th)
                    mass = kernel_total_mass(params, tt, P(x1, 0.0))
                    worst_mass = max(worst_mass, abs(mass - 1.0))
                    xx = P(x1, float(rng.uniform(-1, 1)))
                    y1 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0, 1.5))
                    yy = P(y1, float(rng.uniform(-1, 1)))
                    v = abs(yy.xp[0] - xx.xp[0])
                    q1 = float(log_densities(params, SPEC, tt, xx.x1, yy.x1, v))
                    q2 = float(log_densities(params, SPEC, tt, yy.x1, xx.x1, v))
                    worst_sym = max(worst_sym, abs(q1 - q2) / max(abs(q1), 1.0))
    elapsed = time.time() - t0
    ok = worst_mass <= 1e-7 and worst_sym <= 1e-8 and elapsed <= 120
    report(3, ok, f"3x3x3x3 grid: |mass-1| <= {worst_mass:.2e} (limit 1e-7), "
                  f"mu-symmetry <= {worst_sym:.2e} rel (limit 1e-8); {elapsed:.0f}s (limit 120s)")


def test_criterion_04_chapman_kolmogorov():
    params = ModelParams(2.0, 1.0)
    x = y = P(0.0, 0.0)
    coarse = chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, x, y, n1=200, np_=100)
    fine = chapman_kolmogorov_residual(params, SPEC, 0.5, 0.5, x, y, n1=400, np_=200)
    order = math.log2(coarse.residual / fine.residual)
    ok = fine.residual <= 1e-4 and order >= 1.0
    report(4, ok, f"residual {fine.residual:.2e} at 400x200 (limit 1e-4), "
                  f"refinement order {order:.2f} (limit >= 1)")


def test_criterion_05_fokker_planck_orders():
    lines = []
    ok = True
    for a in (0.5, 1.0, 2.0):
        params = ModelParams(a, 1.0)
        r_coarse = fokker_planck_residual(params, SPEC, 0.5, P(0.3, 0.0), 0.04)
        r_fine = fokker_planck_residual(params, SPEC, 0.5, P(0.3, 0.0), 0.02)
        orders = [math.log2(c / f) for c, f in zip(r_coarse, r_fine)]
        lines.append(f"a={a}: orders {', '.join(f'{o:.2f}' for o in orders)}")
        ok = ok and all(1.5 <= o <= 2.6 for o in orders)
    # trace relation at the stated step
    _, _, trace = fokker_planck_residual(ModelParams(1.0, 1.0), SPEC, 0.5, P(0.3, 0.0), 1e-3)
    ok = ok and trace <= 1e-6
    report(5, ok, "; ".join(lines) + f"; trace residual {trace:.1e} at h=1e-3 (limit 1e-6)")


def test_criterion_06_simulator_exactness():
    t0 = time.time()
    params = ModelParams(2.0, 1.5, 2)
    x1_0, dt = 0.25, 0.25
    n = 100000
    cfg = SimConfig(params, P(x1_0, 0.0), dt, 1, seed=606)
    batch = simulate_batch(cfg, n)
    z = batch.x1[:, -1]
    xp = batch.xp[:, -1, 0]
    mass_boundary = horizontal_cdf(params, x1_0, dt, 0.0)
    mass_no_visit = math.erf(x1_0 / math.sqrt(2.0 * dt))

    # boundary-atom frequency within 3 binomial standard errors
    freq = float(np.mean(z == 0.0))
    se = math.sqrt(mass_boundary * (1 - mass_boundary) / n)
    ok_atom = abs(freq - mass_boundary) <= 3 * se

    # horizontal interior KS against the quadrature marginal
    interior = np.sort(z[z > 0])
    zg = np.linspace(0.0, float(interior[-1]) * 1.0001, 4001)
    cdf_grid = horizontal_cdf(params, x1_0, dt, zg)
    cond = (np.interp(interior, zg, cdf_grid) - mass_boundary) / (1 - mass_boundary)
    k = interior.size
    ks_h = max(np.max(np.abs(np.arange(1, k + 1) / k - cond)),
               np.max(np.abs(np.arange(0, k) / k - cond)))
    crit = 1.628 / math.sqrt(k)

    # tangential KS against the occupation-mixture law
    from scipy.special import ndtr
    l_grid = params.theta * dt * _graded_unit_grid(2048)
    th = params.theta
    sorted_xp = np.sort(xp)
    subsample = sorted_xp[:: max(1, sorted_xp.size // 20000)]

    def mixture_cdf(w):
        out = mass_no_visit * ndtr(w / math.sqrt(dt))
        x4, w4 = np.polynomial.legendre.leggauss(4)
        x4 = 0.5 * (x4 + 1.0)
        w4 = 0.5 * w4
        lo = l_grid[:-1, None]
        width = np.diff(l_grid)[:, None]
        ln = (lo + width * x4[None, :]).ravel()
        wn = (width * w4[None, :]).ravel()
        dens = _h_density(dt - ln / th, ln + x1_0) / th + 2.0 * _phi(dt - ln / th, ln + x1_0)
        sigma = np.sqrt(dt + params.big_a * ln / th)
        return out + np.sum((dens * wn)[None, :] * ndtr(w[:, None] / sigma[None, :]), axis=1)

    # The mixture CDF on a 4001-node grid, interpolated at the draws (as for
    # the horizontal KS): a dense draws-by-nodes ndtr matrix costs seconds.
    wg = np.linspace(float(subsample[0]), float(subsample[-1]), 4001)
    cdf_v = np.interp(subsample, wg, mixture_cdf(wg))
    kv = subsample.size
    ks_v = max(np.max(np.abs(np.arange(1, kv + 1) / kv - cdf_v)),
               np.max(np.abs(np.arange(0, kv) / kv - cdf_v)))
    crit_v = 1.628 / math.sqrt(kv)

    # exact clock identity on a multi-step run
    path_cfg = SimConfig(params, P(x1_0, 0.0), 0.1, 50, seed=607)
    multi = simulate_batch(path_cfg, 200)
    ok_clock = bool(np.all(multi.local_time == params.theta * multi.occupation_time))

    elapsed = time.time() - t0
    ok = ok_atom and ks_h < crit and ks_v < crit_v and ok_clock and elapsed <= 180
    report(6, ok, f"horizontal KS {ks_h:.4f} (crit {crit:.4f}), tangential KS {ks_v:.4f} "
                  f"(crit {crit_v:.4f}), atom freq |{freq:.4f}-{mass_boundary:.4f}| <= 3se, "
                  f"L = theta*O exact: {ok_clock}; {elapsed:.0f}s (limit 180s)")


def test_criterion_07_static_ldp_slopes():
    t0 = time.time()
    eps = (0.2, 0.1, 0.05, 0.025)
    patch = BoundaryPatch((2.0,), 0.1)
    lines = []
    ok = True
    for a, expected_ref in ((4.0, 0.45125), (0.5, 1.805)):
        est = static_ldp(ModelParams(a, 1.0), P(0.0, 0.0), patch, eps)
        rel = abs(est.extrapolated_rate - est.reference_rate) / est.reference_rate
        ok = ok and est.reference_rate == pytest.approx(expected_ref, rel=1e-6) and rel <= 0.10
        lines.append(f"a={a}: rate {est.extrapolated_rate:.4f} vs {est.reference_rate:.5f} "
                     f"({rel:.1%})")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300
    report(7, ok, "; ".join(lines) + f"; {elapsed:.0f}s (limit 300s, tolerance 10%)")


def test_criterion_08_phase_transition_kink():
    x, y = P(1.0, 0.0), P(1.0, 5.0)
    a_grid = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0)
    res = phase_transition_scan(a_grid, 1.0, x, y, (0.2, 0.1, 0.05, 0.025))
    flat_rates = [r.extrapolated_rate for r in res.rows if r.a <= 1.0]
    flat_ok = max(abs(r - res.flat_level) for r in flat_rates) <= 0.03 * res.flat_level
    past = [r.extrapolated_rate for r in res.rows if r.a > res.crossing_root + 0.05]
    decreasing = all(v2 < v1 for v1, v2 in zip(past, past[1:]))
    kink_ok = abs(res.empirical_kink - res.crossing_root) <= 0.2
    ok = flat_ok and decreasing and kink_ok
    report(8, ok, f"flat within 3% on a<=1: {flat_ok}; strictly decreasing past "
                  f"a*={res.crossing_root:.4f}: {decreasing}; kink {res.empirical_kink:.3f} "
                  f"within 0.2 of root")


def test_criterion_09_path_slicing():
    params = ModelParams(4.0, 1.0)
    x = P(0.0, 0.0)
    # additivity along the boundary geodesic, exact
    pts = [(0.5, P(0.0, 1.0)), (1.0, P(0.0, 2.0))]
    add_err = abs(discrete_waypoint_cost(params, x, pts) - cost(params, x, P(0.0, 2.0)))
    # Monte Carlo slope against the set infimum
    sets = [(0.5, Ball(P(0.0, 1.0), 0.8)), (1.0, Ball(P(0.0, 2.0), 0.8))]
    est = sliced_ldp(params, x, sets, (0.2, 0.1, 0.05), n_paths=100000, seed=0)
    rel = abs(est.extrapolated_rate - est.reference_rate) / est.reference_rate
    ok = add_err <= 1e-12 and rel <= 0.20
    report(9, ok, f"geodesic additivity error {add_err:.1e} (limit 1e-12); MC slope "
                  f"{est.extrapolated_rate:.4f} vs reference {est.reference_rate:.4f} "
                  f"({rel:.1%}, limit 20%)")


def test_criterion_10_gamma_trend_and_exact_solver():
    params = ModelParams(4.0, 1.0)
    src = DiscreteMeasure(tuple(P(0.0, 0.25 * i) for i in range(8)), (0.125,) * 8)
    tgt = DiscreteMeasure(tuple(P(0.0, 1.0 + 0.25 * i) for i in range(8)), (0.125,) * 8)
    res = gamma_limit_experiment(params, src, tgt, (0.04, 0.02, 0.01))
    factor = res.rows[0].gap / res.rows[-1].gap

    # exact solver vs brute-force enumeration on <= 5x5 instances
    rng = np.random.default_rng(1010)
    worst = 0.0
    for n in (2, 3, 4, 5):
        atoms0 = tuple(P(0.0 if rng.random() < 0.4 else float(rng.uniform(0, 2)),
                         float(rng.uniform(-3, 3))) for _ in range(n))
        atoms1 = tuple(P(0.0 if rng.random() < 0.4 else float(rng.uniform(0, 2)),
                         float(rng.uniform(-3, 3))) for _ in range(n))
        mu0 = DiscreteMeasure(atoms0, (1.0 / n,) * n)
        mu1 = DiscreteMeasure(atoms1, (1.0 / n,) * n)
        bf = enumerate_assignment_value(cost_matrix(params, mu0, mu1))
        worst = max(worst, abs(kantorovich(params, mu0, mu1).cost_value - bf))
    for (n, m, units) in ((2, 3, 6), (3, 4, 8), (4, 4, 8), (5, 5, 8), (5, 4, 9)):
        supplies = rng.multinomial(units - n, np.ones(n) / n) + 1
        demands = rng.multinomial(units - m, np.ones(m) / m) + 1
        atoms0 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(n))
        atoms1 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(m))
        mu0 = DiscreteMeasure(atoms0, tuple(supplies / units))
        mu1 = DiscreteMeasure(atoms1, tuple(demands / units))
        bf = enumerate_transport_value(cost_matrix(params, mu0, mu1), supplies, demands)
        worst = max(worst, abs(kantorovich(params, mu0, mu1).cost_value - bf))
    ok = factor >= 2.0 and res.gaps_shrink and worst <= 1e-12
    report(10, ok, f"gap(0.04)/gap(0.01) = {factor:.2f} (limit >= 2); solver vs "
                   f"enumeration worst |diff| = {worst:.1e} (limit 1e-12)")


def test_criterion_11_metric_axioms():
    rng = np.random.default_rng(1111)
    n = 10000
    a = rng.uniform(0.2, 8.0, n)
    x1 = rng.uniform(0, 3, n)
    y1 = rng.uniform(0, 3, n)
    z1 = rng.uniform(0, 3, n)
    for arr in (x1, y1, z1):
        arr[rng.random(n) < 0.2] = 0.0
    xp = rng.uniform(-4, 4, (n, 1))
    yp = rng.uniform(-4, 4, (n, 1))
    zp = rng.uniform(-4, 4, (n, 1))
    dxy = np.sqrt(2 * cost_batch(a, x1, xp, y1, yp))
    dyz = np.sqrt(2 * cost_batch(a, y1, yp, z1, zp))
    dxz = np.sqrt(2 * cost_batch(a, x1, xp, z1, zp))
    violation = float(np.max(dxz - (dxy + dyz)))
    identity = float(np.max(cost_batch(a, x1, xp, x1, xp)))
    symmetric = float(np.max(np.abs(cost_batch(a, x1, xp, y1, yp)
                                    - cost_batch(a, y1, yp, x1, xp))))
    ok = violation <= 1e-12 and identity == 0.0 and symmetric <= 1e-14
    report(11, ok, f"1e4 triples: worst triangle violation {violation:.2e} (limit 1e-12), "
                   f"identity {identity:.1e}, symmetry {symmetric:.1e}")
