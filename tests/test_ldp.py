import csv
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import stickybm.ldp
import stickybm.simulate
from stickybm.cli import main
from stickybm.geometry import (
    HalfSpacePoint,
    ModelParams,
    cost,
    cost_batch,
    euclidean_rate,
    sticky_rate,
)
from stickybm.ldp import (
    Ball,
    BoundaryPatch,
    LdpEstimate,
    cone_crossing_value,
    discrete_waypoint_cost,
    fit_rate,
    log_target_probability,
    min_cost_over_target,
    min_sliced_cost,
    phase_transition_scan,
    sliced_ldp,
    static_ldp,
    wilson_interval,
    _branch_cost,
    _target_constraints,
)
from stickybm.kernel import log_densities
from stickybm.quadrature import QuadratureSpec, gauss_legendre, logsumexp

SPEC = QuadratureSpec()


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


class TestPlumbing:
    def test_wilson(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 > 0.0

    def test_fit_recovers_exact_model(self):
        eps = np.array([0.2, 0.1, 0.05, 0.025])
        lam, beta, gamma = 0.7, 1.3, -0.4
        y = -lam + beta * eps * np.log(1 / eps) + gamma * eps
        got = fit_rate(eps, y)
        assert got[0] == pytest.approx(lam, abs=1e-12)
        assert got[1] == pytest.approx(beta, abs=1e-12)

    def test_experiment_validation(self):
        params = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            static_ldp(params, P(0.0, 0.0), Ball(P(1.0, 0.0), 0.1), (0.1, 0.2), SPEC)
        for few in ((0.2, 0.1), (0.2, 0.2, 0.1)):
            with pytest.raises(ValueError, match="three distinct"):
                static_ldp(params, P(0.0, 0.0), Ball(P(1.0, 0.0), 0.1), few, SPEC)
        for bad in ((math.nan, 0.1, 0.05), (math.inf, 0.1, 0.05), (0.2, 0.1, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                static_ldp(params, P(0.0, 0.0), Ball(P(1.0, 0.0), 0.1), bad, SPEC)
        with pytest.raises(ValueError):
            Ball(P(1.0, 0.0), 0.0)

    def test_estimator_keeps_monte_carlo_frequencies_exact(self):
        # Zero hits are dropped; the rest stay exactly k / n, with Wilson bounds.
        est = stickybm.ldp._estimate((0.2, 0.1, 0.05, 0.025), lambda: 1.0,
                                     hits=[900, 300, 30, 0], n_paths=3000)
        assert est.probs == (0.3, 0.1, 0.01) and est.dropped_epsilons == (0.025,)
        assert est.wilson_bounds == tuple(wilson_interval(k, 3000) for k in (900, 300, 30))
        assert est.log_probs == tuple(e * math.log(p) for e, p in zip(est.epsilons, est.probs))

    def test_set_membership(self):
        ball = Ball(P(0.05, 0.0), 0.1)
        assert ball.contains(0.0, np.array([0.0]))
        assert not ball.contains(0.2, np.array([0.0]))
        patch = BoundaryPatch((1.0,), 0.25)
        assert patch.contains(0.0, np.array([1.2]))
        assert not patch.contains(1e-12, np.array([1.0]))   # boundary is exact
        assert not patch.contains(0.0, np.array([1.3]))


class TestReferenceRates:
    def test_patch_minimizer(self):
        params = ModelParams(4.0, 1.0)
        ref = min_cost_over_target(params, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1))
        assert ref == pytest.approx((1.9 ** 2) / 8.0, rel=1e-9)

    def test_euclidean_patch_minimizer(self):
        params = ModelParams(0.5, 1.0)
        ref = min_cost_over_target(params, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1))
        assert ref == pytest.approx(0.5 * 1.9 ** 2, rel=1e-9)

    def test_ball_minimizer_interior(self):
        params = ModelParams(0.5, 1.0)
        ref = min_cost_over_target(params, P(1.0, 0.0), Ball(P(1.0, 3.0), 0.5))
        assert ref == pytest.approx(0.5 * 2.5 ** 2, rel=1e-6)

    def test_zero_rate_inside(self):
        params = ModelParams(2.0, 1.0)
        assert min_cost_over_target(params, P(1.0, 0.0), Ball(P(1.0, 0.0), 0.2)) == 0.0

    def test_ball_minimizer_sticky_regime(self):
        params = ModelParams(2.0, 1.0)
        x = P(1.0, 0.0)
        ball = Ball(P(1.0, 5.0), 0.1)
        ref = min_cost_over_target(params, x, ball)
        # grid oracle over the ball
        best = math.inf
        for r in np.linspace(0, 0.1, 40):
            for phi in np.linspace(0, 2 * math.pi, 160):
                y = P(max(1.0 + r * math.cos(phi), 0.0), 5.0 + r * math.sin(phi))
                best = min(best, cost(params, x, y))
        assert ref <= best + 1e-9
        assert ref == pytest.approx(best, abs=2e-4)


def target_samples(rng, target, n):
    """n random points of a Ball or BoundaryPatch (d = 2): inside it, on its
    arc and on its trace on y1 = 0, where the infima sit."""
    if isinstance(target, BoundaryPatch):
        return np.zeros(n), target.center_tangential[0] + target.radius * rng.uniform(-1, 1, n)
    c1, cp, r = target.center.x1, target.center.xp[0], target.radius
    rad = r * np.concatenate([np.sqrt(rng.random(2 * n)), np.ones(2 * n)])
    ang = rng.uniform(0.0, 2.0 * math.pi, 4 * n)
    half = math.sqrt(max(r * r - c1 * c1, 0.0))
    y1 = np.concatenate([c1 + rad * np.cos(ang), np.zeros(n)])
    yp = np.concatenate([cp + rad * np.sin(ang), cp + half * rng.uniform(-1, 1, n)])
    keep = np.flatnonzero((y1 >= 0.0) & ((y1 > 0.0) | (half > 0.0)))
    pick = rng.choice(keep, size=n, replace=False)
    return y1[pick], yp[pick]


class TestExactReferenceRates:
    """Reference rates are exact minima: closed forms to 1e-12, never undercut."""

    def test_patch_closed_form(self):
        # Boundary route to the patch's near edge y' = 1.9: 1.9^2 / (2a).
        ref = min_cost_over_target(ModelParams(4.0, 1.0), P(0.0, 0.0), BoundaryPatch((2.0,), 0.1))
        assert ref == pytest.approx(0.45125, rel=1e-12)

    @pytest.mark.parametrize("a", [2.0, 2.25, 2.5, 2.75, 3.0])
    def test_ball_outside_cone_closed_form(self, a):
        # Outside the cone the cost is (sqrt(a-1)(x1+y1) + |y'-x'|)^2 / (2a): the
        # square of a linear function of y, least at the ball point furthest
        # along -(sqrt(a-1), 1), which moves it by r sqrt(a).
        x, c, r = P(1.0, 0.0), P(1.0, 5.0), 0.1
        expected = (math.sqrt(a - 1.0) * (x.x1 + c.x1) + abs(c.xp[0] - x.xp[0])
                    - r * math.sqrt(a)) ** 2 / (2.0 * a)
        ref = min_cost_over_target(ModelParams(a, 1.0), x, Ball(c, r))
        assert ref == pytest.approx(expected, rel=1e-12)

    def test_sliced_closed_form(self):
        # Boundary route: tangential travel 1.2 in unit time, split evenly
        # between the two slices, costs 1.2^2 / (2a).
        sets = [(0.5, Ball(P(0.0, 1.0), 0.8)), (1.0, Ball(P(0.0, 2.0), 0.8))]
        ref = min_sliced_cost(ModelParams(4.0, 1.0), P(0.0, 0.0), sets)
        assert ref == pytest.approx(1.2 ** 2 / 8.0, rel=1e-12)

    def test_failed_program_raises_with_its_message(self, monkeypatch):
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "minimize", lambda *args, **kwargs: SimpleNamespace(
            success=False, message="Iteration limit reached"))
        with pytest.raises(RuntimeError, match=r"failed on \[Ball\(.*Iteration limit reached"):
            min_cost_over_target(ModelParams(4.0, 1.0), P(0.0, 0.0), Ball(P(0.0, 1.0), 0.1))

    def test_no_target_point_undercuts_the_rate(self):
        rng = np.random.default_rng(11)
        for i in range(30):
            a = float(rng.choice([0.3, 0.7, 1.3, 2.5, 4.0, 7.0]))
            x = P(0.0 if i % 3 == 0 else float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2, 2)))
            if i % 3 == 1:
                target = BoundaryPatch((float(rng.uniform(-4, 4)),), float(rng.uniform(0.05, 1.0)))
            else:   # centres below the radius cross y1 = 0
                target = Ball(P(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-4, 4))),
                              float(rng.uniform(0.1, 1.2)))
            rate = min_cost_over_target(ModelParams(a, 1.0), x, target)
            y1, yp = target_samples(rng, target, 10_000)
            costs = cost_batch(a, x.x1, np.array(x.xp), y1, yp[:, None])
            assert costs.min() >= rate - 1e-12, (a, x, target)
            assert costs.min() <= rate + 1e-3 * max(rate, 1.0), (a, x, target)


def central_differences(f, v, h=1e-6):
    """Central-difference Jacobian of the vector (or scalar) function f at v."""
    cols = []
    for i in range(v.size):
        e = np.zeros(v.size)
        e[i] = h
        cols.append((np.asarray(f(v + e)) - np.asarray(f(v - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


class TestExactGradients:
    """The reference programs' derivatives match central differences (step
    1e-6) to 1e-6 of the largest entry."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_branch_gradient_matches_central_differences(self, k):
        rng = np.random.default_rng(40 + k)
        sides = set()
        for i in range(60):
            a = float(rng.choice([0.5, 2.0, 4.0, 7.0]))
            params = ModelParams(a, 1.0)
            x = P(0.0 if i % 2 else float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2, 2)))
            # Patch waypoints sit on y1 = 0, ball waypoints anywhere in y1 >= 0.
            on_b = rng.random(k) < 0.5
            y = np.column_stack([np.where(on_b, 0.0, rng.uniform(0.0, 2.0, k)),
                                 rng.uniform(-4.0, 4.0, k)])
            dts = np.diff(np.r_[0.0, np.sort(rng.uniform(0.1, 1.0, k))])
            chain = np.vstack([x.coords(), y])
            s = chain[1:, 0] + chain[:-1, 0]
            v_t = np.abs(np.diff(chain[:, 1]))
            cone = math.sqrt(max(a - 1.0, 0.0)) * v_t - s
            if np.any(v_t < 1e-3) or (a > 1.0 and np.any(np.abs(cone) < 1e-3)):
                continue    # |D| and the cone are kinks of the rate, not of its branches
            points = [HalfSpacePoint(*row[:1], row[1:]) for row in chain]
            for sticky in itertools.product((False, True), repeat=k):
                value, grad = _branch_cost(params, x, dts, np.array(sticky), y.ravel())
                expected = sum((sticky_rate(params, p, q) if st else euclidean_rate(p, q)) / dt
                               for st, p, q, dt in zip(sticky, points, points[1:], dts))
                assert value == pytest.approx(expected, rel=1e-14)
                fd = central_differences(
                    lambda w: _branch_cost(params, x, dts, np.array(sticky), w)[0], y.ravel())
                np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
                sides.update((bool(o), a > 1.0 and c > 0.0)
                             for o, st, c in zip(on_b, sticky, cone) if st)
        # Sticky segments on both sides of the cone, ending on and off y1 = 0.
        assert sides == {(False, False), (False, True), (True, False), (True, True)}

    @pytest.mark.parametrize("k", [1, 2])
    def test_constraint_jacobians_match_central_differences(self, k):
        rng = np.random.default_rng(50 + k)
        for _ in range(20):
            patch = list(rng.random(k) < 0.5)
            centres = np.column_stack([np.where(patch, 0.0, rng.uniform(0.0, 2.0, k)),
                                       rng.uniform(-4.0, 4.0, k)])
            radii = rng.uniform(0.1, 1.2, k)
            v = (centres + rng.uniform(-1.0, 1.0, (k, 2))).ravel()
            constraints = _target_constraints(centres, radii, patch)
            assert len(constraints) == 1 + any(patch)
            for con in constraints:
                fd = central_differences(con["fun"], v)
                np.testing.assert_allclose(con["jac"](v), fd, rtol=1e-6,
                                           atol=1e-6 * np.abs(fd).max())


class TestStaticLdp:
    def test_sticky_fixture_within_ten_percent(self):
        params = ModelParams(4.0, 1.0)
        est = static_ldp(params, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1),
                         (0.2, 0.1, 0.05, 0.025), SPEC)
        assert est.reference_rate == pytest.approx(0.45125, rel=1e-6)
        assert abs(est.extrapolated_rate - est.reference_rate) <= 0.1 * est.reference_rate

    def test_euclidean_fixture_within_ten_percent(self):
        params = ModelParams(0.5, 1.0)
        est = static_ldp(params, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1),
                         (0.2, 0.1, 0.05, 0.025), SPEC)
        assert est.reference_rate == pytest.approx(1.805, rel=1e-6)
        assert abs(est.extrapolated_rate - est.reference_rate) <= 0.1 * est.reference_rate

    def test_zero_rate_neighborhood(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.5, 0.0)
        est = static_ldp(params, x, Ball(x, 0.2), (0.1, 0.05, 0.025), SPEC)
        assert est.reference_rate == 0.0
        assert abs(est.extrapolated_rate) <= 0.02

    def test_monte_carlo_brackets_quadrature(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        target = BoundaryPatch((0.8,), 0.15)
        eps = (0.2, 0.1, 0.05)
        quad = static_ldp(params, x, target, eps, SPEC)
        mc = sliced_ldp(params, x, [(1.0, target)], eps, n_paths=40000, seed=5)
        for q, (lo, hi) in zip(quad.probs, mc.wilson_bounds):
            assert lo <= q <= hi

    def test_beta_is_bounded(self):
        params = ModelParams(4.0, 1.0)
        est = static_ldp(params, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1),
                         (0.2, 0.1, 0.05, 0.025), SPEC)
        assert abs(est.beta) < 5.0


def two_batch_log_probability(params, t, x, target, order=32):
    """The target mass as two kernel batches: the chords across a ball through
    the interior density, and the boundary trace through the boundary density."""
    nodes, w = gauss_legendre(order)
    parts = []
    if isinstance(target, Ball):
        c1, cp, r = target.center.x1, target.center.xp[0], target.radius
        lo, hi = max(0.0, c1 - r), c1 + r
        y1s = lo + (hi - lo) * nodes
        half = np.sqrt(r * r - (y1s - c1) ** 2)
        yps = (cp - half)[:, None] + (2.0 * half)[:, None] * nodes
        vals = log_densities(params, SPEC, t, x.x1, y1s[:, None], np.abs(yps - x.xp[0])).interior
        parts.append(logsumexp(vals + np.log(np.outer(w * (hi - lo) * 2.0 * half, w))))
        c, h = cp, math.sqrt(max(r * r - c1 * c1, 0.0))
    else:
        c, h = target.center_tangential[0], target.radius
    if h > 0.0:
        yps = c - h + 2.0 * h * nodes
        vals = log_densities(params, SPEC, t, x.x1, 0.0, np.abs(yps - x.xp[0])).boundary
        parts.append(logsumexp(vals + np.log(w * 2.0 * h)))
    return logsumexp(parts)


# (x, target): a patch, a ball inside, a ball cut by the boundary, a tangent ball.
TARGETS = [
    (P(0.0, 0.0), BoundaryPatch((2.0,), 0.1)),
    (P(1.0, 0.0), Ball(P(1.0, 5.0), 0.1)),
    (P(0.0, 0.0), Ball(P(0.1, 2.0), 0.3)),
    (P(2.0, 3.0), Ball(P(0.5, 3.0), 0.5)),
]


class TestTargetQuadrature:
    @pytest.mark.parametrize("a", [4.0, 0.5])
    @pytest.mark.parametrize("x, target", TARGETS, ids=["patch", "inside", "cut", "tangent"])
    def test_one_kernel_batch_matches_the_two_batch_form(self, monkeypatch, a, x, target):
        # Boundary nodes carry the interior density, the mu-density, at weight
        # 1/(2 theta): the same mass as the boundary density at weight 1.
        params = ModelParams(a, 0.7)
        calls = []

        def counted(*args):
            calls.append(args)
            return log_densities(*args)

        monkeypatch.setattr(stickybm.ldp, "log_densities", counted)
        for eps in (0.2, 0.05):
            calls.clear()
            value = log_target_probability(params, SPEC, eps, x, target)
            assert len(calls) == 1
            assert value == pytest.approx(two_batch_log_probability(params, eps, x, target),
                                          abs=1e-13)

    @pytest.mark.parametrize("a, x, target, tol", [
        (4.0, P(0.0, 0.0), BoundaryPatch((2.0,), 0.1), 1e-12),   # criterion 7
        (2.0, P(1.0, 0.0), Ball(P(1.0, 5.0), 0.1), 1e-4),        # criterion 8
        (0.5, P(0.0, 0.0), Ball(P(0.1, 2.0), 0.3), 1e-4),        # cut by the boundary
    ], ids=["patch", "ball", "cut-ball"])
    @pytest.mark.parametrize("eps", [0.2, 0.025])
    def test_default_order_against_three_times_that_order(self, a, x, target, tol, eps):
        # A ball's chord rule converges only algebraically (the chord length
        # has a square-root endpoint); a patch is a smooth boundary integral.
        params = ModelParams(a, 1.0)
        coarse = log_target_probability(params, SPEC, eps, x, target)
        fine = log_target_probability(params, SPEC, eps, x, target, order=96)
        assert abs(coarse - fine) <= tol


class TestPhaseTransition:
    def test_crossing_root_closed_form(self):
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        root = cone_crossing_value(x, y)
        assert root == pytest.approx((29.0 / 21.0) ** 2, rel=1e-10)
        # the threshold equality holds at the root
        from stickybm.geometry import cone_threshold
        thr = cone_threshold(ModelParams(root, 1.0), x, y)
        assert thr == pytest.approx(5.0, rel=1e-9)

    def test_crossing_root_sweep(self):
        # 200 seeded pairs, a quarter with x on the boundary and a quarter with
        # y there: at the closed-form root the cone threshold is |y' - x'|.
        from stickybm.geometry import cone_threshold
        rng = np.random.default_rng(17)
        for k in range(200):
            x1 = 0.0 if k % 4 == 0 else float(rng.uniform(0.05, 2.0))
            y1 = 0.0 if k % 4 == 1 else float(rng.uniform(0.05, 2.0))
            xp = float(rng.uniform(-3.0, 3.0))
            x = P(x1, xp)
            y = P(y1, xp + 2.0 * math.sqrt(x1 * y1) + float(rng.uniform(0.05, 5.0)))
            root = cone_crossing_value(x, y)
            v = abs(y.xp[0] - x.xp[0])
            assert cone_threshold(ModelParams(root, 1.0), x, y) == pytest.approx(v, rel=1e-12)

    def test_crossing_between_boundary_points_is_one(self):
        # x1 = y1 = 0: the cone threshold is 0 for every a > 1, also for a
        # tangential gap whose square underflows.
        assert cone_crossing_value(P(0.0, 0.0), P(0.0, 5.0)) == 1.0
        assert cone_crossing_value(P(0.0, 0.0), P(0.0, 1e-200)) == 1.0

    def test_crossing_rejects_pairs_without_one(self):
        with pytest.raises(ValueError, match="v = 0"):
            cone_crossing_value(P(1.0, 2.0), P(1.0, 2.0))
        # The threshold falls to 2 sqrt(x1 y1) = 2 as a grows, never below |y'-x'| = 1.
        with pytest.raises(ValueError, match="inside the cone"):
            cone_crossing_value(P(1.0, 0.0), P(1.0, 1.0))

    def test_scan_row_drops_a_zero_probability(self, monkeypatch):
        # A vanishing probability at the smallest epsilon is dropped from the
        # row's fit, never fitted as -inf into a nan rate.
        true_lp = log_target_probability
        x, y, eps = P(1.0, 0.0), P(1.0, 5.0), (0.2, 0.1, 0.05, 0.025)

        def lp(params, spec, t, *args, **kwargs):
            return -math.inf if t == 0.025 else true_lp(params, spec, t, *args, **kwargs)

        monkeypatch.setattr(stickybm.ldp, "log_target_probability", lp)
        res = phase_transition_scan((0.5,), 1.0, x, y, eps, SPEC)
        full = phase_transition_scan((0.5,), 1.0, x, y, eps[:3], SPEC)
        assert res.rows == full.rows and math.isfinite(res.rows[0].extrapolated_rate)
        with pytest.raises(RuntimeError, match="too few usable epsilons"):
            phase_transition_scan((0.5,), 1.0, x, y, (0.2, 0.1, 0.025), SPEC)

    def test_scan_takes_its_a_values_in_any_order(self):
        x, y, eps = P(1.0, 0.0), P(1.0, 5.0), (0.2, 0.1, 0.05)
        up = phase_transition_scan((0.5, 2.5, 3.0), 1.0, x, y, eps, SPEC)
        down = phase_transition_scan((3.0, 2.5, 0.5), 1.0, x, y, eps, SPEC)
        assert [r.a for r in up.rows] == [0.5, 2.5, 3.0] and math.isfinite(up.empirical_kink)
        assert down == up

    def test_scan_kink_lies_in_its_bracket(self):
        # Between boundary points the rate drops past a = 1: the line through
        # the dropped rows meets the flat level far left of a = 0.5.
        res = phase_transition_scan((0.5, 2.0, 4.0), 1.0, P(0.0, 0.0), P(0.0, 1.0),
                                    (0.2, 0.1, 0.05), SPEC)
        assert [r.a for r in res.rows if r.extrapolated_rate < 0.98 * res.flat_level] == [2.0, 4.0]
        assert 0.5 <= res.empirical_kink <= 2.0 and res.crossing_root == 1.0

    def test_rate_nonincreasing_in_a(self):
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        vals = [cost(ModelParams(a, 1.0), x, y) for a in np.linspace(0.25, 8.0, 40)]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_continuity_at_one(self):
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        c_below = cost(ModelParams(1.0 - 1e-9, 1.0), x, y)
        c_above = cost(ModelParams(1.0 + 1e-9, 1.0), x, y)
        assert c_below == pytest.approx(c_above, rel=1e-6)
        assert c_below == pytest.approx(0.5 * 25.0, rel=1e-9)


class TestSliced:
    def test_single_waypoint_reduces_to_static(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        ball = Ball(P(0.0, 0.8), 0.15)
        ref_static = min_cost_over_target(params, x, ball)
        ref_sliced = min_sliced_cost(params, x, [(1.0, ball)])
        assert ref_sliced == pytest.approx(ref_static, rel=1e-6)
        # the Monte Carlo event is the one-step marginal event whose kernel
        # mass the quadrature static experiment integrates
        eps = (0.2, 0.1, 0.05)
        n = 30000
        sl = sliced_ldp(params, x, [(1.0, ball)], eps, n_paths=n, seed=9)
        st = static_ldp(params, x, ball, eps, SPEC)
        assert sl.reference_rate == pytest.approx(st.reference_rate, rel=1e-6)
        for p_sl, p_st in zip(sl.probs, st.probs):
            assert abs(p_sl - p_st) <= 4 * math.sqrt(p_st * (1 - p_st) / n)

    def test_single_waypoint_draws_the_static_streams(self, tmp_path, capsys):
        # One waypoint at t = 1 is one step of horizon eps on stream (seed,
        # eps index): what `ldp-static --method monte_carlo` reports.
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        ball = Ball(P(0.0, 0.8), 0.3)
        eps, n = (0.2, 0.1, 0.05), 20000
        sl = sliced_ldp(params, x, [(1.0, ball)], eps, n_paths=n, seed=4)
        assert isinstance(sl, LdpEstimate) and not sl.dropped_epsilons
        code = main(["ldp-static", "--a", "4", "--theta", "1", "--x", "0,0",
                     "--target", "ball:0,0.8:0.3", "--epsilons", "0.2,0.1,0.05",
                     "--method", "monte_carlo", "--n-paths", str(n), "--seed", "4",
                     "-o", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        st = json.loads((tmp_path / "ldp-static.json").read_text())
        rows = list(csv.reader((tmp_path / "ldp-static.csv").open(newline="")))[1:-1]
        assert tuple(st["epsilons"]) == sl.epsilons and st["dropped_epsilons"] == []
        assert tuple(st["eps_log_probs"]) == sl.log_probs
        assert tuple(float(r[1]) for r in rows) == sl.probs
        assert (st["extrapolated_rate"], st["beta"], st["gamma"], st["reference_rate"]) == (
            sl.extrapolated_rate, sl.beta, sl.gamma, sl.reference_rate)

    def test_zero_when_every_waypoint_set_holds_x(self):
        # Staying at x costs nothing, so the infimum is exactly 0, with no program solved.
        x = P(0.0, 0.5)
        sets = [(0.5, Ball(P(0.1, 0.6), 0.3)), (1.0, BoundaryPatch((0.4,), 0.2))]
        for a in (0.5, 4.0):
            assert min_sliced_cost(ModelParams(a, 1.0), x, sets) == 0.0
        # One set without x leaves a positive infimum.
        assert min_sliced_cost(ModelParams(4.0, 1.0), x,
                               [sets[0], (1.0, BoundaryPatch((1.0,), 0.2))]) > 0.0

    def test_path_blocks_count_the_same_hits(self, monkeypatch):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        balls = [Ball(P(0.0, 0.5), 0.4), Ball(P(0.0, 1.0), 0.5)]
        dts, eps, n = np.array([0.5, 0.5]), (0.2, 0.1), 3000
        whole = stickybm.ldp._hit_counts(params, x, dts, balls, eps, n, seed=5)
        monkeypatch.setattr(stickybm.simulate, "_BLOCK_UNIFORMS",
                            333 * 2 * 4)
        assert len(stickybm.ldp._path_blocks(n, 2, 2)) == 10
        assert stickybm.ldp._hit_counts(params, x, dts, balls, eps, n, seed=5) == whole
        assert 0 < min(whole) and max(whole) < n

    def test_additivity_along_geodesic(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        pts = [(0.5, P(0.0, 1.0)), (1.0, P(0.0, 2.0))]
        assert discrete_waypoint_cost(params, x, pts) == pytest.approx(
            cost(params, x, P(0.0, 2.0)), abs=1e-12)

    def test_off_geodesic_waypoints_increase(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        on = discrete_waypoint_cost(params, x, [(0.5, P(0.0, 1.0)), (1.0, P(0.0, 2.0))])
        off1 = discrete_waypoint_cost(params, x, [(0.5, P(0.0, 1.3)), (1.0, P(0.0, 2.0))])
        off2 = discrete_waypoint_cost(params, x, [(0.5, P(0.4, 1.0)), (1.0, P(0.0, 2.0))])
        assert off1 > on and off2 > on

    def test_waypoint_time_validation(self):
        params = ModelParams(4.0, 1.0)
        with pytest.raises(ValueError):
            discrete_waypoint_cost(params, P(0.0, 0.0), [(0.5, P(0.0, 1.0)), (0.5, P(0.0, 2.0))])
        with pytest.raises(ValueError):
            discrete_waypoint_cost(params, P(0.0, 0.0), [(0.5, P(0.0, 1.0)), (1.5, P(0.0, 2.0))])
        with pytest.raises(ValueError):
            min_sliced_cost(params, P(0.0, 0.0), [(0.0, Ball(P(0.0, 1.0), 0.1))])
        with pytest.raises(ValueError):
            sliced_ldp(params, P(0.0, 0.0), [(0.6, Ball(P(0.0, 1.0), 0.1)),
                                             (0.3, Ball(P(0.0, 2.0), 0.1))],
                       (0.2, 0.1, 0.05), n_paths=10, seed=0)

    def test_mc_slope_small(self):
        # Balls wide enough that the smallest epsilon still collects a few
        # hundred hits; the acceptance suite runs the full-size experiment.
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        sets = [(0.5, Ball(P(0.0, 1.0), 0.8)), (1.0, Ball(P(0.0, 2.0), 0.8))]
        est = sliced_ldp(params, x, sets, (0.2, 0.1, 0.05), n_paths=30000, seed=3)
        assert est.reference_rate > 0
        assert abs(est.extrapolated_rate - est.reference_rate) <= 0.3 * est.reference_rate

    def test_refinement_monotonicity_of_reference(self):
        params = ModelParams(4.0, 1.0)
        x = P(0.0, 0.0)
        coarse = [(1.0, Ball(P(0.0, 2.0), 0.15))]
        fine = [(0.5, Ball(P(0.0, 1.0), 0.15)), (1.0, Ball(P(0.0, 2.0), 0.15))]
        assert min_sliced_cost(params, x, fine) >= min_sliced_cost(params, x, coarse) - 1e-8
