import math

import numpy as np
import pytest

from stickybm.geometry import (
    INFINITE_ACTION,
    HalfSpacePoint,
    ModelParams,
    Path,
    _tangential_gap,
    action,
    cone_contains,
    cone_threshold,
    cost,
    cost_batch,
    euclidean_rate,
    geodesic,
    hamiltonian,
    lagrangian,
    point,
    sliced_cost,
    sticky_rate,
    sticky_rate_profile,
)

from oracles import golden_min_sticky_profile


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 1)

    def test_derived(self):
        p = ModelParams(4.0, 2.0, 3)
        assert p.big_a == 3.0
        assert math.isclose(math.sin(p.alpha) ** 2, 0.25, rel_tol=1e-15)
        assert ModelParams(1.0, 1.0).alpha == pytest.approx(math.pi / 2)

    def test_alpha_rejects_small_a(self):
        with pytest.raises(ValueError):
            ModelParams(0.5, 1.0).alpha

    @pytest.mark.parametrize("a, theta", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_rejects_non_finite(self, a, theta):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(a, theta)


class TestHalfSpacePoint:
    def test_boundary_membership_is_exact(self):
        assert P(0.0, 1.0).on_boundary()
        assert not P(1e-300, 1.0).on_boundary()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            P(-1e-12, 0.0)

    @pytest.mark.parametrize("x1, xp", [
        (math.inf, (0.0,)), (math.nan, (0.0,)), (0.0, (math.inf,)), (1.0, (0.0, math.nan)),
    ])
    def test_rejects_non_finite(self, x1, xp):
        with pytest.raises(ValueError, match="finite"):
            HalfSpacePoint(x1, xp)

    def test_point_helper(self):
        q = point(1.0, 2.0, 3.0)
        assert q.dim == 3
        assert q.xp == (2.0, 3.0)

    def test_tiny_tangential_gap_does_not_underflow(self):
        # a squared 1e-200 underflows to 0; the gap must not
        assert _tangential_gap(P(0.0, 0.0), P(0.0, 1e-200)) == 1e-200
        assert _tangential_gap(P(0.0, 0.0, 0.0), P(1.0, 1e-200, 1e-200)) == pytest.approx(
            math.sqrt(2.0) * 1e-200, rel=1e-15)


class TestLagrangianHamiltonian:
    def test_lagrangian_examples(self):
        assert lagrangian(ModelParams(0.5, 1.0), P(0.0, 0.0), (1.0, 1.0)) == 1.0
        assert lagrangian(ModelParams(4.0, 1.0), P(0.0, 0.0), (0.0, 2.0)) == 0.5
        assert lagrangian(ModelParams(4.0, 1.0), P(1.0, 0.0), (0.0, 2.0)) == 2.0

    def test_lagrangian_infinite_on_boundary_normal_motion(self):
        assert lagrangian(ModelParams(4.0, 1.0), P(0.0, 0.0), (1.0, 0.0)) == INFINITE_ACTION
        # relaxation: finite for a <= 1
        assert lagrangian(ModelParams(1.0, 1.0), P(0.0, 0.0), (1.0, 0.0)) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lagrangian(ModelParams(2.0, 1.0, 3), P(0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            hamiltonian(ModelParams(2.0, 1.0), P(0.0, 0.0), (1.0, 1.0, 1.0))

    def test_hamiltonian_examples(self):
        assert hamiltonian(ModelParams(2.0, 1.0), P(1.0, 0.0), (3.0, 4.0)) == 12.5
        assert hamiltonian(ModelParams(2.0, 1.0), P(0.0, 0.0), (3.0, 4.0)) == 16.0
        assert hamiltonian(ModelParams(1.0, 1.0), P(0.0, 0.0), (0.0, 1.0)) == 0.5

    def test_legendre_duality(self):
        # sup_q [p.q - L(x, q)] equals H(x, p) wherever the relaxed
        # Lagrangian agrees with the two-phase one: interior points for all
        # a, boundary points for a > 1.  (The a <= 1 relaxation breaks the
        # pairing on the boundary by construction.)
        rng = np.random.default_rng(7)

        def refined_sup(obj, grid):
            vals = obj(grid)
            i = int(np.argmax(vals))
            fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 801)
            return max(float(np.max(vals)), float(np.max(obj(fine))))

        coarse = np.linspace(-12.0, 12.0, 481)
        for _ in range(12):
            a = float(rng.uniform(0.3, 5.0))
            boundary = rng.random() < 0.5 and a > 1.0
            x = P(0.0, 0.0) if boundary else P(float(rng.uniform(0.1, 2.0)), 0.0)
            p = rng.uniform(-2.0, 2.0, size=2)
            params = ModelParams(a, 1.0)
            if boundary:
                # q1 must vanish (infinite action otherwise): a 1-D search
                # along the tangential axis with L = q2^2 / (2a).
                sup = refined_sup(lambda q: p[1] * q - q * q / (2 * a), coarse)
            else:
                sup1 = refined_sup(lambda q: p[0] * q - 0.5 * q * q, coarse)
                sup2 = refined_sup(lambda q: p[1] * q - 0.5 * q * q, coarse)
                sup = sup1 + sup2
            assert hamiltonian(params, x, p) == pytest.approx(sup, abs=1e-6)


class TestStickyRate:
    def test_examples(self):
        assert sticky_rate(ModelParams(2.0, 1.0), P(1.0, 0.0), P(1.0, 5.0)) == pytest.approx(12.25, abs=1e-12)
        assert sticky_rate(ModelParams(0.5, 1.0), P(1.0, 0.0), P(1.0, 5.0)) == 14.5
        assert sticky_rate(ModelParams(2.0, 1.0), P(0.0, 0.0), P(0.0, 0.0)) == 0.0

    def test_against_golden_section(self):
        rng = np.random.default_rng(3)
        n = 400
        a = rng.uniform(0.2, 8.0, n)
        x1 = rng.uniform(0.0, 3.0, n)
        y1 = rng.uniform(0.0, 3.0, n)
        v = rng.uniform(0.0, 6.0, n)
        from stickybm.geometry import _sticky_rate_core
        ours = _sticky_rate_core(a, x1 + y1, v)
        ref = golden_min_sticky_profile(a, x1 + y1, v)
        assert np.max(np.abs(ours - ref)) < 1e-10

    def test_profile_minimum_matches(self):
        params = ModelParams(2.0, 1.0)
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        grid = np.linspace(0.0, 1.0 - 1e-9, 20001)
        assert np.min(sticky_rate_profile(params, x, y, grid)) == pytest.approx(
            sticky_rate(params, x, y), abs=1e-6)


class TestCone:
    def test_examples(self):
        p = ModelParams(2.0, 1.0)
        assert cone_contains(p, P(1.0, 0.0), P(1.0, 3.0))
        assert not cone_contains(p, P(1.0, 0.0), P(1.0, 5.0))
        assert not cone_contains(p, P(0.0, 0.0), P(0.0, 1.0))

    def test_threshold_value(self):
        p = ModelParams(2.0, 1.0)
        assert cone_threshold(p, P(1.0, 0.0), P(1.0, 0.0)) == pytest.approx(2 + 2 * math.sqrt(2))

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            cone_contains(ModelParams(1.0, 1.0), P(1.0, 0.0), P(1.0, 3.0))

    def test_ties_count_as_inside(self):
        p = ModelParams(2.0, 1.0)
        x = P(1.0, 0.0)
        thr = cone_threshold(p, x, P(1.0, 0.0))
        assert cone_contains(p, x, P(1.0, thr))


class TestCost:
    def test_examples(self):
        assert cost(ModelParams(4.0, 1.0), P(0.0, 0.0), P(0.0, 2.0)) == 0.5
        assert cost(ModelParams(0.5, 1.0), P(1.0, 0.0), P(0.0, 3.0)) == 5.0
        assert cost(ModelParams(2.0, 1.0), P(1.0, 0.0), P(1.0, 5.0)) == pytest.approx(12.25, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = float(rng.uniform(0.2, 8.0))
            params = ModelParams(a, 1.0)
            x = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            y = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            assert abs(cost(params, x, y) - cost(params, y, x)) <= 1e-14

    def test_continuity_across_cone_surface(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = float(rng.uniform(1.05, 8.0))
            params = ModelParams(a, 1.0)
            x1 = float(rng.uniform(0.0, 2.0))
            y1 = float(rng.uniform(0.0, 2.0))
            x = P(x1, 0.0)
            thr = cone_threshold(params, x, P(y1, 0.0))
            if thr == 0.0:
                continue
            y = P(y1, thr)
            euclid = euclidean_rate(x, y)
            big_a = a - 1.0
            slant = (math.sqrt(big_a) * (x1 + y1) + thr) ** 2 / (2 * a)
            assert abs(euclid - slant) <= 1e-9 * max(euclid, 1.0)

    def test_equals_min_of_rates(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            a = float(rng.uniform(0.2, 8.0))
            params = ModelParams(a, 1.0)
            x = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            y = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            expected = min(euclidean_rate(x, y), sticky_rate(params, x, y))
            assert cost(params, x, y) == pytest.approx(expected, rel=1e-14, abs=1e-14)

    def test_coercivity(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            a = float(rng.uniform(1.01, 8.0))
            params = ModelParams(a, 1.0)
            x = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            y = P(float(rng.uniform(0, 3)), float(rng.uniform(-4, 4)))
            assert cost(params, x, y) >= euclidean_rate(x, y) / a - 1e-14
        p_small = ModelParams(0.7, 1.0)
        x, y = P(0.5, 0.0), P(0.0, 2.0)
        assert cost(p_small, x, y) == euclidean_rate(x, y)

    def test_metric_axioms(self):
        rng = np.random.default_rng(23)
        n = 500
        a = rng.uniform(0.2, 8.0, n)
        pts = rng.uniform(0, 3, (n, 3, 2))
        pts[:, :, 1] = rng.uniform(-4, 4, (n, 3))
        x1, y1, z1 = pts[:, 0, 0], pts[:, 1, 0], pts[:, 2, 0]
        xp, yp, zp = pts[:, 0, 1:], pts[:, 1, 1:], pts[:, 2, 1:]
        dxy = np.sqrt(2 * cost_batch(a, x1, xp, y1, yp))
        dyz = np.sqrt(2 * cost_batch(a, y1, yp, z1, zp))
        dxz = np.sqrt(2 * cost_batch(a, x1, xp, z1, zp))
        assert np.all(dxz <= dxy + dyz + 1e-12)
        assert np.all(dxy >= 0)
        # identity of indiscernibles
        assert cost_batch(a, x1, xp, x1, xp).max() == 0.0


class TestGeodesic:
    def test_three_segment_example(self):
        params = ModelParams(2.0, 1.0)
        g = geodesic(params, P(1.0, 0.0), P(1.0, 5.0))
        assert g.case_tag == "three_segment"
        assert g.total_cost == pytest.approx(12.25, abs=1e-12)
        z_in, z_out = g.segments[0].end, g.segments[1].end
        assert z_in.x1 == 0.0 and z_in.xp == (1.0,)
        assert z_out.x1 == 0.0 and z_out.xp == (4.0,)
        # both slanted legs make the contact angle: sin^2 = 1/a
        for seg in (g.segments[0], g.segments[2]):
            d = seg.end.coords() - seg.start.coords()
            sin2 = (d[1] ** 2) / (d @ d)
            assert sin2 == pytest.approx(1.0 / params.a, rel=1e-12)

    def test_boundary_only(self):
        g = geodesic(ModelParams(4.0, 1.0), P(0.0, 0.0), P(0.0, 2.0))
        assert g.case_tag == "boundary_only"
        assert len(g.segments) == 1
        assert g.total_cost == 0.5

    def test_identity(self):
        g = geodesic(ModelParams(3.0, 1.0), P(1.0, 2.0), P(1.0, 2.0))
        assert g.total_cost == 0.0
        assert len(g.segments) == 1

    def test_one_touch_tags(self):
        params = ModelParams(4.0, 1.0)
        g = geodesic(params, P(0.0, 0.0), P(1.0, 4.0))
        assert g.case_tag == "one_touch_exit"
        assert len(g.segments) == 2
        g2 = geodesic(params, P(1.0, 4.0), P(0.0, 0.0))
        assert g2.case_tag == "one_touch_entry"

    def test_euclidean_inside_cone(self):
        params = ModelParams(2.0, 1.0)
        g = geodesic(params, P(1.0, 0.0), P(1.0, 3.0))
        assert g.case_tag == "euclidean"
        assert g.total_cost == pytest.approx(4.5)

    def test_durations_and_chaining(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = float(rng.uniform(0.3, 8.0))
            params = ModelParams(a, 1.0)
            x = P(float(rng.uniform(0, 2)) if rng.random() > 0.25 else 0.0, float(rng.uniform(-4, 4)))
            y = P(float(rng.uniform(0, 2)) if rng.random() > 0.25 else 0.0, float(rng.uniform(-4, 4)))
            g = geodesic(params, x, y)
            assert sum(s.duration for s in g.segments) == pytest.approx(1.0, abs=1e-12)
            for s1, s2 in zip(g.segments, g.segments[1:]):
                assert s1.end == s2.start
            assert g.segments[0].start == x and g.segments[-1].end == y

    def test_action_equals_cost(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = float(rng.uniform(0.3, 8.0))
            params = ModelParams(a, 1.0)
            x = P(float(rng.uniform(0, 2)) if rng.random() > 0.25 else 0.0, float(rng.uniform(-4, 4)))
            y = P(float(rng.uniform(0, 2)) if rng.random() > 0.25 else 0.0, float(rng.uniform(-4, 4)))
            if x == y:
                continue
            g = geodesic(params, x, y)
            c = cost(params, x, y)
            assert g.total_cost == pytest.approx(c, rel=1e-12, abs=1e-15)
            assert action(params, g.to_path()) == pytest.approx(c, rel=1e-12, abs=1e-13)

    def test_point_at_breakpoint(self):
        g = geodesic(ModelParams(2.0, 1.0), P(1.0, 0.0), P(1.0, 5.0))
        t_break = g.segments[0].duration
        assert t_break == pytest.approx(2.0 / 7.0, rel=1e-14)
        z = g.point_at(t_break)
        assert z.x1 == 0.0
        assert z.xp[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x, y", [
        (P(1.0, 0.0), P(1e-300, 50.0)),
        (P(1e-300, 0.0), P(1.0, 50.0)),
        (P(5e-324, 0.0), P(1.0, 50.0)),
    ], ids=["last-leg", "first-leg", "first-leg-subnormal"])
    def test_leg_shorter_than_one_ulp_of_time(self, x, y):
        # The slanted leg at the tiny end lasts less than one ulp of time; it
        # keeps one ulp, and the boundary leg stays on the boundary.
        params = ModelParams(4.0, 1.0)
        g = geodesic(params, x, y)
        path = g.to_path()
        assert len(path.times) == 4 and path.knots == (x, *(s.end for s in g.segments))
        assert all(t1 < t2 for t1, t2 in zip(path.times, path.times[1:]))
        assert g.point_at(0.0) == x and g.point_at(1.0) == y
        assert g.point_at(0.5).x1 == 0.0
        assert action(params, path) == pytest.approx(g.total_cost, rel=1e-12)

    def test_tangential_gap_whose_square_underflows(self):
        # |y' - x'| = 1e-200 squares to zero; the legs still chain, and the
        # boundary leg runs toward negative x'.
        x, y = P(1e-300, 0.0), P(2e-300, -1e-200)
        g = geodesic(ModelParams(4.0, 1.0), x, y)
        assert g.case_tag == "three_segment" and len(g.segments) == 3
        assert g.segments[0].start == x and g.segments[-1].end == y
        assert all(s1.end == s2.start for s1, s2 in zip(g.segments, g.segments[1:]))
        z_in, z_out = g.segments[1].start, g.segments[1].end
        assert z_in.x1 == z_out.x1 == 0.0 and z_out.xp[0] < z_in.xp[0] < 0.0

    def test_higher_dimension_plane_reduction(self):
        params = ModelParams(3.0, 1.0, 4)
        x = HalfSpacePoint(1.0, (0.0, 0.0, 0.0))
        y = HalfSpacePoint(0.5, (4.0, -3.0, 1.0))
        g = geodesic(params, x, y)
        assert g.total_cost == pytest.approx(cost(params, x, y), rel=1e-12)
        assert action(params, g.to_path()) == pytest.approx(g.total_cost, rel=1e-12)
        # tangential displacements stay collinear with y' - x'
        u = np.asarray(y.xp) - np.asarray(x.xp)
        u = u / np.linalg.norm(u)
        for seg in g.segments:
            d = np.asarray(seg.end.xp) - np.asarray(seg.start.xp)
            residual = d - (d @ u) * u
            assert np.linalg.norm(residual) < 1e-12


class TestPathAndAction:
    def test_path_invariants(self):
        with pytest.raises(ValueError):
            Path((0.0, 0.5), (P(0.0, 0.0), P(0.0, 1.0), P(0.0, 2.0)))
        with pytest.raises(ValueError):
            Path((0.0, 0.5, 0.5, 1.0), tuple(P(0.0, float(i)) for i in range(4)))
        with pytest.raises(ValueError):
            Path((0.1, 1.0), (P(0.0, 0.0), P(0.0, 1.0)))

    def test_action_examples(self):
        params = ModelParams(2.0, 1.0)
        chord = Path((0.0, 1.0), (P(1.0, 0.0), P(1.0, 5.0)))
        assert action(params, chord) == 12.5
        g = geodesic(params, P(1.0, 0.0), P(1.0, 5.0))
        assert action(params, g.to_path()) == pytest.approx(12.25, rel=1e-14)
        bdry = Path((0.0, 1.0), (P(0.0, 0.0), P(0.0, 2.0)))
        assert action(ModelParams(4.0, 1.0), bdry) == 0.5

    def test_boundary_segment_uses_interior_rate_below_one(self):
        bdry = Path((0.0, 1.0), (P(0.0, 0.0), P(0.0, 2.0)))
        assert action(ModelParams(0.5, 1.0), bdry) == 2.0

    def test_interpolation_clamps(self):
        path = Path((0.0, 1.0), (P(1.0, 0.0), P(0.0, 1.0)))
        mid = path.at(0.75)
        assert mid.x1 >= 0.0


class TestSlicedCost:
    def test_euclidean_chord_additive(self):
        params = ModelParams(0.5, 1.0)
        chord = Path((0.0, 1.0), (P(1.0, 0.0), P(2.0, 3.0)))
        for partition in [(0.0, 1.0), (0.0, 0.25, 1.0), tuple(np.linspace(0, 1, 9))]:
            assert sliced_cost(params, chord, partition) == pytest.approx(5.0, rel=1e-12)

    def test_midpoint_example(self):
        params = ModelParams(2.0, 1.0)
        chord = Path((0.0, 1.0), (P(1.0, 0.0), P(1.0, 5.0)))
        mid = chord.at(0.5)
        assert cone_contains(params, P(1.0, 0.0), mid)
        assert cone_contains(params, mid, P(1.0, 5.0))
        assert sliced_cost(params, chord, (0.0, 0.5, 1.0)) == pytest.approx(12.5, rel=1e-12)

    def test_refinement_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = float(rng.uniform(0.3, 6.0))
            params = ModelParams(a, 1.0)
            knots = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(4))
            path = Path((0.0, 0.3, 0.7, 1.0), knots)
            coarse = (0.0, 0.5, 1.0)
            fine = (0.0, 0.25, 0.5, 0.8, 1.0)
            assert sliced_cost(params, path, fine) >= sliced_cost(params, path, coarse) - 1e-10

    def test_invalid_partition(self):
        path = Path((0.0, 1.0), (P(1.0, 0.0), P(1.0, 1.0)))
        with pytest.raises(ValueError):
            sliced_cost(ModelParams(1.0, 1.0), path, (0.0, 0.5))
        with pytest.raises(ValueError):
            sliced_cost(ModelParams(1.0, 1.0), path, (0.0, 0.5, 0.5, 1.0))
