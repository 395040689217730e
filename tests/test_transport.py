import math
from types import SimpleNamespace

import numpy as np
import pytest

from stickybm.geometry import HalfSpacePoint, ModelParams, cost, geodesic
from stickybm.kernel import log_densities
from stickybm.quadrature import QuadratureSpec
from stickybm.transport import (
    DiscreteMeasure,
    TransportConvergenceError,
    cost_matrix,
    displacement_interpolation,
    gamma_limit_experiment,
    kantorovich,
    schrodinger,
)

from oracles import enumerate_assignment_value, enumerate_transport_value, plain_sinkhorn_plan

SPEC = QuadratureSpec()


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


def uniform(*atoms):
    return DiscreteMeasure(tuple(atoms), (1.0 / len(atoms),) * len(atoms))


# criterion 10's fixture: eight boundary atoms on each side, shifted by one
CRIT10 = (DiscreteMeasure(tuple(P(0.0, 0.25 * i) for i in range(8)), (0.125,) * 8),
          DiscreteMeasure(tuple(P(0.0, 1.0 + 0.25 * i) for i in range(8)), (0.125,) * 8))
# boundary and interior atoms on both sides, general weights
MIXED = (DiscreteMeasure((P(0.0, 0.0), P(0.5, 0.3), P(0.0, 0.9), P(1.0, 1.2), P(0.2, 1.5)),
                         (0.3, 0.1, 0.2, 0.25, 0.15)),
         DiscreteMeasure((P(0.3, 0.5), P(0.0, 1.0), P(0.8, 1.8), P(0.0, 2.0), P(0.0, 2.5),
                          P(0.6, 0.1)), (0.2, 0.15, 0.15, 0.2, 0.1, 0.2)))


class TestDiscreteMeasure:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((P(0.0, 0.0),), (0.9,))
        with pytest.raises(ValueError):
            DiscreteMeasure((P(0.0, 0.0), P(1.0, 0.0)), (1.5, -0.5))


class TestKantorovich:
    def test_single_atoms_forced(self):
        params = ModelParams(2.0, 1.0)
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        plan = kantorovich(params, uniform(x), uniform(y))
        assert plan.matrix.shape == (1, 1)
        assert plan.cost_value == pytest.approx(cost(params, x, y), rel=1e-15)

    def test_boundary_two_by_two(self):
        params = ModelParams(2.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 10.0))
        mu1 = uniform(P(0.0, 1.0), P(0.0, 11.0))
        plan = kantorovich(params, mu0, mu1)
        assert plan.cost_value == pytest.approx(0.25, abs=1e-14)
        assert np.allclose(np.diag(plan.matrix), 0.5)

    def test_relabeling_invariance(self):
        params = ModelParams(3.0, 1.0)
        atoms0 = (P(0.0, 0.0), P(1.0, 1.5), P(0.4, -1.0))
        atoms1 = (P(0.0, 2.0), P(0.5, 0.0), P(1.2, 1.0))
        v1 = kantorovich(params, uniform(*atoms0), uniform(*atoms1)).cost_value
        v2 = kantorovich(params, uniform(*atoms0[::-1]), uniform(*atoms1[::-1])).cost_value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_uniform_matches_permutation_enumeration(self):
        rng = np.random.default_rng(3)
        params = ModelParams(2.5, 1.0)
        for n in (2, 3, 4, 5):
            atoms0 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(n))
            atoms1 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(n))
            mu0, mu1 = uniform(*atoms0), uniform(*atoms1)
            plan = kantorovich(params, mu0, mu1)
            bf = enumerate_assignment_value(cost_matrix(params, mu0, mu1))
            assert plan.cost_value == pytest.approx(bf, rel=1e-12)
            # a permutation plan: displacement interpolation then emits one
            # atom per source atom
            for row in plan.matrix:
                assert list(row[row > 0]) == [1.0 / n]

    def test_general_weights_match_enumeration(self):
        rng = np.random.default_rng(5)
        params = ModelParams(4.0, 1.0)
        for (n, m, units) in ((2, 3, 6), (3, 3, 7), (4, 3, 8), (3, 5, 9), (5, 5, 8)):
            supplies = rng.multinomial(units - n, np.ones(n) / n) + 1
            demands = rng.multinomial(units - m, np.ones(m) / m) + 1
            atoms0 = tuple(P(0.0 if rng.random() < 0.4 else float(rng.uniform(0, 2)),
                             float(rng.uniform(-3, 3))) for _ in range(n))
            atoms1 = tuple(P(0.0 if rng.random() < 0.4 else float(rng.uniform(0, 2)),
                             float(rng.uniform(-3, 3))) for _ in range(m))
            mu0 = DiscreteMeasure(atoms0, tuple(supplies / units))
            mu1 = DiscreteMeasure(atoms1, tuple(demands / units))
            plan = kantorovich(params, mu0, mu1)
            bf = enumerate_transport_value(cost_matrix(params, mu0, mu1), supplies, demands)
            assert plan.cost_value == pytest.approx(bf, rel=1e-12)
            assert plan.marginal_defect() <= 1e-12

    def test_dual_feasibility_with_support_equality(self):
        rng = np.random.default_rng(7)
        params = ModelParams(2.0, 1.0)
        atoms0 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(6))
        atoms1 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(6))
        w0 = rng.multinomial(14, np.ones(6) / 6) + 1
        w1 = rng.multinomial(14, np.ones(6) / 6) + 1
        mu0 = DiscreteMeasure(atoms0, tuple(w0 / 20))
        mu1 = DiscreteMeasure(atoms1, tuple(w1 / 20))
        plan = kantorovich(params, mu0, mu1)
        u, v = plan.dual_potentials
        c = cost_matrix(params, mu0, mu1)
        slack = u[:, None] + v[None, :] - c
        assert np.max(slack) <= 1e-9
        assert np.max(np.abs(slack[plan.matrix > 1e-12])) <= 1e-9
        # strong duality
        dual_value = float(u @ mu0.weights + v @ np.asarray(mu1.weights))
        assert dual_value == pytest.approx(plan.cost_value, rel=1e-10)

    def test_solver_failure_raises_with_its_message(self, monkeypatch):
        monkeypatch.setattr("scipy.optimize.linprog",
                            lambda *args, **kwargs: SimpleNamespace(
                                status=2, message="The problem is infeasible."))
        with pytest.raises(RuntimeError, match="infeasible"):
            kantorovich(ModelParams(2.0, 1.0), uniform(P(0.0, 0.0)), uniform(P(0.0, 1.0)))

    def test_size_cap(self):
        params = ModelParams(2.0, 1.0)
        atoms = tuple(P(0.0, float(i)) for i in range(513))
        big = DiscreteMeasure(atoms, (1.0 / 513,) * 513)
        with pytest.raises(ValueError):
            kantorovich(params, big, big)


class TestSchrodinger:
    def test_single_atoms(self):
        params = ModelParams(4.0, 1.0)
        plan = schrodinger(params, SPEC, 0.5, uniform(P(0.0, 0.0)), uniform(P(0.0, 1.0)))
        assert plan.matrix.shape == (1, 1)
        assert plan.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert plan.iterations <= 5

    def test_marginals_on_random_instances(self):
        rng = np.random.default_rng(11)
        params = ModelParams(2.0, 1.0)
        for _ in range(3):
            n = 16
            atoms0 = tuple(P(0.0 if rng.random() < 0.5 else float(rng.uniform(0, 1)),
                             float(rng.uniform(-2, 2))) for _ in range(n))
            atoms1 = tuple(P(0.0 if rng.random() < 0.5 else float(rng.uniform(0, 1)),
                             float(rng.uniform(-2, 2))) for _ in range(n))
            w0 = rng.dirichlet(np.ones(n))
            w1 = rng.dirichlet(np.ones(n))
            mu0 = DiscreteMeasure(atoms0, tuple(w0 / w0.sum()))
            mu1 = DiscreteMeasure(atoms1, tuple(w1 / w1.sum()))
            plan = schrodinger(params, SPEC, 0.25, mu0, mu1, tol=1e-9)
            assert plan.marginal_defect() <= 2e-9

    def test_large_epsilon_product_coupling(self):
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 0.7))
        mu1 = uniform(P(0.0, 0.3), P(0.0, 1.0))
        plan = schrodinger(params, SPEC, 10.0, mu0, mu1)
        prod = np.outer(mu0.weights, mu1.weights)
        assert np.max(np.abs(plan.matrix - prod)) <= 1e-2

    def test_nonconvergence_reported(self):
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 2.0))
        mu1 = uniform(P(0.0, 1.0), P(0.0, 3.0))
        with pytest.raises(TransportConvergenceError) as err:
            schrodinger(params, SPEC, 0.05, mu0, mu1, max_iter=3, tol=1e-12)
        assert err.value.marginal_error > 0

    def test_small_epsilon_stays_finite(self):
        # kernel entries span hundreds of orders of magnitude at eps = 1e-3
        # and the entropic optimum is numerically deterministic: the
        # log-domain iteration must not overflow, and Newton must meet the
        # tolerance on its own, where plain Sinkhorn stalls near 1e-5.
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 1.5))
        mu1 = uniform(P(0.0, 0.8), P(0.0, 2.75))
        plan = schrodinger(params, SPEC, 1e-3, mu0, mu1)
        assert np.isfinite(plan.cost_value)
        assert plan.marginal_defect() < 1e-9
        assert plan.iterations <= 100

    @pytest.mark.parametrize("eps", [0.0025, 1e-3])
    def test_deterministic_optimum_converges_without_rounding(self, eps):
        # plain Sinkhorn needs 1380 sweeps at 0.0025 and stalls near 1e-5 at 1e-3
        plan = schrodinger(ModelParams(4.0, 1.0), SPEC, eps, *CRIT10)
        assert plan.marginal_defect() < 1e-9
        assert plan.iterations <= 100

    @pytest.mark.parametrize("fixture", [CRIT10, MIXED], ids=["criterion10", "mixed"])
    @pytest.mark.parametrize("eps", [0.04, 0.01])
    def test_matches_plain_sinkhorn_fixed_point(self, fixture, eps):
        params = ModelParams(4.0, 1.0)
        mu0, mu1 = fixture
        plan = schrodinger(params, SPEC, eps, mu0, mu1)
        gap = np.abs(mu1.xp()[None, :, 0] - mu0.xp()[:, None, 0])
        log_k = log_densities(params, SPEC, eps, mu0.x1()[:, None], mu1.x1()[None, :],
                              gap).interior
        ref = plain_sinkhorn_plan(log_k, np.asarray(mu0.weights), np.asarray(mu1.weights))
        ref_value = eps * float(np.sum(ref * (np.log(ref) - log_k)))
        assert np.max(np.abs(plan.matrix - ref)) <= 1e-8
        assert plan.cost_value == pytest.approx(ref_value, abs=1e-8)


class TestGammaLimit:
    def test_identical_measures(self):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0), P(0.0, 0.5))
        res = gamma_limit_experiment(params, SPEC, mu, mu, (0.04, 0.02, 0.01))
        assert res.kantorovich_value == 0.0
        assert abs(res.rows[-1].entropic_value) < abs(res.rows[0].entropic_value) + 1e-9
        assert abs(res.rows[-1].entropic_value) < 0.05

    def test_boundary_fixture_gap_shrinks(self):
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        res = gamma_limit_experiment(params, SPEC, src, tgt, (0.04, 0.02, 0.01))
        assert res.kantorovich_value == pytest.approx(0.125, rel=1e-12)
        assert res.gaps_shrink
        assert res.rows[0].gap / res.rows[-1].gap >= 2.0
        # Gamma-liminf content: the positive part of (C - C_eps) vanishes
        # along decreasing epsilon (the raw convention sits below C by
        # O(eps log 1/eps) prefactor terms at finite eps).
        viol = [max(res.kantorovich_value - r.entropic_value, 0.0) for r in res.rows]
        assert viol[-1] < viol[0]
        assert viol[-1] <= abs(res.gap_slope) * 0.01 * math.log(1 / 0.01) + 1e-9

    def test_no_converged_epsilon_raises(self):
        # With every epsilon failing there is no gap to fit; a slope read off
        # zero rows would be 0.
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        with pytest.raises(TransportConvergenceError) as err:
            gamma_limit_experiment(params, SPEC, src, tgt, (0.04, 0.02, 0.01),
                                   max_iter=3, tol=1e-12)
        assert "[0.04, 0.02, 0.01]" in str(err.value)
        assert err.value.marginal_error > 0

    def test_plan_concentrates_near_exact_support(self):
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        exact = kantorovich(params, src, tgt)
        entropic = schrodinger(params, SPEC, 0.0025, src, tgt)
        off_support = float(np.sum(entropic.matrix[exact.matrix <= 1e-12]))
        assert off_support <= 0.1
        assert entropic.marginal_defect() <= 1e-9

    def test_epsilon_floor(self):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0))
        with pytest.raises(ValueError):
            gamma_limit_experiment(params, SPEC, mu, mu, (0.01, 1e-4))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            schrodinger(params, SPEC, eps, mu, mu)
        with pytest.raises(ValueError, match="finite"):
            gamma_limit_experiment(params, SPEC, mu, mu, (0.04, eps, 0.01))


class TestDisplacement:
    def test_endpoints(self):
        params = ModelParams(2.0, 1.0)
        mu0 = uniform(P(1.0, 0.0), P(0.0, 2.0))
        mu1 = uniform(P(1.0, 5.0), P(0.0, 4.0))
        plan = kantorovich(params, mu0, mu1)
        start = displacement_interpolation(params, plan, 0.0)
        end = displacement_interpolation(params, plan, 1.0)
        assert {(p.x1, p.xp) for p in start.atoms} == {(p.x1, p.xp) for p in mu0.atoms}
        assert {(p.x1, p.xp) for p in end.atoms} == {(p.x1, p.xp) for p in mu1.atoms}

    def test_boundary_midpoint(self):
        params = ModelParams(4.0, 1.0)
        plan = kantorovich(params, uniform(P(0.0, 0.0)), uniform(P(0.0, 2.0)))
        mid = displacement_interpolation(params, plan, 0.5)
        assert mid.atoms[0].x1 == 0.0
        assert mid.atoms[0].xp[0] == pytest.approx(1.0, rel=1e-12)

    def test_breakpoint_hits_entry_point(self):
        params = ModelParams(2.0, 1.0)
        x, y = P(1.0, 0.0), P(1.0, 5.0)
        plan = kantorovich(params, uniform(x), uniform(y))
        g = geodesic(params, x, y)
        t_break = g.segments[0].duration
        mid = displacement_interpolation(params, plan, t_break)
        assert mid.atoms[0].x1 == 0.0
        assert mid.atoms[0].xp[0] == pytest.approx(1.0, rel=1e-12)

    def test_interpolants_stay_in_halfspace(self):
        rng = np.random.default_rng(13)
        params = ModelParams(3.0, 1.0)
        atoms0 = tuple(P(0.0 if rng.random() < 0.5 else float(rng.uniform(0, 2)),
                         float(rng.uniform(-3, 3))) for _ in range(4))
        atoms1 = tuple(P(0.0 if rng.random() < 0.5 else float(rng.uniform(0, 2)),
                         float(rng.uniform(-3, 3))) for _ in range(4))
        plan = kantorovich(params, uniform(*atoms0), uniform(*atoms1))
        for t in np.linspace(0, 1, 11):
            mid = displacement_interpolation(params, plan, float(t))
            assert all(p.x1 >= 0 for p in mid.atoms)
            assert sum(mid.weights) == pytest.approx(1.0, abs=1e-12)


def mixed_atoms(rng, n):
    """n atoms, about 40% on the boundary, the rest inside."""
    return tuple(P(0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 2.0)),
                   float(rng.uniform(-3.0, 3.0))) for _ in range(n))


class TestGeodesicSpace:
    """c = d^2 / 2 for the intrinsic distance d, so displacement interpolation
    is a constant-speed geodesic of the transport cost."""

    @pytest.mark.parametrize("n", [6, 12, 24])
    def test_transport_cost_scales_along_interpolation(self, n):
        rng = np.random.default_rng(n)
        params = ModelParams(4.0, 1.0)
        mu0, mu1 = uniform(*mixed_atoms(rng, n)), uniform(*mixed_atoms(rng, n))
        plan = kantorovich(params, mu0, mu1)
        w = plan.cost_value
        for t in (0.25, 0.5, 0.8):
            mu_t = displacement_interpolation(params, plan, t)
            assert kantorovich(params, mu0, mu_t).cost_value == pytest.approx(t * t * w, rel=1e-12)
            assert kantorovich(params, mu_t, mu1).cost_value == pytest.approx((1 - t) ** 2 * w,
                                                                             rel=1e-12)

    def test_cost_scales_along_geodesics(self):
        rng = np.random.default_rng(21)
        params = ModelParams(4.0, 1.0)
        for x, y in zip(mixed_atoms(rng, 500), mixed_atoms(rng, 500)):
            c = cost(params, x, y)
            g = geodesic(params, x, y)
            for t in (0.25, 0.5, 0.8):
                assert cost(params, x, g.point_at(t)) == pytest.approx(t * t * c, rel=1e-12)
