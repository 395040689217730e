import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import stickybm.transport
from stickybm.geometry import HalfSpacePoint, ModelParams, _gap, cost, geodesic
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

from oracles import (enumerate_assignment_value, enumerate_transport_value, highs_transport,
                     plain_sinkhorn_plan, point_bits, reference_displacement_interpolation,
                     reference_geodesic)

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

    @pytest.mark.parametrize("atoms, weights, error, message", [
        ((P(0.0, 0.0), P(1.0, 0.0)), (1.0,), ValueError,
         "need matching, nonempty atoms and weights"),
        ((), (), ValueError, "need matching, nonempty atoms and weights"),
        ((P(0.0, 0.0), (1.0, 0.0)), (0.5, 0.5), TypeError,
         "atoms must be HalfSpacePoint instances"),
    ], ids=["mismatched", "empty", "not-a-point"])
    def test_atoms_and_weights_checked(self, atoms, weights, error, message):
        with pytest.raises(error, match=message):
            DiscreteMeasure(atoms, weights)


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
        # Any optimal dual certifies any optimal plan: HiGHS's multipliers
        # must be feasible, tight on the library plan's support and equal in
        # value, for a general pair (the linear program) and a uniform one
        # (the assignment).
        rng = np.random.default_rng(7)
        params = ModelParams(2.0, 1.0)
        atoms0 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(6))
        atoms1 = tuple(P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3))) for _ in range(6))
        w0 = rng.multinomial(14, np.ones(6) / 6) + 1
        w1 = rng.multinomial(14, np.ones(6) / 6) + 1
        pairs = ((DiscreteMeasure(atoms0, tuple(w0 / 20)), DiscreteMeasure(atoms1, tuple(w1 / 20))),
                 (uniform(*atoms0), uniform(*atoms1)))
        for mu0, mu1 in pairs:
            plan = kantorovich(params, mu0, mu1)
            c = cost_matrix(params, mu0, mu1)
            _, u, v = highs_transport(c, mu0.weights, mu1.weights)
            slack = u[:, None] + v[None, :] - c
            assert np.max(slack) <= 1e-9
            assert np.max(np.abs(slack[plan.matrix > 1e-12])) <= 1e-9
            # strong duality
            dual_value = float(u @ mu0.weights + v @ np.asarray(mu1.weights))
            assert dual_value == pytest.approx(plan.cost_value, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    def test_uniform_equal_sizes_give_an_exact_permutation(self, n, a):
        rng = np.random.default_rng([n, int(2 * a)])
        params = ModelParams(a, 1.0)
        mu0, mu1 = uniform(*mixed_atoms(rng, n)), uniform(*mixed_atoms(rng, n))
        plan = kantorovich(params, mu0, mu1)
        c = cost_matrix(params, mu0, mu1)
        value, _, _ = highs_transport(c, mu0.weights, mu1.weights)
        assert plan.cost_value == pytest.approx(value, rel=1e-12)
        support = plan.matrix != 0.0
        assert np.all(support.sum(axis=0) == 1) and np.all(support.sum(axis=1) == 1)
        assert np.all(plan.matrix[support] == mu0.weights[0])
        assert plan.marginal_defect() <= 1e-15

    @pytest.mark.parametrize("n, m, weights", [
        (2, 3, "float"), (3, 2, "units"), (5, 8, "float"), (13, 7, "units"), (24, 17, "float"),
        (31, 64, "float"), (64, 48, "units"), (64, 2, "float"),
        # a degenerate program: the partial sums 2/4 and 3/6 of the two sides tie
        (4, 6, "equal"),
    ])
    def test_general_weights_match_highs_on_a_seeded_sweep(self, n, m, weights):
        rng = np.random.default_rng([n, m])
        params = ModelParams(float(rng.uniform(0.5, 6.0)), 1.0)

        def measure(k):
            """30-50% boundary atoms; float weights, whole units of 1/(3k), or equal."""
            on_boundary = rng.permutation(k) < round(rng.uniform(0.3, 0.5) * k)
            atoms = tuple(P(0.0 if b else float(rng.uniform(0.0, 2.0)),
                            float(rng.uniform(-3.0, 3.0))) for b in on_boundary)
            w = {"float": lambda: rng.uniform(0.2, 1.0, k),
                 "units": lambda: rng.multinomial(2 * k, np.ones(k) / k) + 1.0,
                 "equal": lambda: np.ones(k)}[weights]()
            return DiscreteMeasure(atoms, tuple(w / w.sum()))

        mu0, mu1 = measure(n), measure(m)
        plan = kantorovich(params, mu0, mu1)
        c = cost_matrix(params, mu0, mu1)
        value, u, v = highs_transport(c, mu0.weights, mu1.weights)
        assert plan.cost_value == pytest.approx(value, rel=1e-12)
        assert plan.marginal_defect() <= 1e-12
        assert np.all(plan.matrix >= 0.0)
        assert np.max(np.abs((u[:, None] + v[None, :] - c)[plan.matrix > 1e-12])) <= 1e-9

    def test_only_uniform_equal_sizes_skip_the_linear_program(self, monkeypatch):
        class Reached(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("scipy.optimize.milp", refuse)
        params = ModelParams(2.0, 1.0)
        rng = np.random.default_rng(17)
        for n in (1, 3, 8):
            kantorovich(params, uniform(*mixed_atoms(rng, n)), uniform(*mixed_atoms(rng, n)))
        atoms = mixed_atoms(rng, 4)
        # a weight one ulp below the others is not uniform: there is no tolerance
        nearly = (0.25, 0.25, 0.25, math.nextafter(0.25, 0.0))
        for mu0, mu1 in ((uniform(*atoms[:3]), uniform(*atoms)),
                         (uniform(*atoms), uniform(*atoms[:3])),
                         (uniform(*atoms), DiscreteMeasure(atoms, (0.4, 0.3, 0.2, 0.1))),
                         (DiscreteMeasure(atoms, (0.4, 0.3, 0.2, 0.1)), uniform(*atoms)),
                         (uniform(*atoms), DiscreteMeasure(atoms, nearly))):
            with pytest.raises(Reached):
                kantorovich(params, mu0, mu1)

    def test_solver_failure_raises_with_its_message(self, monkeypatch):
        monkeypatch.setattr("scipy.optimize.milp",
                            lambda *args, **kwargs: SimpleNamespace(
                                status=2, message="The problem is infeasible."))
        mu0 = DiscreteMeasure((P(0.0, 0.0), P(0.0, 1.0)), (0.25, 0.75))
        with pytest.raises(RuntimeError, match="infeasible"):
            kantorovich(ModelParams(2.0, 1.0), mu0, uniform(P(0.0, 1.0), P(0.0, 2.0)))

    def test_size_cap(self):
        params = ModelParams(2.0, 1.0)
        atoms = tuple(P(0.0, float(i)) for i in range(513))
        big = DiscreteMeasure(atoms, (1.0 / 513,) * 513)
        with pytest.raises(ValueError):
            kantorovich(params, big, big)


class TestSchrodinger:
    def test_single_atoms(self):
        params = ModelParams(4.0, 1.0)
        plan = schrodinger(params, 0.5, uniform(P(0.0, 0.0)), uniform(P(0.0, 1.0)))
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
            plan = schrodinger(params, 0.25, mu0, mu1)
            assert plan.marginal_defect() <= 2e-9

    def test_large_epsilon_product_coupling(self):
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 0.7))
        mu1 = uniform(P(0.0, 0.3), P(0.0, 1.0))
        plan = schrodinger(params, 10.0, mu0, mu1)
        prod = np.outer(mu0.weights, mu1.weights)
        assert np.max(np.abs(plan.matrix - prod)) <= 1e-2

    def test_nonconvergence_reported(self, monkeypatch):
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 2.0))
        mu1 = uniform(P(0.0, 1.0), P(0.0, 3.0))
        monkeypatch.setattr(stickybm.transport, "_MAX_ITER", 3)
        with pytest.raises(TransportConvergenceError) as err:
            schrodinger(params, 0.05, mu0, mu1)
        assert err.value.marginal_error > 0

    def test_newton_step_with_no_acceptable_length_returns_the_potentials(self):
        # From a plan of 1e-200 entries with uniform marginals the Newton
        # step is about 1e200 long, and every one of the _HALVINGS lengths
        # overflows the dual: the step is given up, silently.
        pi, a = np.full((3, 3), 1e-200), np.full(3, 1.0 / 3.0)
        alpha, beta = np.zeros(3), np.zeros(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stickybm.transport._newton_step(pi, a, a, alpha, beta)
        assert got[0] is alpha and got[1] is beta

    def test_small_epsilon_stays_finite(self):
        # kernel entries span hundreds of orders of magnitude at eps = 1e-3
        # and the entropic optimum is numerically deterministic: the
        # log-domain iteration must not overflow, and Newton must meet the
        # tolerance on its own, where plain Sinkhorn stalls near 1e-5.
        params = ModelParams(4.0, 1.0)
        mu0 = uniform(P(0.0, 0.0), P(0.0, 1.5))
        mu1 = uniform(P(0.0, 0.8), P(0.0, 2.75))
        plan = schrodinger(params, 1e-3, mu0, mu1)
        assert np.isfinite(plan.cost_value)
        assert plan.marginal_defect() < 1e-9
        assert plan.iterations <= 100

    @pytest.mark.parametrize("eps", [0.0025, 1e-3])
    def test_deterministic_optimum_converges_without_rounding(self, eps):
        # plain Sinkhorn needs 1380 sweeps at 0.0025 and stalls near 1e-5 at 1e-3
        plan = schrodinger(ModelParams(4.0, 1.0), eps, *CRIT10)
        assert plan.marginal_defect() < 1e-9
        assert plan.iterations <= 100

    def test_gibbs_kernel_takes_the_costs_gap_rule_in_d3(self, monkeypatch):
        # log K is log_densities at geometry._gap's tangential gaps, which
        # keep a 1e-200 gap that a squared norm rounds to 0.
        params, eps = ModelParams(4.0, 1.0, 3), 0.5
        rng = np.random.default_rng(5)

        def atoms(first, n):
            return (first, *(P(float(rng.choice([0.0, rng.uniform(0, 1)])),
                               *rng.uniform(-1, 1, 2).tolist()) for _ in range(n)))

        mu0, mu1 = uniform(*atoms(P(0.0, 0.0, 0.0), 5)), uniform(*atoms(P(0.3, 1e-200, 0.0), 6))
        seen = []

        def spy(*args):
            seen.append(log_densities(*args))
            return seen[-1]

        monkeypatch.setattr(stickybm.transport, "log_densities", spy)
        schrodinger(params, eps, mu0, mu1)
        diff = mu1.xp()[None, :, :] - mu0.xp()[:, None, :]
        gap = _gap(diff)
        assert gap[0, 0] == 1e-200 and np.linalg.norm(diff, axis=-1)[0, 0] == 0.0
        expected = log_densities(params, SPEC, eps, mu0.x1()[:, None], mu1.x1()[None, :], gap)
        assert len(seen) == 1 and np.array_equal(seen[0], expected)

    @pytest.mark.parametrize("fixture", [CRIT10, MIXED], ids=["criterion10", "mixed"])
    @pytest.mark.parametrize("eps", [0.04, 0.01])
    def test_matches_plain_sinkhorn_fixed_point(self, fixture, eps):
        params = ModelParams(4.0, 1.0)
        mu0, mu1 = fixture
        plan = schrodinger(params, eps, mu0, mu1)
        gap = np.abs(mu1.xp()[None, :, 0] - mu0.xp()[:, None, 0])
        log_k = log_densities(params, SPEC, eps, mu0.x1()[:, None], mu1.x1()[None, :], gap)
        ref = plain_sinkhorn_plan(log_k, np.asarray(mu0.weights), np.asarray(mu1.weights))
        ref_value = eps * float(np.sum(ref * (np.log(ref) - log_k)))
        assert np.max(np.abs(plan.matrix - ref)) <= 1e-8
        assert plan.cost_value == pytest.approx(ref_value, abs=1e-8)


class TestGammaLimit:
    def test_identical_measures(self):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0), P(0.0, 0.5))
        res = gamma_limit_experiment(params, mu, mu, (0.04, 0.02, 0.01))
        assert res.kantorovich_value == 0.0
        assert abs(res.rows[-1].entropic_value) < abs(res.rows[0].entropic_value) + 1e-9
        assert abs(res.rows[-1].entropic_value) < 0.05

    def test_boundary_fixture_gap_shrinks(self):
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        res = gamma_limit_experiment(params, src, tgt, (0.04, 0.02, 0.01))
        assert res.kantorovich_value == pytest.approx(0.125, rel=1e-12)
        assert res.gaps_shrink
        assert res.rows[0].gap / res.rows[-1].gap >= 2.0
        # Gamma-liminf content: the positive part of (C - C_eps) vanishes
        # along decreasing epsilon (the raw convention sits below C by
        # O(eps log 1/eps) prefactor terms at finite eps).
        viol = [max(res.kantorovich_value - r.entropic_value, 0.0) for r in res.rows]
        assert viol[-1] < viol[0]
        assert viol[-1] <= abs(res.gap_slope) * 0.01 * math.log(1 / 0.01) + 1e-9

    @pytest.mark.parametrize("fixture", [CRIT10, MIXED], ids=["criterion10", "mixed"])
    def test_warm_starts_match_cold_solves_in_fewer_iterations(self, fixture, monkeypatch):
        # Each epsilon after the first starts from the previous potential
        # beta, scaled by eps_prev / eps; it converges to the cold solve's
        # value within the marginal tolerance, in fewer iterations.
        params, eps = ModelParams(4.0, 1.0), (0.04, 0.02, 0.01)
        starts = []
        solve = stickybm.transport.schrodinger

        def spy(*args, _beta=None):
            starts.append(_beta)
            return solve(*args, _beta=_beta)

        monkeypatch.setattr(stickybm.transport, "schrodinger", spy)
        res = gamma_limit_experiment(params, *fixture, eps)
        assert starts[0] is None and all(start is not None for start in starts[1:])
        for k, row in enumerate(res.rows):
            cold = solve(params, row.epsilon, *fixture)
            assert row.entropic_value == pytest.approx(cold.cost_value, rel=1e-9, abs=0.0)
            assert (row.iterations == cold.iterations if k == 0
                    else row.iterations < cold.iterations)

    def test_warm_start_from_the_last_converged_epsilon(self, monkeypatch):
        # A failed solve leaves the next epsilon to start from the last
        # converged one, scaled from its epsilon.
        params, (src, tgt) = ModelParams(4.0, 1.0), CRIT10
        solve, starts = stickybm.transport.schrodinger, []

        def fail_at_002(params, eps, mu0, mu1, _beta=None):
            starts.append((eps, _beta))
            if eps == 0.02:
                raise TransportConvergenceError("refused", 1.0)
            return solve(params, eps, mu0, mu1, _beta=_beta)

        monkeypatch.setattr(stickybm.transport, "schrodinger", fail_at_002)
        res = gamma_limit_experiment(params, src, tgt, (0.04, 0.02, 0.01))
        assert res.failed_epsilons == (0.02,)
        first = solve(params, 0.04, src, tgt)
        assert np.array_equal(starts[2][1], first._beta * (0.04 / 0.01))

    def test_no_converged_epsilon_raises(self, monkeypatch):
        # With every epsilon failing there is no gap to fit; a slope read off
        # zero rows would be 0.
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        monkeypatch.setattr(stickybm.transport, "_MAX_ITER", 3)
        with pytest.raises(TransportConvergenceError) as err:
            gamma_limit_experiment(params, src, tgt, (0.04, 0.02, 0.01))
        assert "[0.04, 0.02, 0.01]" in str(err.value)
        assert err.value.marginal_error > 0

    def test_plan_concentrates_near_exact_support(self):
        params = ModelParams(4.0, 1.0)
        src, tgt = CRIT10
        exact = kantorovich(params, src, tgt)
        entropic = schrodinger(params, 0.0025, src, tgt)
        off_support = float(np.sum(entropic.matrix[exact.matrix <= 1e-12]))
        assert off_support <= 0.1
        assert entropic.marginal_defect() <= 1e-9

    def test_repeated_epsilon_rejected_before_any_solve(self, monkeypatch):
        # A repeated eps would solve the same problem twice, and its zero
        # step would read as a shrinking gap.
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the epsilons were checked")

        monkeypatch.setattr(stickybm.transport, "kantorovich", refuse)
        monkeypatch.setattr(stickybm.transport, "schrodinger", refuse)
        mu = uniform(P(0.0, 0.0), P(0.0, 0.5))
        for eps in [(0.04, 0.04), (0.04, 0.02, 0.04), (0.01, 1e-2)]:
            with pytest.raises(ValueError, match="distinct"):
                gamma_limit_experiment(ModelParams(4.0, 1.0), mu, mu, eps)

    def test_epsilon_floor(self):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0))
        with pytest.raises(ValueError):
            gamma_limit_experiment(params, mu, mu, (0.01, 1e-4))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        params = ModelParams(4.0, 1.0)
        mu = uniform(P(0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            schrodinger(params, eps, mu, mu)
        with pytest.raises(ValueError, match="finite"):
            gamma_limit_experiment(params, mu, mu, (0.04, eps, 0.01))


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

    def test_time_outside_zero_to_one_rejected(self):
        params = ModelParams(2.0, 1.0)
        plan = kantorovich(params, uniform(P(0.0, 0.0)), uniform(P(0.0, 2.0)))
        with pytest.raises(ValueError, match=r"interpolation time must lie in \[0, 1\]"):
            displacement_interpolation(params, plan, 1.5)

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
        t_break = g.path.times[1]
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_per_cell_reference(self, d):
        # One batched pass over the support gives the per-cell loop's atoms
        # and weights bit for bit, at 0, 1, interior times and the cells'
        # own knot times, on assignment and linear-program plans.
        rng = np.random.default_rng(17 + d)

        def measure(n, shift, equal):
            x1 = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 2.0, n))
            x1[rng.random(n) < 0.1] = 1e-300
            w = np.ones(n) if equal else rng.uniform(0.5, 1.5, n)
            return DiscreteMeasure(tuple(HalfSpacePoint(u, tuple(v)) for u, v in
                                         zip(x1, rng.uniform(-3, 3, (n, d - 1)) + shift)),
                                   tuple(w / w.sum()))

        for a in (0.5, 1.0, 1.5, 4.0, 9.0):
            params = ModelParams(a, 1.0, d)
            for equal in (True, False):
                mu0, mu1 = measure(16, 0.0, equal), measure(16 if equal else 11, 0.7, equal)
                plan = kantorovich(params, mu0, mu1)
                cells = list(zip(*np.nonzero(plan.matrix > 1e-15)))[:6]
                own = {t for i, j in cells
                       for t in reference_geodesic(params, mu0.atoms[i], mu1.atoms[j]).path.times}
                for t in sorted({0.0, 0.1, 0.37, 0.5, 0.9, 1.0} | own):
                    mid = displacement_interpolation(params, plan, t)
                    atoms, weights = reference_displacement_interpolation(params, plan, t)
                    assert [point_bits(p) for p in mid.atoms] == [point_bits(p) for p in atoms]
                    assert mid.weights == weights


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
                assert cost(params, x, g.path.at(t)) == pytest.approx(t * t * c, rel=1e-12)
