"""Discrete optimal transport with the intrinsic sticky cost.

Exact Kantorovich plans (the transportation linear program, solved by the
HiGHS dual simplex), entropic plans by Sinkhorn-Newton against the
sticky transition kernel at horizon eps, the entropic-to-deterministic gap
experiment, and displacement interpolation along the explicit geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _check_dim, cost_batch, geodesic
from .kernel import log_densities
from .quadrature import QuadratureSpec, logsumexp

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "TransportConvergenceError",
    "cost_matrix",
    "kantorovich",
    "schrodinger",
    "GammaRow",
    "GammaLimitResult",
    "gamma_limit_experiment",
    "displacement_interpolation",
]

_MAX_ATOMS = 512


class TransportConvergenceError(RuntimeError):
    """Sinkhorn-Newton failed to meet the marginal tolerance within max_iter."""

    def __init__(self, message: str, marginal_error: float):
        super().__init__(message)
        self.marginal_error = marginal_error


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms in the closed half-space, weights summing to one."""

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if len(atoms) != len(weights) or not atoms:
            raise ValueError("need matching, nonempty atoms and weights")
        if not all(0 < w < math.inf for w in weights):
            raise ValueError("weights must be positive and finite")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        for p in atoms:
            if not isinstance(p, HalfSpacePoint):
                raise TypeError("atoms must be HalfSpacePoint instances")

    @property
    def size(self) -> int:
        return len(self.atoms)

    def x1(self) -> np.ndarray:
        return np.array([p.x1 for p in self.atoms])

    def xp(self) -> np.ndarray:
        return np.array([p.xp for p in self.atoms])


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix with value and (for entropic plans) log potentials."""

    matrix: np.ndarray
    cost_value: float
    source: DiscreteMeasure
    target: DiscreteMeasure
    dual_potentials: tuple = None
    iterations: int = None
    log_normalization: float = None

    def marginal_defect(self) -> float:
        """Largest deviation of a row or column sum from its marginal weight."""
        return _marginal_error(self.matrix, np.asarray(self.source.weights),
                               np.asarray(self.target.weights))


def _marginal_error(pi: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return max(float(np.abs(pi.sum(axis=1) - a).max()), float(np.abs(pi.sum(axis=0) - b).max()))


def cost_matrix(params: ModelParams, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> np.ndarray:
    for p in mu0.atoms + mu1.atoms:
        _check_dim(params, p)
    x1 = mu0.x1()[:, None]
    y1 = mu1.x1()[None, :]
    xp = mu0.xp()[:, None, :]
    yp = mu1.xp()[None, :, :]
    return np.asarray(cost_batch(params.a, x1, xp, y1, yp), dtype=float)


# ---------------------------------------------------------------------------
# Exact solver: HiGHS dual simplex
# ---------------------------------------------------------------------------

def kantorovich(params: ModelParams, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Exact optimal plan for the intrinsic cost.

    Solves the transportation linear program, with one equality row per
    source and per target marginal, by the HiGHS dual simplex.  The plan is a
    basic solution, so uniform equal-size marginals give a permutation plan
    with entries 1/n.  ``dual_potentials`` are the equality multipliers
    ``(u, v)``, with ``u_i + v_j <= C_ij`` and equality on the plan's support.
    Raises ``RuntimeError`` with the solver's message if HiGHS fails.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    if mu0.size > _MAX_ATOMS or mu1.size > _MAX_ATOMS:
        raise ValueError(f"instances are limited to {_MAX_ATOMS} atoms per side")
    costm = cost_matrix(params, mu0, mu1)
    n, m = costm.shape
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.tile(np.arange(n * m), 2)
    a_eq = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    res = linprog(costm.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu0.weights, mu1.weights]),
                  bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"exact transport solve failed: {res.message}")
    flow = res.x.reshape(n, m)
    duals = res.eqlin.marginals
    value = float(np.sum(flow * costm))
    return TransportPlan(flow, value, mu0, mu1, dual_potentials=(duals[:n], duals[n:]))


# ---------------------------------------------------------------------------
# Entropic solver
# ---------------------------------------------------------------------------

_WARM = 20          # log-domain Sinkhorn sweeps before the first Newton step
_ARMIJO = 1e-4      # sufficient-increase constant of the Newton line search
_HALVINGS = 40      # backtracking halvings before a Newton step is given up


def _check_sinkhorn_options(max_iter: int, tol: float) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _sweep(log_k, log_a, log_b, beta):
    """One log-domain Sinkhorn sweep: alpha fits the row marginals to beta,
    then beta fits the column marginals to the new alpha."""
    alpha = log_a - logsumexp(log_k + beta[None, :], axis=1)
    return alpha, log_b - logsumexp(log_k + alpha[:, None], axis=0)


def _newton_step(pi, a, b, alpha, beta):
    """One damped Newton step on the dual ``<alpha, a> + <beta, b> - sum pi``.

    The Jacobian of the marginals is ``[[diag(row), pi], [pi^T, diag(col)]]``;
    holding ``beta[-1]`` fixed removes its constant null direction.  The step
    length is halved until the dual rises by at least ``_ARMIJO`` times the
    first-order gain.  The rise is ``t <delta, (a, b)> - sum pi expm1(t shift)``,
    accurate even where it is far below the dual's own magnitude, and a
    trial step that overflows reads ``-inf`` or ``nan`` and is rejected.
    Returns the potentials unchanged if no length is accepted.
    """
    n = pi.shape[0]
    row, col = pi.sum(axis=1), pi.sum(axis=0)
    grad = np.concatenate([a - row, b - col])[:-1]
    jac = np.block([[np.diag(row), pi], [pi.T, np.diag(col)]])[:-1, :-1]
    step = np.linalg.lstsq(jac, grad, rcond=None)[0]
    d_alpha, d_beta = step[:n], np.append(step[n:], 0.0)
    slope = float(grad @ step)
    linear = float(d_alpha @ a + d_beta @ b)
    shift = d_alpha[:, None] + d_beta[None, :]
    t = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_HALVINGS):
            if t * linear - float(np.sum(pi * np.expm1(t * shift))) >= _ARMIJO * t * slope:
                return alpha + t * d_alpha, beta + t * d_beta
            t *= 0.5
    return alpha, beta


def schrodinger(params: ModelParams, spec: QuadratureSpec, epsilon: float,
                mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                max_iter: int = 20000, tol: float = 1e-9) -> TransportPlan:
    """Entropy minimization against the eps-horizon kernel, by Sinkhorn-Newton.

    The Gibbs weights are log densities w.r.t. the stationary measure,
    ``log K_ij = log q_eps(x_i, y_j)``, and the plan is
    ``pi_ij = exp(alpha_i + log K_ij + beta_j)`` in the dual potentials, so
    kernel entries spanning hundreds of orders of magnitude at eps ~ 1e-3
    are harmless.  ``_WARM`` log-domain Sinkhorn sweeps are followed by
    Newton steps on the dual with an Armijo line search, each followed by
    one polishing sweep (Brauer, Clason, Lorenz and Wirth, *A Sinkhorn-Newton
    method for entropic optimal transport*, arXiv:1710.06635).  Near the
    optimum Newton converges quadratically, where plain scaling on a
    numerically deterministic optimum decays only harmonically.

    ``iterations`` counts the warm-start sweeps plus the Newton steps (each
    with its polishing sweep) and is capped by ``max_iter``.  The run stops
    once the full plan's largest marginal error is below ``tol``;
    ``marginal_defect()`` is that error of the returned plan, which is not
    rounded or otherwise repaired.  Raises
    :class:`TransportConvergenceError` when the cap is reached first.

    ``cost_value`` is ``eps * sum pi log(pi / K)``, the normalization-free
    quantity whose small-eps limit is the Kantorovich value;
    ``log_normalization`` reports ``eps * log sum K`` separately so the
    relative entropy against the renormalized probability matrix is
    ``cost_value + log_normalization`` (in cost units).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    _check_sinkhorn_options(max_iter, tol)
    for p in mu0.atoms + mu1.atoms:
        _check_dim(params, p)
    gap = np.linalg.norm(mu1.xp()[None, :, :] - mu0.xp()[:, None, :], axis=-1)
    # log mu-densities: the interior density, which on the boundary is the
    # boundary density times the atom weight 2 theta.
    log_k = log_densities(params, spec, epsilon, mu0.x1()[:, None], mu1.x1()[None, :],
                          gap).interior
    a, b = np.asarray(mu0.weights), np.asarray(mu1.weights)
    log_a, log_b = np.log(a), np.log(b)
    alpha, beta = np.zeros(mu0.size), np.zeros(mu1.size)
    for it in range(1, max_iter + 1):
        if it > _WARM:
            alpha, beta = _newton_step(pi, a, b, alpha, beta)
        alpha, beta = _sweep(log_k, log_a, log_b, beta)
        pi = np.exp(alpha[:, None] + log_k + beta[None, :])
        err = _marginal_error(pi, a, b)
        if err < tol:
            break
    else:
        raise TransportConvergenceError(
            f"Sinkhorn-Newton did not reach tol={tol} in {max_iter} iterations "
            f"(marginal error {err:.3e})", err)
    value = epsilon * float(np.sum(pi * (alpha[:, None] + beta[None, :])))
    return TransportPlan(pi, value, mu0, mu1, dual_potentials=(alpha, beta),
                         iterations=it, log_normalization=epsilon * logsumexp(log_k))


# ---------------------------------------------------------------------------
# Gamma-limit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRow:
    """One converged eps; ``iterations`` is :func:`schrodinger`'s count of
    warm-start sweeps plus Newton steps."""

    epsilon: float
    entropic_value: float
    log_normalization: float
    gap: float
    iterations: int


@dataclass(frozen=True)
class GammaLimitResult:
    kantorovich_value: float
    rows: tuple
    gap_slope: float
    gaps_shrink: bool
    failed_epsilons: tuple


def gamma_limit_experiment(params: ModelParams, spec: QuadratureSpec,
                           mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                           epsilons, max_iter: int = 20000,
                           tol: float = 1e-9) -> GammaLimitResult:
    """Entropic values against the exact value across decreasing eps.

    Reports the gap per eps, whether the gap shrinks monotonically toward
    the smallest eps, and the coefficient of an ``eps log(1/eps)`` fit to
    the gaps.  Raises :class:`TransportConvergenceError` when Sinkhorn-Newton
    fails at every eps, since there is then no gap to fit.
    """
    eps_list = [float(e) for e in epsilons]
    if not all(0.0 < e < math.inf for e in eps_list):
        raise ValueError(f"epsilons must be positive finite numbers, got {eps_list}")
    eps_list.sort(reverse=True)
    if eps_list[-1] < 1e-3:
        raise ValueError("smallest epsilon must be at least 1e-3")
    _check_sinkhorn_options(max_iter, tol)
    exact = kantorovich(params, mu0, mu1)
    rows = []
    failed = []
    errors = []
    for eps in eps_list:
        try:
            plan = schrodinger(params, spec, eps, mu0, mu1, max_iter=max_iter, tol=tol)
        except TransportConvergenceError as exc:
            failed.append(eps)
            errors.append(exc.marginal_error)
            continue
        rows.append(GammaRow(eps, plan.cost_value, plan.log_normalization,
                             abs(plan.cost_value - exact.cost_value), plan.iterations))
    if not rows:
        raise TransportConvergenceError(
            f"Sinkhorn-Newton did not converge at any epsilon {failed}; no gap to fit "
            f"(smallest marginal error {min(errors):.3e})", min(errors))
    gaps = np.array([r.gap for r in rows])
    eps_used = np.array([r.epsilon for r in rows])
    design = (eps_used * np.log(1.0 / eps_used))[:, None]
    slope, *_ = np.linalg.lstsq(design, gaps, rcond=None)
    shrink = bool(np.all(np.diff(gaps) <= 1e-12)) if gaps.size > 1 else False
    return GammaLimitResult(exact.cost_value, tuple(rows), float(slope[0]), shrink,
                            tuple(failed))


def displacement_interpolation(params: ModelParams, plan: TransportPlan,
                               t: float) -> DiscreteMeasure:
    """Push every plan cell along its geodesic to time t.

    Evaluation respects the per-segment durations of the geodesics, so the
    interpolant of a boundary pair stays on the boundary with x1 exactly 0.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("interpolation time must lie in [0, 1]")
    atoms = []
    weights = []
    for i, xi in enumerate(plan.source.atoms):
        for j, yj in enumerate(plan.target.atoms):
            mass = float(plan.matrix[i, j])
            if mass <= 1e-15:
                continue
            gamma = geodesic(params, xi, yj)
            atoms.append(gamma.point_at(t))
            weights.append(mass)
    total = sum(weights)
    weights = [w / total for w in weights]
    return DiscreteMeasure(tuple(atoms), tuple(weights))
