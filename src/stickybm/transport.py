"""Discrete optimal transport with the intrinsic sticky cost.

Exact Kantorovich plans (the transportation linear program, solved by the
HiGHS dual simplex), entropic plans by log-domain Sinkhorn against the
sticky transition kernel at horizon eps, the entropic-to-deterministic gap
experiment, and displacement interpolation along the explicit geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _check_dim, cost_batch, geodesic
from .kernel import log_densities
from .quadrature import QuadratureSpec

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
    """Sinkhorn failed to meet the marginal tolerance within max_iter."""

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
    marginal_error: float = None
    log_normalization: float = None

    def marginal_defect(self) -> float:
        row = np.abs(self.matrix.sum(axis=1) - np.asarray(self.source.weights)).max()
        col = np.abs(self.matrix.sum(axis=0) - np.asarray(self.target.weights)).max()
        return float(max(row, col))


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

def _lse(mat, axis):
    m = np.max(mat, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(mat - m), axis=axis, keepdims=True))).squeeze(axis)


def _round_to_polytope(pi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project a nearly feasible plan onto the transportation polytope.

    Row/column scalings capped at one followed by a rank-one mass repair;
    the output has exact marginals and nonnegative entries.
    """
    row = pi.sum(axis=1)
    pi = pi * np.minimum(a / np.maximum(row, 1e-300), 1.0)[:, None]
    col = pi.sum(axis=0)
    pi = pi * np.minimum(b / np.maximum(col, 1e-300), 1.0)[None, :]
    err_r = a - pi.sum(axis=1)
    err_c = b - pi.sum(axis=0)
    deficit = err_r.sum()
    if deficit > 0:
        pi = pi + np.outer(np.maximum(err_r, 0.0), np.maximum(err_c, 0.0)) / deficit
    return pi


def _check_sinkhorn_options(max_iter: int, tol: float) -> None:
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def schrodinger(params: ModelParams, spec: QuadratureSpec, epsilon: float,
                mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                max_iter: int = 20000, tol: float = 1e-9) -> TransportPlan:
    """Entropy minimization against the eps-horizon kernel, log-domain Sinkhorn.

    The Gibbs weights are log densities w.r.t. the stationary measure,
    ``log K_ij = log q_eps(x_i, y_j)``, and the iteration keeps everything in
    the log domain (the fully absorbed form of stabilized scaling), so
    kernel entries spanning hundreds of orders of magnitude at eps ~ 1e-3
    are harmless.  When the entropic optimum is numerically deterministic
    the marginal error of plain scaling decays only harmonically; a nearly
    feasible iterate (error below sqrt(tol)) is then finished by rounding
    onto the transportation polytope, which restores exact marginals.
    ``marginal_error`` reports the pre-rounding iteration error.

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
    n, m = mu0.size, mu1.size
    gap = np.linalg.norm(mu1.xp()[None, :, :] - mu0.xp()[:, None, :], axis=-1)
    # log mu-densities: the interior density, which on the boundary is the
    # boundary density times the atom weight 2 theta.
    log_k = log_densities(params, spec, epsilon, mu0.x1()[:, None], mu1.x1()[None, :],
                          gap).interior
    log_a = np.log(np.asarray(mu0.weights))
    log_b = np.log(np.asarray(mu1.weights))
    alpha = np.zeros(n)
    beta = np.zeros(m)
    err = math.inf
    for it in range(1, max_iter + 1):
        alpha = log_a - _lse(log_k + beta[None, :], axis=1)
        beta = log_b - _lse(log_k + alpha[:, None], axis=0)
        if it % 5 == 0 or it == max_iter:
            log_pi = alpha[:, None] + log_k + beta[None, :]
            row = np.exp(_lse(log_pi, axis=1))
            col = np.exp(_lse(log_pi, axis=0))
            err = max(float(np.abs(row - np.exp(log_a)).max()),
                      float(np.abs(col - np.exp(log_b)).max()))
            if err < tol:
                break
    log_pi = alpha[:, None] + log_k + beta[None, :]
    pi = np.exp(log_pi)
    if err >= tol:
        if err > math.sqrt(tol):
            raise TransportConvergenceError(
                f"Sinkhorn did not reach tol={tol} in {max_iter} iterations "
                f"(marginal error {err:.3e})", err)
        pi = _round_to_polytope(pi, np.exp(log_a), np.exp(log_b))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pi > 0, np.log(np.where(pi > 0, pi, 1.0)) - log_k, 0.0)
    value = epsilon * float(np.sum(pi * ratio))
    log_z = float(_lse(log_k.ravel(), axis=0))
    return TransportPlan(pi, value, mu0, mu1, dual_potentials=(alpha, beta),
                         iterations=it, marginal_error=err,
                         log_normalization=epsilon * log_z)


# ---------------------------------------------------------------------------
# Gamma-limit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRow:
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
    the gaps.  Raises :class:`TransportConvergenceError` when Sinkhorn fails
    at every eps, since there is then no gap to fit.
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
            f"Sinkhorn did not converge at any epsilon {failed}; no gap to fit "
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
