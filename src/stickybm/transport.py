"""Discrete optimal transport with the intrinsic sticky cost.

Exact Kantorovich plans (an assignment problem for two uniform measures of
the same size, the transportation linear program solved by HiGHS through
``scipy.optimize.milp`` with presolve off otherwise), entropic plans by
Sinkhorn-Newton against the sticky transition kernel at horizon eps (default
:class:`QuadratureSpec`), the entropic-to-deterministic gap experiment, and
displacement interpolation along the explicit geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (HalfSpacePoint, ModelParams, _check_dim, _gap, _geodesics,
                       _polyline_at, cost_batch)
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
    """Sinkhorn-Newton failed to bring the marginal error below ``_TOL`` within
    ``_MAX_ITER`` iterations."""

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
    """Coupling matrix with its value; entropic plans also carry their
    iteration count and log normalization, and their column potential
    ``_beta``, from which :func:`gamma_limit_experiment` starts the next
    epsilon."""

    matrix: np.ndarray
    cost_value: float
    source: DiscreteMeasure
    target: DiscreteMeasure
    iterations: int = None
    log_normalization: float = None
    _beta: np.ndarray = field(default=None, repr=False, compare=False)

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
# Exact solver: assignment or HiGHS linear program
# ---------------------------------------------------------------------------

def kantorovich(params: ModelParams, mu0: DiscreteMeasure, mu1: DiscreteMeasure) -> TransportPlan:
    """Exact optimal plan for the intrinsic cost.

    When both measures have the same number of atoms and each measure's
    weights are all the same float, the transportation linear program is an
    assignment problem: by Birkhoff-von Neumann some optimal plan is a
    permutation, so ``scipy.optimize.linear_sum_assignment`` (a
    Jonker-Volgenant solver) finds an exact optimum, returned as that
    permutation with the common source weight in each of its cells.  Any
    other pair is solved as the linear program, with one equality row per
    source and per target marginal, by HiGHS through ``milp``, its thin
    front end, with presolve off: presolve finds nothing to remove in a
    transportation program, and skipping it and ``linprog``'s input checks
    cut a call by 22% to 50% on 10 x 10 to 256 x 200 instances.
    Raises ``RuntimeError`` with the solver's message if HiGHS fails.
    """
    from scipy.optimize import LinearConstraint, linear_sum_assignment, milp
    from scipy.sparse import csc_array

    if mu0.size > _MAX_ATOMS or mu1.size > _MAX_ATOMS:
        raise ValueError(f"instances are limited to {_MAX_ATOMS} atoms per side")
    costm = cost_matrix(params, mu0, mu1)
    n, m = costm.shape
    w0, w1 = mu0.weights[0], mu1.weights[0]
    if n == m and all(w == w0 for w in mu0.weights) and all(w == w1 for w in mu1.weights):
        flow = np.zeros((n, m))
        flow[linear_sum_assignment(costm)] = w0
    else:
        # column i*m + j, the cell (i, j), has a one in source row i and in
        # target row n + j
        rows = np.column_stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
        a_eq = csc_array((np.ones(2 * n * m), rows.ravel(), np.arange(0, 2 * n * m + 1, 2)),
                         shape=(n + m, n * m))
        marginals = np.concatenate([mu0.weights, mu1.weights])
        res = milp(costm.ravel(), constraints=LinearConstraint(a_eq, marginals, marginals),
                   options={"presolve": False})
        if res.status != 0:
            raise RuntimeError(f"exact transport solve failed: {res.message}")
        flow = res.x.reshape(n, m)
    return TransportPlan(flow, float(np.sum(flow * costm)), mu0, mu1)


# ---------------------------------------------------------------------------
# Entropic solver
# ---------------------------------------------------------------------------

_WARM = 20          # log-domain Sinkhorn sweeps before a cold start's first Newton step
_ARMIJO = 1e-4      # sufficient-increase constant of the Newton line search
_HALVINGS = 40      # backtracking halvings before a Newton step is given up
_MAX_ITER = 20000   # warm-up sweeps plus Newton steps before a solve is given up
_TOL = 1e-9         # largest marginal error of a converged plan


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


def schrodinger(params: ModelParams, epsilon: float, mu0: DiscreteMeasure,
                mu1: DiscreteMeasure, _beta=None) -> TransportPlan:
    """Entropy minimization against the eps-horizon kernel, by Sinkhorn-Newton.

    The Gibbs weights are log densities w.r.t. the stationary measure,
    ``log K_ij = log q_eps(x_i, y_j)`` at the default :class:`QuadratureSpec`,
    and the plan is ``pi_ij = exp(alpha_i + log K_ij + beta_j)`` in the dual
    potentials, so kernel entries spanning hundreds of orders of magnitude at
    eps ~ 1e-3 are harmless.  On a cold start, ``_WARM`` log-domain Sinkhorn
    sweeps are followed by Newton steps on the dual with an Armijo line search, each followed by
    one polishing sweep (Brauer, Clason, Lorenz and Wirth, *A Sinkhorn-Newton
    method for entropic optimal transport*, arXiv:1710.06635).  Near the
    optimum Newton converges quadratically, where plain scaling on a
    numerically deterministic optimum decays only harmonically.

    A solve starts cold, from zero potentials, unless it is given the column
    potential ``_beta`` to start from, as :func:`gamma_limit_experiment`
    does from its previous epsilon.  A warm start fits its potentials with
    one sweep, not ``_WARM``, before its first Newton step.

    ``iterations`` counts the sweeps before the first Newton step plus the
    Newton steps (each with its polishing sweep) and is capped by
    ``_MAX_ITER`` (20 000).  The run
    stops once the full plan's largest marginal error is below ``_TOL`` (1e-9);
    ``marginal_defect()`` is that error of the returned plan, which is not
    rounded or otherwise repaired.  Raises
    :class:`TransportConvergenceError` when the cap is reached first.

    ``cost_value`` is ``eps * sum pi log(pi / K)``, the normalization-free
    quantity whose small-eps limit is the Kantorovich value;
    ``log_normalization`` reports ``eps * log sum K`` separately so the
    relative entropy against the renormalized probability matrix is
    ``cost_value + log_normalization`` (in cost units).

    The 1e-9 stop bounds the plan's largest marginal error, not the error
    of ``cost_value``: a cold and a warm solve of the same problem stop at
    different plans, and their values can differ by about 1e-9 relative
    (1.8e-9 measured at eps = 0.02 on a 4-atom and a 3-atom measure).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a positive finite number, got {epsilon!r}")
    for p in mu0.atoms + mu1.atoms:
        _check_dim(params, p)
    gap = _gap(mu1.xp()[None, :, :] - mu0.xp()[:, None, :])
    # the kernel's log mu-densities between the atoms
    log_k = log_densities(params, QuadratureSpec(), epsilon, mu0.x1()[:, None],
                          mu1.x1()[None, :], gap)
    a, b = np.asarray(mu0.weights), np.asarray(mu1.weights)
    log_a, log_b = np.log(a), np.log(b)
    alpha = np.zeros(mu0.size)
    beta, warm = (np.zeros(mu1.size), _WARM) if _beta is None else (_beta, 1)
    for it in range(1, _MAX_ITER + 1):
        if it > warm:
            alpha, beta = _newton_step(pi, a, b, alpha, beta)
        alpha, beta = _sweep(log_k, log_a, log_b, beta)
        pi = np.exp(alpha[:, None] + log_k + beta[None, :])
        err = _marginal_error(pi, a, b)
        if err < _TOL:
            break
    else:
        raise TransportConvergenceError(
            f"Sinkhorn-Newton did not reach tol={_TOL} in {_MAX_ITER} iterations "
            f"(marginal error {err:.3e})", err)
    value = epsilon * float(np.sum(pi * (alpha[:, None] + beta[None, :])))
    return TransportPlan(pi, value, mu0, mu1, iterations=it,
                         log_normalization=epsilon * logsumexp(log_k), _beta=beta)


# ---------------------------------------------------------------------------
# Gamma-limit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRow:
    """One converged eps; ``iterations`` is :func:`schrodinger`'s count of
    sweeps before the first Newton step plus Newton steps."""

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


def gamma_limit_experiment(params: ModelParams, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                           epsilons) -> GammaLimitResult:
    """Entropic values against the exact value across decreasing eps.

    Reports the gap per eps, whether the gap shrinks monotonically toward
    the smallest eps, and the coefficient of an ``eps log(1/eps)`` fit to
    the gaps.  Each eps is one :func:`schrodinger` solve, to its fixed
    marginal tolerance, in decreasing order of eps.  Every solve after the
    first converged one starts warm from that solve's column potential
    ``beta``, scaled by ``eps_prev / eps``: the potentials in cost units,
    ``eps * beta``, converge as eps falls (Schmitzer, *Stabilized sparse
    scaling algorithms for entropy regularized transport problems*, SIAM J.
    Sci. Comput. 2019), so the warm start skips the cold start's ``_WARM``
    sweeps and most of its Newton steps.  Raises ``ValueError``, before any solve, unless
    ``epsilons`` holds one or more distinct positive finite numbers, the
    smallest at least 1e-3.  Raises :class:`TransportConvergenceError` when
    Sinkhorn-Newton fails at every eps, since there is then no gap to fit.
    """
    eps_list = [float(e) for e in epsilons]
    distinct = 0 < len(set(eps_list)) == len(eps_list)
    if not distinct or not all(0.0 < e < math.inf for e in eps_list):
        raise ValueError(f"epsilons must be one or more distinct positive finite numbers, "
                         f"got {eps_list}")
    eps_list.sort(reverse=True)
    if eps_list[-1] < 1e-3:
        raise ValueError("smallest epsilon must be at least 1e-3")
    exact = kantorovich(params, mu0, mu1)
    rows = []
    failed = []
    errors = []
    warm = None     # (eps, beta) of the last converged solve
    for eps in eps_list:
        start = None if warm is None else warm[1] * (warm[0] / eps)
        try:
            plan = schrodinger(params, eps, mu0, mu1, _beta=start)
        except TransportConvergenceError as exc:
            failed.append(eps)
            errors.append(exc.marginal_error)
            continue
        warm = (eps, plan._beta)
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
    """Push every cell of the plan's support along its geodesic to time t.

    The support is the cells with mass above 1e-15, visited in row-major
    order, one atom each, weighted by the cell's share of the support's
    mass.  All cells go through one batched geodesic pass
    (``geometry._geodesics``) and one polyline read at t
    (``geometry._polyline_at``), the rule that :func:`geometry.geodesic`
    and ``Path.at`` also run, so each atom has the bits of its scalar
    geodesic; the interpolant of a boundary pair stays on the boundary
    with x1 exactly 0.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("interpolation time must lie in [0, 1]")
    for p in plan.source.atoms + plan.target.atoms:
        _check_dim(params, p)
    rows, cols = np.nonzero(plan.matrix > 1e-15)
    g = _geodesics(params.a, plan.source.x1()[rows], plan.source.xp()[rows],
                   plan.target.x1()[cols], plan.target.xp()[cols])
    points = _polyline_at(g.times, g.knots, t).tolist()
    weights = plan.matrix[rows, cols].tolist()
    total = sum(weights)
    return DiscreteMeasure(tuple(HalfSpacePoint(x1, tuple(xp)) for x1, *xp in points),
                           tuple(w / total for w in weights))
