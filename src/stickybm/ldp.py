"""Numerical verification of the static and path-slicing large deviations.

Probabilities of rare targets under the slowed kernel are computed either by
log-domain quadrature of the transition kernel at horizon eps (the default
:class:`QuadratureSpec`; only :func:`log_target_probability` takes one) or by
Monte Carlo with exact one-step sampling; rates are extracted by fitting

    eps log rho = -rate + beta * eps log(1/eps) + gamma * eps,

the middle term absorbing the Gaussian ``eps^{-d/2}`` prefactors that make
raw two-point slopes converge too slowly.  Reference rates are infima of the
closed-form cost over the target sets.  Over one target the infimum is in
closed form.  Over two or more waypoint targets it is the closed-form lower
bound of the binding target when the geodesic to that target's nearest point
threads the others; otherwise, where the cost is the smaller of two convex
rates on each segment, it is the smallest of a few convex programs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HalfSpacePoint, ModelParams, _check_dim, _gap, _geodesics, _polyline_at,
                       _sliced_sum, _sticky_rate_core, _tangential_gap)
from .geometry import cost  # noqa: F401 -- perfbench traces and asserts the ``ldp.cost`` binding
from .kernel import log_densities
from .quadrature import QuadratureSpec, gauss_legendre, logsumexp
from .simulate import walk

__all__ = [
    "Ball",
    "BoundaryPatch",
    "LdpEstimate",
    "ScanRow",
    "ScanResult",
    "fit_rate",
    "log_target_probability",
    "min_cost_over_target",
    "static_ldp",
    "cone_crossing_value",
    "phase_transition_scan",
    "discrete_waypoint_cost",
    "min_sliced_cost",
    "sliced_ldp",
]


def _tangential_offset(target, xp, centre) -> np.ndarray:
    """``xp - centre``, once the last axis of ``xp`` is checked to hold the
    target's ``dim - 1`` tangential coordinates (a shape check, O(1))."""
    xp = np.asarray(xp)
    if xp.shape[-1:] != (target.dim - 1,):
        raise ValueError(f"coordinates have dimension {1 + sum(xp.shape[-1:])}, "
                         f"target has dimension {target.dim}")
    return xp - np.asarray(centre)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball intersected with the closed half-space."""

    center: HalfSpacePoint
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.dim

    def contains(self, x1, xp):
        """Whether each ``(x1, xp)`` lies in the ball; ``xp`` holds the
        ``dim - 1`` tangential coordinates on its last axis."""
        dp = _tangential_offset(self, xp, self.center.xp)
        d1 = np.asarray(x1) - self.center.x1
        r2 = d1 * d1 + np.sum(np.atleast_2d(dp) ** 2, axis=-1).reshape(np.shape(d1))
        return r2 <= self.radius ** 2


@dataclass(frozen=True)
class BoundaryPatch:
    """Tangential ball on the boundary {y1 = 0}."""

    center_tangential: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(v) for v in np.atleast_1d(self.center_tangential))
        object.__setattr__(self, "center_tangential", center)
        if not all(map(math.isfinite, center)):
            raise ValueError(f"patch center must be finite, got {center}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dim(self) -> int:
        return 1 + len(self.center_tangential)

    def contains(self, x1, xp):
        """Whether each ``(x1, xp)`` lies in the patch, as :meth:`Ball.contains`."""
        dp = _tangential_offset(self, xp, self.center_tangential)
        on_b = np.asarray(x1) == 0.0
        r2 = np.sum(np.atleast_2d(dp) ** 2, axis=-1).reshape(np.shape(on_b))
        return on_b & (r2 <= self.radius ** 2)


@dataclass(frozen=True)
class LdpEstimate:
    """Slope-extraction outcome of every experiment: the fit over the epsilons
    it kept, and the probability at each (exactly ``k / n`` from Monte Carlo)."""

    epsilons: tuple
    log_probs: tuple            # eps * log rho per epsilon
    extrapolated_rate: float
    reference_rate: float
    beta: float
    gamma: float
    probs: tuple
    dropped_epsilons: tuple


def _fit_epsilons(epsilons) -> tuple:
    """Epsilons for fit_rate's three unknowns (at least three, distinct,
    positive, finite) in decreasing order; the i-th draws Monte Carlo stream i."""
    eps = [float(e) for e in epsilons]
    if not all(0.0 < e < math.inf for e in eps) or len(set(eps)) < max(len(eps), 3):
        raise ValueError(f"epsilons must be at least three distinct positive finite "
                         f"numbers, got {eps}")
    return tuple(sorted(eps, reverse=True))


def fit_rate(epsilons, scaled_log_probs):
    """Least-squares fit of eps log rho = -rate + beta eps log(1/eps) + gamma eps."""
    eps = np.asarray(epsilons, dtype=float)
    y = np.asarray(scaled_log_probs, dtype=float)
    design = np.stack([-np.ones_like(eps), eps * np.log(1.0 / eps), eps], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def _estimate(epsilons, reference, log_probs=None, hits=None, n_paths=None) -> LdpEstimate:
    """The one rate fit behind every experiment, from ``log_probs`` or from
    ``hits`` out of ``n_paths``, whose probabilities are exactly ``k / n``.
    Epsilons with a non-finite log probability are dropped; fewer than three
    left raise.  ``reference()`` runs only once the fit can."""
    if hits is not None:
        probs = [k / n_paths for k in hits]
        log_probs = [math.log(p) if p else -math.inf for p in probs]
    else:
        probs = [math.exp(lp) for lp in log_probs]
    keep = [i for i, lp in enumerate(log_probs) if math.isfinite(lp)]
    if len(keep) < 3:
        raise RuntimeError(f"too few usable epsilons ({len(keep)}) for slope extraction")
    used, scaled = [epsilons[i] for i in keep], [epsilons[i] * log_probs[i] for i in keep]
    rate, beta, gamma = fit_rate(used, scaled)
    return LdpEstimate(tuple(used), tuple(scaled), rate, reference(), beta, gamma,
                       tuple(probs[i] for i in keep),
                       tuple(e for e, lp in zip(epsilons, log_probs) if not math.isfinite(lp)))


def _check_experiment(params: ModelParams, x: HalfSpacePoint, targets):
    """Raise unless the start point and every target live in the model's
    dimension; every experiment calls this before it samples or integrates."""
    _check_dim(params, x, "start point")
    for target in targets:
        if not isinstance(target, (Ball, BoundaryPatch)):
            raise TypeError("target must be a Ball or BoundaryPatch")
        _check_dim(params, target, "target")


# ---------------------------------------------------------------------------
# Quadrature probabilities (d = 2)
# ---------------------------------------------------------------------------

def _trace(target):
    """``(centre', radius)`` of the target's part of {y1 = 0}, or None.  A patch
    is its own trace; a ball has one, of radius ``sqrt(r^2 - c1^2)``, when
    ``c1 < r``, so a tangent ball has none.  The radius is formed as
    ``sqrt(r - c1) sqrt(r + c1)``, which no underflow makes zero."""
    if isinstance(target, BoundaryPatch):
        return target.center_tangential, target.radius
    c1, r = target.center.x1, target.radius
    return (target.center.xp, math.sqrt(r - c1) * math.sqrt(r + c1)) if c1 < r else None


def log_target_probability(params: ModelParams, spec: QuadratureSpec, t,
                           x: HalfSpacePoint, target, order: int = 32):
    """log of the kernel mass of the target at each horizon t (quadrature,
    d = 2): a float for a scalar ``t``, else an array of ``t``'s shape.

    The kernel's mu-density, :func:`log_densities`, is integrated against mu
    over one node set, evaluated at every horizon as one batch of adaptive
    log-domain quadratures: Gauss-Legendre on ``order`` chords across a ball
    (whose error falls only algebraically in ``order``: the chord length has
    a square-root endpoint), and on the target's trace on the boundary,
    where mu carries the weight ``1 / (2 theta)``.  The sets are closed;
    their boundaries are mu-null, so the open sets have the same mass.  The
    experiments pass the default ``spec``.
    """
    if params.d != 2:
        raise ValueError("quadrature target probabilities implemented for d = 2")
    _check_experiment(params, x, [target])
    nodes, w = gauss_legendre(order)
    parts = []      # (y1, y', weight) of each node set
    if isinstance(target, Ball):
        c1, cp, r = target.center.x1, target.center.xp[0], target.radius
        y1_lo, y1_hi = max(0.0, c1 - r), c1 + r
        y1s = y1_lo + (y1_hi - y1_lo) * nodes
        half = np.sqrt(np.maximum(r * r - (y1s - c1) ** 2, 0.0))
        parts.append((np.repeat(y1s, order),
                      ((cp - half)[:, None] + (2.0 * half)[:, None] * nodes).ravel(),
                      np.outer(w * (y1_hi - y1_lo) * 2.0 * half, w).ravel()))
    trace = _trace(target)
    if trace is not None:
        (c,), h = trace
        parts.append((np.zeros(order), c - h + 2.0 * h * nodes, w * h / params.theta))
    y1, yp, weight = map(np.concatenate, zip(*parts))
    keep = weight > 0.0
    vals = log_densities(params, spec, np.asarray(t, dtype=float)[..., None], x.x1, y1[keep],
                         np.abs(yp[keep] - x.xp[0]))
    return logsumexp(vals + np.log(weight[keep]), axis=-1)


# ---------------------------------------------------------------------------
# Reference rates: cost infima over targets
# ---------------------------------------------------------------------------

def _branch_cost(params: ModelParams, x: HalfSpacePoint, dts, sticky, v):
    """Value and gradient in ``v`` (the ``k`` waypoints, flattened) of
    ``sum_j r_j(y_{j-1}, y_j) / dt_j`` with ``y_0 = x``, where ``r_j`` is the
    sticky rate where ``sticky[j]`` and the Euclidean one elsewhere.

    With ``dx1 = y_j1 - y_{j-1,1}``, ``s = y_j1 + y_{j-1,1}`` and the gap
    ``D = y_j' - y_{j-1}'``: the Euclidean rate has gradient ``(dx1, D)`` in
    ``y_j`` and its negative in ``y_{j-1}``.  The sticky rate and its partials
    in ``(s, |D|)`` come from ``geometry._sticky_rate_core``; ``s`` moves with
    both heights and ``|D|`` along ``+-D/|D|``, taken as 0 at ``D = 0``."""
    k, d = len(dts), x.dim
    y = np.vstack([x.coords(), v.reshape(k, d)])
    dx1, s = y[1:, 0] - y[:-1, 0], y[1:, 0] + y[:-1, 0]
    gap = y[1:, 1:] - y[:-1, 1:]
    v_t = _gap(gap)
    rate, d_s, d_v = _sticky_rate_core(params.a, s, v_t)
    terms = np.where(sticky, rate, 0.5 * (dx1 * dx1 + v_t * v_t))
    unit = gap / np.where(v_t > 0.0, v_t, 1.0)[:, None]
    # Per segment: derivatives in the later point's height and tangential
    # coordinates, and in the earlier point's height.
    g_late = np.where(sticky, d_s, dx1)
    g_early = np.where(sticky, d_s, -dx1)
    g_tan = np.where(sticky[:, None], d_v[:, None] * unit, gap)
    seg = np.column_stack([g_late, g_tan]) / dts[:, None]
    grad = seg.copy()
    grad[:-1, 0] += g_early[1:] / dts[1:]
    grad[:-1, 1:] -= seg[1:, 1:]
    return float(np.sum(terms / dts)), grad.ravel()


def _target_constraints(centres, radii, patch) -> list:
    """SLSQP constraints, with their Jacobians, that put waypoint ``j`` in the
    ball ``|y_j - centres[j]| <= radii[j]`` and, where ``patch[j]``, on
    ``y_j1 = 0``.  The ball rows are ``-(y_j - c_j) / |y_j - c_j|`` (0 at the
    centre), the patch rows constant unit rows."""
    k, d = centres.shape

    def ball_jac(v):
        off = v.reshape(k, d) - centres
        dist = _gap(off)
        jac = np.zeros((k, k, d))
        jac[np.arange(k), np.arange(k)] = -off / np.where(dist > 0.0, dist, 1.0)[:, None]
        return jac.reshape(k, k * d)

    constraints = [{"type": "ineq", "jac": ball_jac,
                    "fun": lambda v: radii - _gap(v.reshape(k, d) - centres)}]
    if any(patch):
        on_b = np.eye(k * d)[np.flatnonzero(patch) * d]
        constraints.append({"type": "eq", "fun": lambda v: v.reshape(k, d)[patch, 0],
                            "jac": lambda v: on_b})
    return constraints


def min_cost_over_target(params: ModelParams, x: HalfSpacePoint, target) -> float:
    """Infimum of cost(x, .) over a Ball or BoundaryPatch, in closed form: the
    sliced cost ``min_sliced_cost(params, x, [(1.0, target)])`` of one
    waypoint at time 1.

    The cost is ``min(E, S)``: the Euclidean rate ``E``, or the sticky rate
    ``S``, flat where ``sqrt(A) v <= s`` and never below ``E`` there (``s >=
    |dx1|``), and slanted, ``P = (sqrt(A) s + v)^2 / (2a)``, elsewhere.  So the
    infimum is ``min(inf E, inf P)``, the second over the target's part of the
    slanted region (``a > 1`` only).  Both depend on ``y`` through ``y1`` and
    ``rho = |y' - x'|``, and a target through the tangential distance ``D =
    |c' - x'|`` alone, in every dimension.  ``inf E`` over a ball is ``max(0,
    |x - c| - r)^2 / 2`` (its nearest point has ``y1 >= 0``, between ``c1``
    and ``x1``); over the trace on ``y1 = 0`` it is at ``rho = max(0, D -
    h)``.  ``P`` grows with ``sqrt(A) y1 + rho``, a linear form to minimize
    over the disc ``(y1 - c1)^2 + (rho - D)^2 <= r^2`` cut by ``y1 >= 0`` and
    the cone line ``sqrt(A) rho >= x1 + y1``.  Its minimum lies at the disc's
    own minimizer, at the near end of the chord on ``y1 = 0``, or on the cone
    line, where ``P`` is the flat value and so no lower than ``E``: the first
    two candidates are the only ones, each kept when it meets both cuts.  When
    the target holds ``x`` the infimum is exactly 0.0.
    """
    return _nearest(params, x, target)[0]


def _nearest(params: ModelParams, x: HalfSpacePoint, target):
    """``(value, point)``: :func:`min_cost_over_target`'s infimum and a point
    of the target's closure that attains it, ``x`` itself when the target
    holds ``x``.  The point is the winning candidate ``(y1, rho)`` placed at
    ``y' = x' + rho (c' - x') / D``; it lies on the target's surface, so
    rounding can put it just outside."""
    _check_experiment(params, x, [target])
    if target.contains(x.x1, np.asarray(x.xp)):
        return 0.0, x
    x1 = x.x1
    centre = target.center_tangential if isinstance(target, BoundaryPatch) else target.center.xp
    offset = np.subtract(centre, x.xp)
    gap = _gap(offset)
    best, points = math.inf, []         # points: the (y1, rho) candidates for P
    if isinstance(target, Ball):
        c1, r = target.center.x1, target.radius
        # |x - c| - r, without the cancellation of a start close to the sphere
        u = x1 - c1
        norm = math.hypot(u, gap)
        out = max(0.0, ((u - r) * (u + r) + gap * gap) / (norm + r))
        best = 0.5 * out ** 2
        # The ball's nearest point: x moved by out along (c - x) / |x - c|.
        where = (max(0.0, x1 - u * (out / norm)), gap * (out / norm))
        if params.a > 1.0:
            points.append((c1 - r * math.sqrt(params.big_a / params.a),
                           gap - r / math.sqrt(params.a)))
    trace = _trace(target)
    if trace is not None:
        rho = max(0.0, gap - trace[1])
        value = 0.5 * (x1 * x1 + rho * rho)
        if value < best:
            best, where = value, (0.0, rho)
        points.append((0.0, rho))
    if params.a > 1.0:
        root_a = math.sqrt(params.big_a)
        for y1, rho in points:
            if y1 >= 0.0 and root_a * rho >= x1 + y1:
                value = (root_a * (x1 + y1) + rho) ** 2 / (2.0 * params.a)
                if value < best:
                    best, where = value, (y1, rho)
    y1, rho = where
    unit = offset / gap if gap > 0.0 else offset
    return best, HalfSpacePoint(y1, tuple(np.asarray(x.xp) + rho * unit))


def _min_sliced(params: ModelParams, x: HalfSpacePoint, dts, targets) -> float:
    """Infimum of sum_j c(y_{j-1}, y_j) / dt_j over y_j in targets[j], y_0 = x.

    :func:`min_sliced_cost` solves it this way for two or more waypoints that
    its closed-form bounds leave open; these programs are the test oracle of
    those bounds and, with one waypoint, of :func:`min_cost_over_target`.
    Each term is the smaller of the Euclidean and the sticky rate, both convex,
    and a Ball (``y1 >= 0, |y - c| <= r``) or BoundaryPatch (``y1 = 0,
    |y - (0, c')| <= r``) is convex, so the infimum is the smallest of ``2^k``
    convex programs, one per branch choice.  For ``a <= 1`` the sticky rate is
    ``(s^2 + |D|^2) / 2`` with ``s >= |dx1|``, never below the Euclidean one,
    and the all-Euclidean program alone is solved.  SLSQP solves each from the
    centres (objective scaled to 1 there) with the exact gradients of
    :func:`_branch_cost` and of the constraints, to ``ftol = 1e-11``, or to
    ``1e-8`` if it stops at rounding level first.  Its answer meets the
    constraints only to that tolerance, so the value is the sliced cost at the
    nearest points of the targets and of their traces on ``y1 = 0``.  When every
    target holds ``x`` the infimum is exactly 0.0: the path may stay at ``x``.
    """
    _check_experiment(params, x, targets)
    if all(t.contains(x.x1, np.asarray(x.xp)) for t in targets):
        return 0.0
    from scipy.optimize import minimize

    k, d = len(targets), x.dim
    patch = [isinstance(t, BoundaryPatch) for t in targets]
    centres = np.array([np.concatenate(([0.0], t.center_tangential)) if p else t.center.coords()
                        for t, p in zip(targets, patch)])
    radii = np.array([t.radius for t in targets])

    def near(c, r, target, y):
        # The nearest points of the target and of its trace on y1 = 0.
        disks = [] if isinstance(target, BoundaryPatch) else [(c, r, y)]
        trace = _trace(target)
        if trace is not None:
            disks.append((np.r_[0.0, trace[0]], trace[1], np.r_[0.0, y[1:]]))
        return [HalfSpacePoint(z[0], z[1:])
                for z in (o + (p - o) * (h / max(_gap(p - o), h)) for o, h, p in disks)]

    constraints = _target_constraints(centres, radii, patch)
    bounds = ([(0.0, None)] + [(None, None)] * (d - 1)) * k
    branches = itertools.product((False, True), repeat=k) if params.a > 1.0 else [(False,) * k]
    best = math.inf
    for sticky in branches:
        branch = functools.partial(_branch_cost, params, x, dts, np.array(sticky))
        scale = branch(centres.ravel())[0] or 1.0

        def scaled(v):
            value, grad = branch(v)
            return value / scale, grad / scale

        for ftol in (1e-11, 1e-8):
            res = minimize(scaled, centres.ravel(), jac=True, method="SLSQP",
                           bounds=bounds, constraints=constraints, options={"ftol": ftol})
            if res.success:
                break
        else:
            raise RuntimeError(f"reference-rate program (sticky branches {sticky}) failed "
                               f"on {targets}: {res.message}")
        for ys in itertools.product(*map(near, centres, radii, targets, res.x.reshape(k, d))):
            best = min(best, _sliced_sum(params, [x, *ys], dts))
    return best


# ---------------------------------------------------------------------------
# Static LDP
# ---------------------------------------------------------------------------

# Uniforms one walk of the hit counter draws at once: it keeps nothing but
# counts, so its blocks of paths are small and their raw bits take 512 kB.
_BLOCK_UNIFORMS = 2 ** 16


def _hit_counts(params: ModelParams, x: HalfSpacePoint, dts, targets, epsilons,
                n_paths: int, seed: int) -> list:
    """Per epsilon, how many of ``n_paths`` exact paths from ``x`` lie in
    ``targets[j]`` after each step ``eps * dt_j``; epsilon ``i`` draws stream ``i``.

    The paths are walked in contiguous blocks that draw at most
    ``_BLOCK_UNIFORMS`` uniforms (one path if a single path needs more).
    Only the paths inside every target so far take the next step: each
    target's mask goes to the walk, which steps no path once none is left."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    size = max(1, _BLOCK_UNIFORMS // (len(dts) * (params.d + 2)))
    counts = []
    for i, eps in enumerate(epsilons):
        hits = 0
        for first in range(0, n_paths, size):
            steps = walk(params, x, eps * np.asarray(dts), min(size, n_paths - first), seed,
                         stream=i, first_index=first)
            x1, xp, _ = next(steps)
            for target in targets[:-1]:
                x1, xp, _ = steps.send(target.contains(x1, xp))
            hits += int(np.count_nonzero(targets[-1].contains(x1, xp)))
        counts.append(hits)
    return counts


def static_ldp(params: ModelParams, x: HalfSpacePoint, target, epsilons) -> LdpEstimate:
    """Quadrature probabilities of the target at every epsilon, one batch at
    the default :class:`QuadratureSpec`, slope extraction, and the reference
    rate.  Its Monte Carlo counterpart is :func:`sliced_ldp` with
    ``[(1.0, target)]``."""
    eps, spec = _fit_epsilons(epsilons), QuadratureSpec()
    return _estimate(eps, functools.partial(min_cost_over_target, params, x, target),
                     log_probs=log_target_probability(params, spec, eps, x, target).tolist())


# ---------------------------------------------------------------------------
# Phase transition scan
# ---------------------------------------------------------------------------

_SCAN_ORDER = 24     # Gauss-Legendre nodes per axis of each scan ball
_SCAN_RADIUS = 0.1   # radius of the scan ball around y


def cone_crossing_value(x: HalfSpacePoint, y: HalfSpacePoint) -> float:
    """Root in a of the cone equality |y'-x'| = [s + 2 sqrt(a x1 y1)] / sqrt(a-1).
    The right side falls toward 2 sqrt(x1 y1) as a grows; it is 0 for every
    a > 1 when x1 = y1 = 0, and the crossing is then a = 1.

    With ``u = sqrt(a)``, ``r = sqrt(x1 y1)`` and every length divided by
    ``v``, the equality squares to
    ``(1 - 4 r^2) u^2 - 4 r s u - (s^2 + 1) = 0``, whose one positive root
    is returned as ``a = u^2``."""
    v = _tangential_gap(x, y)
    r = math.sqrt(x.x1) * math.sqrt(y.x1)
    if v <= 0:
        raise ValueError("cone crossing undefined for v = 0")
    if v <= 2.0 * r:
        raise ValueError("no cone crossing: y stays inside the cone for every a > 1")
    s, r = (x.x1 + y.x1) / v, r / v
    lead = (1.0 - 2.0 * r) * (1.0 + 2.0 * r)
    u = (2.0 * r * s + math.sqrt((2.0 * r * s) ** 2 + lead * (s * s + 1.0))) / lead
    return u * u


@dataclass(frozen=True)
class ScanRow:
    a: float
    extrapolated_rate: float
    reference_rate: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    flat_level: float
    empirical_kink: float
    crossing_root: float


def phase_transition_scan(a_values, theta: float, x: HalfSpacePoint,
                          y: HalfSpacePoint, epsilons) -> ScanResult:
    """Extrapolated static rate versus a at the ball of radius ``_SCAN_RADIUS``
    (0.1) around y.

    The rate is flat in a on a <= 1 (Euclidean regime) and strictly smaller
    past the cone-crossing value; the empirical kink is located by
    intersecting the flat level with a line through the first clearly
    dropped scan points, clamped to the interval between the last undropped
    and the first dropped value of a, and reported next to the closed-form
    root of the cone equality at the pair (x, y).  The rows are in
    increasing a, whatever the order of ``a_values``, which must be distinct
    as floats.  Every input is checked before the first quadrature, each at
    the default :class:`QuadratureSpec`; each row's epsilons are one batch.
    """
    eps, spec = _fit_epsilons(epsilons), QuadratureSpec()
    models = sorted((ModelParams(float(a), theta, x.dim) for a in a_values), key=lambda m: m.a)
    if not models:
        raise ValueError("the scan needs at least one value of a")
    if len({m.a for m in models}) < len(models):
        raise ValueError(f"the scan's values of a must be distinct, got {[m.a for m in models]}")
    target = Ball(y, _SCAN_RADIUS)
    _check_experiment(models[0], x, [target])
    root = cone_crossing_value(x, y)
    rows = []
    for params in models:
        est = _estimate(eps, functools.partial(min_cost_over_target, params, x, target),
                        log_probs=log_target_probability(params, spec, eps, x, target,
                                                         order=_SCAN_ORDER).tolist())
        rows.append(ScanRow(params.a, est.extrapolated_rate, est.reference_rate))

    flat_rates = [r.extrapolated_rate for r in rows if r.a <= 1.0]
    flat = float(np.mean(flat_rates)) if flat_rates else rows[0].extrapolated_rate
    dropped = [i for i, r in enumerate(rows) if r.extrapolated_rate < flat * 0.98]
    kink = rows[dropped[0]].a if dropped else math.nan
    if len(dropped) >= 2:
        pts = [rows[i] for i in dropped[:3]]
        slope, intercept = np.polyfit([r.a for r in pts], [r.extrapolated_rate for r in pts], 1)
        if slope != 0:
            kink = min(max((flat - intercept) / slope, rows[max(dropped[0] - 1, 0)].a), kink)
    return ScanResult(tuple(rows), flat, float(kink), root)


# ---------------------------------------------------------------------------
# Path slicing
# ---------------------------------------------------------------------------

def _waypoint_dts(times) -> np.ndarray:
    """Intervals between waypoint times, which must increase strictly in (0, 1]."""
    t = [0.0, *(float(v) for v in times)]
    if len(t) < 2 or not all(a < b for a, b in zip(t, t[1:])) or not t[-1] <= 1.0:
        raise ValueError("waypoint times must be strictly increasing in (0, 1]")
    return np.diff(t)


def discrete_waypoint_cost(params: ModelParams, x: HalfSpacePoint, waypoints) -> float:
    """Time-sliced cost sum c(y_{j-1}, y_j) / (t_j - t_{j-1}) through points.

    ``waypoints`` is a list of (time, HalfSpacePoint) with strictly
    increasing times in (0, 1].  Additive along geodesics sampled at the
    waypoint times.
    """
    return _sliced_sum(params, [x, *(y for _, y in waypoints)],
                       _waypoint_dts([t for t, _ in waypoints]))


def min_sliced_cost(params: ModelParams, x: HalfSpacePoint, waypoint_sets) -> float:
    """Infimum of the sliced cost over the product of waypoint targets.  One
    waypoint at time ``t`` costs the closed form of
    :func:`min_cost_over_target` over ``t``.

    For ``k >= 2`` waypoints the cost is half a squared distance that obeys
    the triangle inequality, so by Cauchy-Schwarz every target ``j`` bounds
    the infimum below by its own closed form ``v_j / t_j``; let ``j*`` attain
    the largest (the later on a tie) at the point ``y*``.  The constant-speed
    geodesic from ``x`` to ``y*``, read at ``t_i / t_{j*}`` for ``i < j*`` and
    held at ``y*`` after, costs that bound.  When each of its points other
    than ``y*`` itself lies in its target and their sliced cost is within
    1e-12 relative of the bound, that cost is the infimum and no program
    runs.  Otherwise it is the smallest of the ``2^k`` convex programs of
    :func:`_min_sliced`, one per choice of the Euclidean or sticky branch on
    each segment."""
    times = [float(t) for t, _ in waypoint_sets]
    dts = _waypoint_dts(times)
    targets = [b for _, b in waypoint_sets]
    if len(targets) == 1:
        return min_cost_over_target(params, x, targets[0]) / dts[0]
    lower, star, y_star = -math.inf, 0, x
    for j, (t, target) in enumerate(zip(times, targets)):
        value, point = _nearest(params, x, target)
        if value / t >= lower:
            lower, star, y_star = value / t, j, point
    g = _geodesics(params.a, [x.x1], [x.xp], [y_star.x1], [y_star.xp])
    points = _polyline_at(g.times, g.knots, [t / times[star] for t in times[:star]]).tolist()
    ys = [HalfSpacePoint(y1, tuple(yp)) for y1, *yp in points] + [y_star] * (len(targets) - star)
    if all(target.contains(y.x1, np.asarray(y.xp))
           for i, (y, target) in enumerate(zip(ys, targets)) if i != star):
        total = _sliced_sum(params, [x, *ys], dts)
        if abs(total - lower) <= 1e-12 * lower:
            return total
    return _min_sliced(params, x, dts, targets)


def sliced_ldp(params: ModelParams, x: HalfSpacePoint, waypoint_sets, epsilons,
               n_paths: int, seed: int) -> LdpEstimate:
    """Monte Carlo probability that the slowed path visits every waypoint target.

    The slowed path is sampled exactly at the waypoint times (one exact step
    per inter-waypoint interval), epsilon ``i`` in decreasing order on stream
    ``(seed, i)``; one waypoint ``(1.0, target)`` is the Monte Carlo static
    experiment (``stickybm ldp-static --method monte_carlo``).  The reference
    rate is the sliced-cost infimum over the product of targets.
    """
    dts = _waypoint_dts([t for t, _ in waypoint_sets])
    eps = _fit_epsilons(epsilons)
    targets = [b for _, b in waypoint_sets]
    _check_experiment(params, x, targets)
    hits = _hit_counts(params, x, dts, targets, eps, n_paths, seed)
    return _estimate(eps, functools.partial(min_sliced_cost, params, x, waypoint_sets),
                     hits=hits, n_paths=n_paths)
