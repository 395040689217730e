"""Numerical verification of the static and path-slicing large deviations.

Probabilities of rare targets under the slowed kernel are computed either by
log-domain quadrature of the transition kernel at horizon eps or by Monte
Carlo with exact one-step sampling; rates are extracted by fitting

    eps log rho = -rate + beta * eps log(1/eps) + gamma * eps,

the middle term absorbing the Gaussian ``eps^{-d/2}`` prefactors that make
raw two-point slopes converge too slowly.  Reference rates are infima of the
closed-form cost over the target sets, found by multistart projected
gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, cost
from .kernel import log_densities
from .quadrature import QuadratureSpec, gauss_legendre, logsumexp
from .simulate import SimConfig, _path_rng, simulate_batch, step_batch

__all__ = [
    "Ball",
    "BoundaryPatch",
    "StaticExperiment",
    "LdpEstimate",
    "ScanRow",
    "ScanResult",
    "wilson_interval",
    "fit_rate",
    "log_target_probability",
    "min_cost_over_target",
    "static_ldp",
    "cone_crossing_value",
    "phase_transition_scan",
    "discrete_waypoint_cost",
    "min_sliced_cost",
    "sliced_ldp",
    "SlicedEstimate",
]


@dataclass(frozen=True)
class Ball:
    """Euclidean ball intersected with the closed half-space."""

    center: HalfSpacePoint
    radius: float
    closed: bool = True

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, x1, xp):
        d1 = np.asarray(x1) - self.center.x1
        dp = np.asarray(xp) - np.asarray(self.center.xp)
        r2 = d1 * d1 + np.sum(np.atleast_2d(dp) ** 2, axis=-1).reshape(np.shape(d1))
        if self.closed:
            return r2 <= self.radius ** 2
        return r2 < self.radius ** 2


@dataclass(frozen=True)
class BoundaryPatch:
    """Tangential ball on the boundary {y1 = 0}."""

    center_tangential: tuple
    radius: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "center_tangential",
                           tuple(float(v) for v in np.atleast_1d(self.center_tangential)))
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, x1, xp):
        on_b = np.asarray(x1) == 0.0
        dp = np.asarray(xp) - np.asarray(self.center_tangential)
        r2 = np.sum(np.atleast_2d(dp) ** 2, axis=-1).reshape(np.shape(on_b))
        if self.closed:
            return on_b & (r2 <= self.radius ** 2)
        return on_b & (r2 < self.radius ** 2)


@dataclass(frozen=True)
class StaticExperiment:
    params: ModelParams
    x: HalfSpacePoint
    target: object
    epsilons: tuple
    method: str = "quadrature"      # "quadrature" | "monte_carlo"
    n_paths: int = 100000

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if (not all(0.0 < e < math.inf for e in eps)
                or any(a <= b for a, b in zip(eps, eps[1:]))):
            raise ValueError("epsilons must be strictly decreasing positive finite numbers")
        if self.method not in ("quadrature", "monte_carlo"):
            raise ValueError("method must be 'quadrature' or 'monte_carlo'")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")


@dataclass(frozen=True)
class LdpEstimate:
    """Slope-extraction outcome for one experiment."""

    epsilons: tuple
    log_probs: tuple            # eps * log rho per epsilon
    extrapolated_rate: float
    reference_rate: float
    beta: float
    gamma: float
    probs: tuple = ()
    wilson_bounds: tuple = ()
    dropped_epsilons: tuple = ()


def wilson_interval(hits: int, n: int, z: float = 2.5758293035489004):
    """Wilson score interval (default z for 99% coverage)."""
    if n <= 0:
        raise ValueError("need n > 0")
    p = hits / n
    z2 = z * z
    den = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def fit_rate(epsilons, scaled_log_probs):
    """Least-squares fit of eps log rho = -rate + beta eps log(1/eps) + gamma eps."""
    eps = np.asarray(epsilons, dtype=float)
    y = np.asarray(scaled_log_probs, dtype=float)
    design = np.stack([-np.ones_like(eps), eps * np.log(1.0 / eps), eps], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


# ---------------------------------------------------------------------------
# Quadrature probabilities (d = 2)
# ---------------------------------------------------------------------------

def log_target_probability(params: ModelParams, spec: QuadratureSpec, t: float,
                           x: HalfSpacePoint, target, order: int = 32) -> float:
    """log of the kernel mass of the target at horizon t (quadrature, d = 2).

    Gauss-Legendre over the set, with the kernel at all of its interior
    nodes, and at all of its boundary nodes, evaluated as one batch of
    adaptive log-domain quadratures each; open and closed variants agree
    (they differ on a mu-null set).
    """
    if params.d != 2:
        raise ValueError("quadrature target probabilities implemented for d = 2")
    nodes, w = gauss_legendre(order)
    parts = []

    def log_boundary_line(lo, hi):
        # log mass of [lo, hi] on the boundary line: one kernel batch.
        yps = lo + (hi - lo) * nodes
        vals = log_densities(params, spec, t, x.x1, 0.0, np.abs(yps - x.xp[0])).boundary
        return logsumexp(vals + np.log(w * (hi - lo)))

    if isinstance(target, BoundaryPatch):
        c = target.center_tangential[0]
        parts.append(log_boundary_line(c - target.radius, c + target.radius))
    elif isinstance(target, Ball):
        c1, cp = target.center.x1, target.center.xp[0]
        r = target.radius
        y1_lo, y1_hi = max(0.0, c1 - r), c1 + r
        if y1_hi > y1_lo:
            y1s = y1_lo + (y1_hi - y1_lo) * nodes
            w1 = w * (y1_hi - y1_lo)
            half = np.sqrt(np.maximum(r * r - (y1s - c1) ** 2, 0.0))
            keep = half > 0.0
            y1s, w1, half = y1s[keep], w1[keep], half[keep]
            # Every node of every chord across the ball: one kernel batch.
            yps = (cp - half)[:, None] + (2.0 * half)[:, None] * nodes
            vals = log_densities(params, spec, t, x.x1, y1s[:, None],
                                 np.abs(yps - x.xp[0])).interior
            inner = logsumexp(vals + np.log(w * 2.0 * half[:, None]), axis=1) + np.log(w1)
            parts.append(logsumexp(inner))
        if c1 <= r:
            half_b = math.sqrt(max(r * r - c1 * c1, 0.0))
            if half_b > 0:
                parts.append(log_boundary_line(cp - half_b, cp + half_b))
    else:
        raise TypeError("target must be a Ball or BoundaryPatch")
    return logsumexp(parts)


# ---------------------------------------------------------------------------
# Reference rates: cost infima over targets
# ---------------------------------------------------------------------------

def _project_target(y: np.ndarray, target) -> np.ndarray:
    if isinstance(target, BoundaryPatch):
        c = np.asarray(target.center_tangential)
        y = y.copy()
        y[0] = 0.0
        dp = y[1:] - c
        n = float(np.linalg.norm(dp))
        if n > target.radius:
            y[1:] = c + dp * (target.radius / n)
        return y
    c = target.center.coords()
    y = y.copy()
    for _ in range(64):
        dy = y - c
        n = float(np.linalg.norm(dy))
        if n > target.radius:
            y = c + dy * (target.radius / n)
        if y[0] < 0.0:
            y[0] = 0.0
        if y[0] >= 0.0 and np.linalg.norm(y - c) <= target.radius * (1 + 1e-12):
            break
    return y


def _target_starts(x: HalfSpacePoint, target, grid: int = 16):
    """Start points: a grid over the set plus its extreme candidates."""
    starts = []
    if isinstance(target, BoundaryPatch):
        c = np.asarray(target.center_tangential)
        for u in np.linspace(-1.0, 1.0, grid):
            starts.append(np.concatenate([[0.0], c + u * target.radius]))
        xp = np.asarray(x.xp)
        starts.append(np.concatenate([[0.0], np.clip(xp, c - target.radius, c + target.radius)]))
        return starts
    c = target.center.coords()
    r = target.radius
    for u1 in np.linspace(-1.0, 1.0, grid):
        for u2 in np.linspace(-1.0, 1.0, grid):
            y = c + r * np.array([u1, u2])
            starts.append(_project_target(y, target))
    xv = x.coords()
    gap = xv - c
    n = float(np.linalg.norm(gap))
    starts.append(_project_target(c + gap * (min(r, n) / n if n > 0 else 0.0), target))
    starts.append(_project_target(np.array([0.0, c[1]]), target))
    if c[0] <= r:
        half = math.sqrt(max(r * r - c[0] ** 2, 0.0))
        starts.append(np.array([0.0, c[1] - half]))
        starts.append(np.array([0.0, c[1] + half]))
    return starts


def _point(y: np.ndarray) -> HalfSpacePoint:
    return HalfSpacePoint(max(y[0], 0.0), tuple(y[1:]))


def _descend(objective, project, y: np.ndarray, step: float, step_max: float,
             iters: int) -> float:
    """Projected descent from ``y``; returns the last objective value.

    The gradient is a central difference with step ``1e-6 max(1, |y|)``.  Each
    iteration halves a trial step up to 40 times until the projected move
    lowers the objective, stops when none does, and doubles the accepted step
    (at most ``step_max``) for the next iteration.
    """
    y = project(y)
    f = objective(y)
    for _ in range(iters):
        h = 1e-6 * max(1.0, float(np.linalg.norm(y)))
        g = np.empty_like(y)
        for k in range(y.size):
            e = np.zeros_like(y)
            e[k] = h
            g[k] = (objective(y + e) - objective(y - e)) / (2 * h)
        trial = step
        for _ in range(40):
            y_new = project(y - trial * g)
            f_new = objective(y_new)
            if f_new < f - 1e-15:
                break
            trial *= 0.5
        else:
            break
        y, f = y_new, f_new
        step = min(trial * 2.0, step_max)
    return f


def min_cost_over_target(params: ModelParams, x: HalfSpacePoint, target,
                         iters: int = 200) -> float:
    """Infimum of cost(x, .) over the target by multistart projected descent."""
    return min(_descend(lambda y: cost(params, x, _point(y)),
                        lambda y: _project_target(y, target),
                        np.asarray(y0, dtype=float), 0.25 * target.radius,
                        4.0 * target.radius, iters)
               for y0 in _target_starts(x, target))


# ---------------------------------------------------------------------------
# Static LDP
# ---------------------------------------------------------------------------

def static_ldp(exp: StaticExperiment, spec: QuadratureSpec, seed: int = 0) -> LdpEstimate:
    """Probabilities per epsilon, slope extraction, and the reference rate."""
    params = exp.params
    used_eps, scaled, probs, wilsons, dropped = [], [], [], [], []
    for i, eps in enumerate(exp.epsilons):
        if exp.method == "quadrature":
            lp = log_target_probability(params, spec, eps, exp.x, exp.target)
            if not np.isfinite(lp):
                dropped.append(eps)
                continue
            used_eps.append(eps)
            scaled.append(eps * lp)
            probs.append(math.exp(lp))
            wilsons.append((math.nan, math.nan))
        else:
            cfg = SimConfig(params, exp.x, eps, 1, seed=seed + i, tabulation_resolution=512)
            batch = simulate_batch(cfg, exp.n_paths)
            inside = exp.target.contains(batch.x1[:, -1], batch.xp[:, -1, :])
            hits = int(np.sum(inside))
            if hits == 0:
                dropped.append(eps)
                continue
            p = hits / exp.n_paths
            used_eps.append(eps)
            scaled.append(eps * math.log(p))
            probs.append(p)
            wilsons.append(wilson_interval(hits, exp.n_paths))
    if len(used_eps) < 3:
        raise RuntimeError(f"too few usable epsilons ({len(used_eps)}) for slope extraction")
    rate, beta, gamma = fit_rate(used_eps, scaled)
    ref = min_cost_over_target(params, exp.x, exp.target)
    return LdpEstimate(tuple(used_eps), tuple(scaled), rate, ref, beta, gamma,
                       tuple(probs), tuple(wilsons), tuple(dropped))


# ---------------------------------------------------------------------------
# Phase transition scan
# ---------------------------------------------------------------------------

def cone_crossing_value(x: HalfSpacePoint, y: HalfSpacePoint,
                        a_max: float = 1e6) -> float:
    """Root in a of the cone equality |y'-x'| = [s + 2 sqrt(a x1 y1)] / sqrt(a-1)."""
    v = float(np.linalg.norm(np.asarray(y.xp) - np.asarray(x.xp)))
    s = x.x1 + y.x1
    if v <= 0:
        raise ValueError("cone crossing undefined for v = 0")

    def gap(a):
        return (s + 2.0 * math.sqrt(a * x.x1 * y.x1)) / math.sqrt(a - 1.0) - v

    lo, hi = 1.0 + 1e-12, 2.0
    while gap(hi) > 0:
        hi *= 2.0
        if hi > a_max:
            raise ValueError("no cone crossing below a_max; is y ever outside the cone?")
    from scipy.optimize import brentq
    return float(brentq(gap, lo, hi, xtol=1e-12, rtol=1e-14))


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
                          y: HalfSpacePoint, epsilons, spec: QuadratureSpec,
                          ball_radius: float = 0.1, order: int = 24) -> ScanResult:
    """Extrapolated static rate versus a at a small ball around y.

    The rate is flat in a on a <= 1 (Euclidean regime) and strictly smaller
    past the cone-crossing value; the empirical kink is located by
    intersecting the flat level with a line through the first clearly
    dropped scan points, and reported next to the bisection root of the cone
    equality at the pair (x, y).
    """
    rows = []
    eps_t = tuple(sorted((float(e) for e in epsilons), reverse=True))
    for a in a_values:
        params = ModelParams(float(a), theta, x.dim)
        target = Ball(y, ball_radius)
        scaled = []
        for eps in eps_t:
            lp = log_target_probability(params, spec, eps, x, target, order=order)
            scaled.append(eps * lp)
        rate, _, _ = fit_rate(eps_t, scaled)
        rows.append(ScanRow(float(a), rate, min_cost_over_target(params, x, target)))

    flat_rates = [r.extrapolated_rate for r in rows if r.a <= 1.0]
    flat = float(np.mean(flat_rates)) if flat_rates else rows[0].extrapolated_rate
    dropped = [r for r in rows if r.extrapolated_rate < flat * 0.98]
    if len(dropped) >= 2:
        pts = dropped[:3]
        aa = np.array([r.a for r in pts])
        rr = np.array([r.extrapolated_rate for r in pts])
        slope, intercept = np.polyfit(aa, rr, 1)
        kink = (flat - intercept) / slope if slope != 0 else pts[0].a
    elif dropped:
        kink = dropped[0].a
    else:
        kink = math.nan
    root = cone_crossing_value(x, y)
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


def _sliced_sum(params: ModelParams, x: HalfSpacePoint, dts, points) -> float:
    total = 0.0
    for dt, y in zip(dts, points):
        total += cost(params, x, y) / dt
        x = y
    return total


def discrete_waypoint_cost(params: ModelParams, x: HalfSpacePoint, waypoints) -> float:
    """Time-sliced cost sum c(y_{j-1}, y_j) / (t_j - t_{j-1}) through points.

    ``waypoints`` is a list of (time, HalfSpacePoint) with strictly
    increasing times in (0, 1].  Additive along geodesics sampled at the
    waypoint times.
    """
    return _sliced_sum(params, x, _waypoint_dts([t for t, _ in waypoints]),
                       [y for _, y in waypoints])


def min_sliced_cost(params: ModelParams, x: HalfSpacePoint, waypoint_sets,
                    restarts: int = 8, iters: int = 300, seed: int = 0) -> float:
    """Infimum of the sliced cost over the product of waypoint balls.

    Joint projected descent on all waypoints stacked into one vector,
    multistarted from the centers plus jittered variants.
    """
    dts = _waypoint_dts([t for t, _ in waypoint_sets])
    targets = [b for _, b in waypoint_sets]
    dim = x.dim
    rng = np.random.default_rng(seed)

    def objective(v):
        return _sliced_sum(params, x, dts, map(_point, v.reshape(-1, dim)))

    def project(v):
        return np.concatenate([_project_target(y, tgt)
                               for y, tgt in zip(v.reshape(-1, dim), targets)])

    best = math.inf
    for r in range(restarts):
        starts = []
        for tgt in targets:
            if isinstance(tgt, Ball):
                c = tgt.center.coords()
            else:
                c = np.concatenate([[0.0], tgt.center_tangential])
            if r > 0:
                c = c + rng.normal(scale=0.5 * tgt.radius, size=dim)
            starts.append(c)
        best = min(best, _descend(objective, project, np.concatenate(starts),
                                  0.25 * min(t.radius for t in targets), 1.0, iters))
    return best


@dataclass(frozen=True)
class SlicedEstimate:
    epsilons: tuple
    log_probs: tuple
    extrapolated_rate: float
    reference_rate: float
    probs: tuple
    dropped_epsilons: tuple


def sliced_ldp(params: ModelParams, x: HalfSpacePoint, waypoint_sets, epsilons,
               n_paths: int, seed: int) -> SlicedEstimate:
    """Monte Carlo probability that the slowed path visits every waypoint ball.

    The slowed path is sampled exactly at the waypoint times (one exact step
    per inter-waypoint interval).  The reference rate is the sliced-cost
    infimum over the product of balls.
    """
    dts = _waypoint_dts([t for t, _ in waypoint_sets])
    epsilons = [float(e) for e in epsilons]
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ValueError("epsilons must be positive finite numbers")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    targets = [b for _, b in waypoint_sets]
    used, scaled, probs, dropped = [], [], [], []
    for i, eps in enumerate(sorted(epsilons, reverse=True)):
        # One exact step per interval, of horizon eps * dt_j; one stream per step.
        hits = np.ones(n_paths, dtype=bool)
        x1 = np.full(n_paths, x.x1)
        xp = np.tile(np.asarray(x.xp, dtype=float), (n_paths, 1))
        for j, (dt, target) in enumerate(zip(dts, targets)):
            rng = _path_rng(seed + 1000 * i, j)
            u = rng.random((3, n_paths))
            g = rng.standard_normal((n_paths, params.d - 1))
            x1, xp, _ = step_batch(params, x1, xp, eps * dt, u, g, 512)
            hits &= np.asarray(target.contains(x1, xp))
        k = int(np.sum(hits))
        if k == 0:
            dropped.append(eps)
            continue
        p = k / n_paths
        used.append(eps)
        scaled.append(eps * math.log(p))
        probs.append(p)
    if len(used) < 3:
        raise RuntimeError("too few usable epsilons for the sliced slope fit")
    rate, _, _ = fit_rate(used, scaled)
    ref = min_sliced_cost(params, x, waypoint_sets)
    return SlicedEstimate(tuple(used), tuple(scaled), rate, ref, tuple(probs), tuple(dropped))
