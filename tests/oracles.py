"""Independent numerical oracles and test-only checks shared across the suite.

Everything here deliberately avoids the closed forms under test: the sticky
rate is minimized by golden section, transport values by explicit
enumeration or, with their duals, by the HiGHS linear program, entropic
plans by plain log-domain Sinkhorn, and reference integrals by fixed-order
Gauss-Legendre.  The sampler's oracle
:func:`horizontal_cdf` integrates the kernel's hitting and Gaussian log
densities (``_log_h``, ``_log_g``) over local time by quadrature, apart from
the sampler's inversion of the sticky clock; :func:`euler_thin_layer` is a
deliberately crude, biased scheme for qualitative comparisons.  Monte Carlo
hit counts have the unpruned :func:`unpruned_hit_counts`, which steps every
path through every waypoint in one walk, and a hit frequency, which the
library reports as the exact ``k / n``, gets its Wilson score interval from
:func:`wilson_interval`.

The kernel's own consistency checks run the kernel under test against the
semigroup property (:func:`chapman_kolmogorov_residual`) and the forward
equations (:func:`fokker_planck_residual`); they read ``kernel.log_densities``,
``kernel._sticky_log_grid`` and ``kernel._compose`` through the module, so a
test that wraps one of them there sees every call.  :func:`bivariate_density`
is the joint law of (horizontal position, local time) from the kernel's log
building blocks, and :func:`modulus_statistics` the path-oscillation
frequency of a sampled batch.
The kernel's in-place building blocks have their plain numpy expressions,
:func:`reference_log_h`, :func:`reference_log_g` and
:func:`reference_sticky_log_grid`, which they must match bit for bit, and
the adaptive rule has :func:`reference_log_integrate`, which evaluates the
ends and midpoints of its panels again at every level.
The explicit geodesics have their scalar construction,
:func:`reference_geodesic`, one pair at a time, and displacement
interpolation its per-cell loop, :func:`reference_displacement_interpolation`,
through the scalar :func:`reference_path_at`; the batched pass must match
them bit for bit.
The CLI's CSV writer has :func:`reference_csv`, which formats and quotes one
value at a time through ``csv.writer``, and the CLI's documented use has
:func:`readme_cli_lines`, the examples of README's CLI block.
"""
import csv
import io
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from stickybm import geometry, kernel
from stickybm.geometry import GeodesicDescription, HalfSpacePoint, ModelParams, cone_contains, cost
from stickybm.kernel import _log_g, _log_h, _log_killed_kernel
from stickybm.quadrature import (_RTOL, QuadratureError, QuadratureSpec, _grouped_logsumexp,
                                 gauss_legendre, logsumexp)
from stickybm.simulate import BatchPaths, walk


def golden_min_sticky_profile(a, s, v, tol=1e-14):
    """min over L in [0,1] of s^2/(2(1-L)) + v^2/(2(1+(a-1)L)), vectorized.

    Golden-section search on the (convex or monotone) profile; the 0/0 at
    L = 1 with s = 0 resolves to 0.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    big_a = a - 1.0

    def f(L):
        with np.errstate(divide="ignore", invalid="ignore"):
            normal = np.where(s == 0.0, 0.0, s * s / (2.0 * (1.0 - L)))
        return normal + v * v / (2.0 * (1.0 + big_a * L))

    lo = np.zeros(np.broadcast(a, s, v).shape)
    hi = np.ones_like(lo)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(120):
        take = fc < fd
        hi = np.where(take, d, hi)
        lo = np.where(take, lo, c)
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = f(c), f(d)
        if np.max(hi - lo) < tol:
            break
    mid = 0.5 * (lo + hi)
    return np.minimum(np.minimum(f(mid), f(lo)), np.minimum(f(np.minimum(hi, 1.0)), f(np.zeros_like(mid))))


def enumerate_assignment_value(cost_matrix):
    """Exact optimal value for uniform equal-size marginals by permutation scan."""
    n = cost_matrix.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        val = sum(cost_matrix[i, perm[i]] for i in range(n)) / n
        best = min(best, val)
    return best


def enumerate_transport_value(cost_matrix, supplies, demands):
    """Exact optimal value by enumerating all integer flows with the given margins.

    ``supplies`` and ``demands`` are small integer vectors with equal sums.
    """
    a = list(supplies)
    b = list(demands)
    assert sum(a) == sum(b)
    n, m = len(a), len(b)
    denom = sum(a)
    best = [math.inf]
    flow = np.zeros((n, m), dtype=int)
    rem = list(b)

    def fill_row(i):
        if i == n:
            best[0] = min(best[0], float(np.sum(flow * cost_matrix)) / denom)
            return

        def comp(j, left):
            if j == m:
                if left == 0:
                    fill_row(i + 1)
                return
            for q in range(min(left, rem[j]), -1, -1):
                flow[i, j] = q
                rem[j] -= q
                comp(j + 1, left - q)
                rem[j] += q
                flow[i, j] = 0

        comp(0, a[i])

    fill_row(0)
    return best[0]


def highs_transport(cost_matrix, supplies, demands):
    """Optimal value and dual potentials ``(u, v)`` of the transportation
    linear program, by HiGHS on the dense equality constraints; the duals
    are its ``eqlin`` multipliers, one per source and per target row."""
    from scipy.optimize import linprog

    n, m = cost_matrix.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = linprog(cost_matrix.ravel(), A_eq=a_eq, b_eq=np.concatenate([supplies, demands]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    duals = res.eqlin.marginals
    return float(res.fun), duals[:n], duals[n:]


def reference_geodesic(params: ModelParams, x: HalfSpacePoint,
                       y: HalfSpacePoint) -> GeodesicDescription:
    """The geodesic construction in scalar arithmetic, one pair at a time,
    which ``geodesic`` and the batched ``_geodesics`` must match bit for
    bit."""
    def gap(p, q):
        return math.hypot(*np.subtract(q.xp, p.xp))

    c = cost(params, x, y)
    xpa = np.asarray(x.xp)
    ypa = np.asarray(y.xp)
    straight = geometry.Path((0.0, 1.0), (x, y))
    if params.a <= 1.0 or cone_contains(params, x, y):
        return GeodesicDescription("euclidean", straight, c)
    if x.x1 == 0.0 and y.x1 == 0.0:
        return GeodesicDescription("boundary_only", straight, c)

    root_a = math.sqrt(params.big_a)
    u = (ypa - xpa) / gap(x, y)
    z_in = HalfSpacePoint(0.0, tuple(xpa + (x.x1 / root_a) * u))
    z_out = HalfSpacePoint(0.0, tuple(ypa - (y.x1 / root_a) * u))

    knots, lengths = [x], []
    if x.x1 > 0.0:
        knots.append(z_in)
        lengths.append(x.x1 * math.sqrt(params.a / params.big_a))
    mid = gap(z_in, z_out)
    if mid > 0.0:
        knots.append(z_out)
        lengths.append(mid / math.sqrt(params.a))
    if y.x1 > 0.0:
        knots.append(y)
        lengths.append(y.x1 * math.sqrt(params.a / params.big_a))
    total = sum(lengths)
    times = [0.0]
    for w in lengths:
        times.append(times[-1] + w / total)
    times[-1] = 1.0
    for i in range(1, len(times) - 1):
        times[i] = max(times[i], math.nextafter(times[i - 1], 1.0))
    for i in range(len(times) - 2, 0, -1):
        times[i] = min(times[i], math.nextafter(times[i + 1], 0.0))

    if x.x1 == 0.0:
        tag = "one_touch_exit"
    elif y.x1 == 0.0:
        tag = "one_touch_entry"
    else:
        tag = "three_segment"
    return GeodesicDescription(tag, geometry.Path(tuple(times), tuple(knots)), c)


def reference_path_at(path: geometry.Path, t: float) -> HalfSpacePoint:
    """Piecewise-linear interpolation of one path at one time, in scalar
    arithmetic, with x1 clamped at 0."""
    t = float(t)
    times = path.times
    if t <= 0.0:
        return path.knots[0]
    if t >= 1.0:
        return path.knots[-1]
    j = int(np.searchsorted(times, t, side="right")) - 1
    t0, t1 = times[j], times[j + 1]
    u = (t - t0) / (t1 - t0)
    k0, k1 = path.knots[j], path.knots[j + 1]
    x1 = max(0.0, (1.0 - u) * k0.x1 + u * k1.x1)
    xp = tuple((1.0 - u) * a + u * b for a, b in zip(k0.xp, k1.xp))
    return HalfSpacePoint(x1, xp)


def reference_displacement_interpolation(params: ModelParams, plan, t: float):
    """``(atoms, weights)`` of the plan pushed to time t one support cell at a
    time, in row-major order, through :func:`reference_geodesic` and
    :func:`reference_path_at`."""
    atoms, weights = [], []
    for i, j in zip(*np.nonzero(plan.matrix > 1e-15)):
        gamma = reference_geodesic(params, plan.source.atoms[i], plan.target.atoms[j])
        atoms.append(reference_path_at(gamma.path, t))
        weights.append(float(plan.matrix[i, j]))
    total = sum(weights)
    return tuple(atoms), tuple(w / total for w in weights)


def point_bits(p: HalfSpacePoint) -> tuple:
    """A point's coordinates, each with the sign of its zero, for comparing
    points bit for bit."""
    return tuple((v, math.copysign(1.0, v)) for v in (p.x1, *p.xp))


def fixed_gauss_legendre_integral(f, a, b, n=200):
    """Plain fixed-order Gauss-Legendre reference on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = a + (b - a) * 0.5 * (x + 1.0)
    return float(0.5 * (b - a) * np.sum(w * f(nodes)))


def plain_sinkhorn_plan(log_k, a, b, tol=1e-12, max_iter=100000):
    """Entropic plan ``exp(alpha + log_k + beta)`` by plain log-domain Sinkhorn,
    run until both marginal errors are below ``tol``."""
    def lse(x, axis):
        top = x.max(axis=axis, keepdims=True)
        return (top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True))).squeeze(axis)

    beta = np.zeros(len(b))
    for _ in range(max_iter):
        alpha = np.log(a) - lse(log_k + beta[None, :], 1)
        beta = np.log(b) - lse(log_k + alpha[:, None], 0)
        pi = np.exp(alpha[:, None] + log_k + beta[None, :])
        if max(np.abs(pi.sum(axis=1) - a).max(), np.abs(pi.sum(axis=0) - b).max()) < tol:
            return pi
    raise RuntimeError(f"plain Sinkhorn did not reach {tol} in {max_iter} sweeps")


# ---------------------------------------------------------------------------
# Kernel building blocks, one numpy expression each
# ---------------------------------------------------------------------------
# The kernel writes these in place, into one output array per call; here each
# is the plain expression, with its floating-point operations in the same
# order, so the two must agree bit for bit.

_LOG_2PI = math.log(2.0 * math.pi)


def reference_log_h(t, w):
    """log h(t, w), -inf where the density vanishes."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            (t > 0) & (w > 0),
            np.log(np.where(w > 0, w, 1.0)) - 0.5 * _LOG_2PI
            - 1.5 * np.log(np.where(t > 0, t, 1.0))
            - w * w / (2.0 * np.where(t > 0, t, 1.0)),
            -np.inf,
        )


def reference_log_g(t, v, d):
    """log of the (d-1)-Gaussian at radius v."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    return -0.5 * (d - 1) * (np.log(t) + _LOG_2PI) - v * v / (2.0 * t)


def reference_sticky_log_grid(params: ModelParams, t: float, s_vals, v_vals):
    """``kernel._sticky_log_grid``'s fixed-rule matrix, one expression a step."""
    edges = kernel._GRID_EDGES
    nodes01, w01 = gauss_legendre(kernel._GRID_ORDER)
    m = (edges[:-1, None] + np.diff(edges)[:, None] * nodes01[None, :]).ravel()
    w = (np.diff(edges)[:, None] * w01[None, :]).ravel()
    s_vals = np.asarray(s_vals, dtype=float).ravel()
    v_vals = np.asarray(v_vals, dtype=float).ravel()
    th, big_a, d = params.theta, params.big_a, params.d
    f1 = reference_log_h((t * m)[None, :], (th * t + s_vals[:, None]) - (th * t * m)[None, :])
    f1 = f1 + np.log(w)[None, :] + np.log(th * t)
    f2 = reference_log_g((t * (1.0 + big_a) - t * big_a * m)[None, :], v_vals[:, None], d)
    m1 = np.max(f1, axis=1)
    m2 = np.max(f2, axis=1)
    prod = np.exp(f1 - m1[:, None]) @ np.exp(f2 - m2[:, None]).T
    with np.errstate(divide="ignore"):
        return m1[:, None] + m2[None, :] + np.log(prod)


# ---------------------------------------------------------------------------
# Sampler oracles
# ---------------------------------------------------------------------------

def _reference_panels(log_f, rows, lo, hi, nodes, log_w):
    """Gauss estimates and endpoint bounds of the panels ``[lo[k], hi[k]]``:
    one ``log_f`` call whose row ``k`` holds the panel's left end, its nodes
    and its right end."""
    width = hi - lo
    x = np.concatenate((lo[:, None], lo[:, None] + width[:, None] * nodes, hi[:, None]), axis=1)
    vals = np.asarray(log_f(rows, x), dtype=float)
    nan = np.isnan(vals)
    if nan.any():
        k, j = np.argwhere(nan)[0]
        raise QuadratureError(f"log integrand is NaN at {x[k, j]:.6g}", index=int(rows[k]))
    log_width = np.log(width)
    est = logsumexp(vals[:, 1:-1] + log_w + log_width[:, None], axis=1)
    return est, log_width + np.max(vals[:, [0, -1]], axis=1)


def reference_log_integrate(log_f, splits, spec: QuadratureSpec) -> np.ndarray:
    """The adaptive rule of ``quadrature.log_integrate`` as it was before each
    point came to be evaluated once: every bisection level evaluates both
    halves of every live panel as two 17-point rows (left end, 15 Gauss
    nodes, right end), so ends and midpoints are evaluated again.  Its nodes,
    estimates, bounds and acceptance tests are the library's, so the two
    agree bit for bit."""
    splits = np.asarray(splits, dtype=float)
    n = splits.size
    nodes, w = gauss_legendre(15)
    log_w = np.log(w)
    inner = np.where((splits > 0.0) & (splits < 1.0), splits, 0.0)
    rows = np.repeat(np.arange(n), 2)
    lo = np.stack((np.zeros(n), inner), axis=1).ravel()
    hi = np.stack((inner, np.ones(n)), axis=1).ravel()
    keep = hi > lo
    rows, lo, hi = rows[keep], lo[keep], hi[keep]
    est, bound = _reference_panels(log_f, rows, lo, hi, nodes, log_w)
    prune = _grouped_logsumexp(rows, est, n) + math.log(_RTOL) - math.log(64.0)
    accepted_rows, accepted = [], []
    depth = 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        halves, half_bounds = _reference_panels(log_f, np.concatenate((rows, rows)),
                                                np.concatenate((lo, mid)),
                                                np.concatenate((mid, hi)), nodes, log_w)
        left, right = np.split(halves, 2)
        fine = np.logaddexp(left, right)
        p = prune[rows]
        with np.errstate(invalid="ignore"):
            err = np.where(fine == -math.inf, math.inf,
                           np.abs(np.expm1(np.minimum(est - fine, 700.0))))
            agree = np.maximum(0.25 * _RTOL, 16 * np.spacing(np.abs(fine)))
        done = ((fine <= p) & (est <= p) & (bound <= p)) | (err <= agree)
        accepted_rows.append(rows[done])
        accepted.append(fine[done])
        refine = ~done
        if depth >= spec.max_subdivisions and refine.any():
            k = int(np.flatnonzero(refine)[0])
            raise QuadratureError(f"panel [{lo[k]:.6g}, {hi[k]:.6g}] disagrees", index=int(rows[k]))
        left_bound, right_bound = np.split(half_bounds, 2)
        rows = np.concatenate((rows[refine], rows[refine]))
        lo, hi = (np.concatenate((lo[refine], mid[refine])),
                  np.concatenate((mid[refine], hi[refine])))
        est = np.concatenate((left[refine], right[refine]))
        bound = np.concatenate((left_bound[refine], right_bound[refine]))
        depth += 1
    return _grouped_logsumexp(np.concatenate(accepted_rows), np.concatenate(accepted), n)


def _phi(tau, s):
    """Centered normal density with variance tau at s, vectorized, 0 at tau <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.asarray(tau) > 0, np.exp(_log_g(tau, s, 2)), 0.0)


def _h_density(tau, w):
    """First-hitting density, vectorized, 0 at tau <= 0."""
    return np.exp(_log_h(tau, w))


@lru_cache(maxsize=8)
def _graded_unit_grid(k: int) -> np.ndarray:
    """Grid on [0, 1] with geometric refinement toward both endpoints."""
    k_geo = max(k // 4, 16)
    ends = np.geomspace(1e-12, 0.5, k_geo)
    return np.unique(np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, k - 2 * k_geo),
                                     ends, 1.0 - ends]))


def _cumulative_gl(density, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of a vectorized density at the grid nodes.

    Per-cell 4-point Gauss-Legendre: the local-time quadrature of the oracle
    :func:`horizontal_cdf`, independent of the sampler's closed forms.  A
    density broadcasting leading axes against the ``(cells, 4)`` nodes gives
    one row per index.
    """
    x, w = gauss_legendre(4)
    lo = grid[:-1, None]
    width = np.diff(grid)[:, None]
    inc = (density(lo + width * x[None, :]) * w).sum(axis=-1) * width[:, 0]
    return np.concatenate([np.zeros(inc.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)


def horizontal_cdf(params: ModelParams, x1: float, dt: float, z, l_cells: int = 1024):
    """Closed-form-plus-quadrature CDF of the next horizontal position.

    Used as the oracle against simulated marginals: P(X1 <= z) combining the
    boundary atom, the no-visit part, and the jointly diffuse part; the
    latter two integrate in closed form over z at fixed local time, with the
    local-time integral done by per-cell Gauss-Legendre on a graded grid.
    """
    from scipy.special import ndtr

    z = np.atleast_1d(np.asarray(z, dtype=float))
    sd, th = math.sqrt(dt), params.theta
    cdf = np.zeros_like(z)
    if x1 > 0:      # no-visit part
        cdf += np.maximum((ndtr((z - x1) / sd) - ndtr(-x1 / sd))
                          - (ndtr((z + x1) / sd) - ndtr(x1 / sd)), 0.0)
    # boundary atom, and the diffuse part at local time l, where
    # int_0^z 2 h(tau, s + w) dw = 2 [phi(tau, s) - phi(tau, s + z)].
    zc = z[:, None, None]
    cdf += _cumulative_gl(lambda l: _h_density(dt - l / th, l + x1) / th + 2.0 * (
        _phi(dt - l / th, l + x1) - _phi(dt - l / th, l + x1 + zc)),
        th * dt * _graded_unit_grid(l_cells))[:, -1]
    return cdf if cdf.size > 1 else float(cdf[0])


def euler_thin_layer(params: ModelParams, x0: HalfSpacePoint, dt: float,
                     n_steps: int, seed: int) -> BatchPaths:
    """Crude thin-layer Euler scheme for the degenerate SDE, as a one-path
    batch.  BIASED.

    Treats positions below a layer sqrt(dt) as boundary sojourn (tangential
    volatility sqrt(a), inward drift theta), standard BM with reflection
    otherwise.  The boundary occupation it produces is biased at any finite
    step; use for qualitative comparisons only.
    """
    layer = math.sqrt(dt)
    rng = np.random.default_rng(seed)
    d = params.d
    x1 = np.empty(n_steps + 1)
    xp = np.empty((n_steps + 1, d - 1))
    occ = np.empty(n_steps + 1)
    x1[0], xp[0], occ[0] = x0.x1, x0.xp, 0.0
    for i in range(n_steps):
        if x1[i] <= layer:      # stuck
            x1[i + 1] = max(x1[i] + params.theta * dt, 0.0)
            xp[i + 1] = xp[i] + math.sqrt(params.a * dt) * rng.standard_normal(d - 1)
            occ[i + 1] = occ[i] + dt
        else:
            x1[i + 1] = abs(x1[i] + math.sqrt(dt) * rng.standard_normal())
            xp[i + 1] = xp[i] + math.sqrt(dt) * rng.standard_normal(d - 1)
            occ[i + 1] = occ[i]
    times = dt * np.arange(n_steps + 1)
    return BatchPaths(times, x1[None], xp[None], occ[None], params.theta)


def unpruned_hit_counts(params: ModelParams, x: HalfSpacePoint, dts, targets, epsilons,
                        n_paths: int, seed: int) -> list:
    """Per epsilon ``i`` (stream ``i``), how many of ``n_paths`` paths lie in
    every ``targets[j]`` after step ``j``: all paths in one walk, each taking
    every step, with membership tested only after the last."""
    counts = []
    for i, eps in enumerate(epsilons):
        steps = list(walk(params, x, eps * np.asarray(dts, dtype=float), n_paths, seed, stream=i))
        inside = np.logical_and.reduce([t.contains(x1, xp) for (x1, xp, _), t in zip(steps, targets)])
        counts.append(int(np.count_nonzero(inside)))
    return counts


def wilson_interval(hits: int, n: int, z: float = 2.5758293035489004):
    """Wilson score interval for ``hits`` out of ``n`` (default z for 99% coverage)."""
    if n <= 0:
        raise ValueError("need n > 0")
    p = hits / n
    z2 = z * z
    den = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def modulus_statistics(paths: BatchPaths, delta: float, eta: float,
                       time_scale: float = 1.0) -> float:
    """Empirical P(sup_{|t-s| <= delta} |w(t) - w(s)| >= eta) over sampled times.

    ``time_scale`` rescales the sampled times first (pass eps to measure the
    slowed path on its own clock).  Probes the exponential equicontinuity
    bound C exp(-c eta^2 / (delta eps)).  Each lag up to ``delta`` (and at
    most the whole path) takes its largest displacement over every path at once.
    """
    times = paths.times / time_scale
    k_max = min(int(math.floor(delta / (times[1] - times[0]) + 1e-9)), times.size - 1)
    coords = np.concatenate([paths.x1[:, :, None], paths.xp], axis=2)
    worst = np.zeros(paths.x1.shape[0])
    for k in range(1, k_max + 1):
        lag = np.linalg.norm(coords[:, k:] - coords[:, :-k], axis=2)
        np.maximum(worst, lag.max(axis=1), out=worst)
    return np.count_nonzero(worst >= eta) / worst.size


# ---------------------------------------------------------------------------
# Kernel checks
# ---------------------------------------------------------------------------

def bivariate_density(params: ModelParams, t: float, x1: float, z: float, l: float):
    """Components of the joint law of (horizontal position, local time).

    Returns ``(diffuse, boundary_atom_in_z, zero_local_time_atom)``:
    the jointly diffuse part ``2 h(t - l/theta, l + x1 + z)`` (density in
    ``dz dl``), the boundary atom ``(1/theta) h(t - l/theta, l + x1)``
    (density in ``dl`` on ``{z = 0}``), and the no-visit part
    ``g0_t(x1, z)`` (density in ``dz`` on ``{l = 0}``), each the ``exp`` of
    the kernel's log form, 0 where it vanishes.
    """
    th = params.theta
    tau = t - l / th
    return (2.0 * float(_h_density(tau, l + x1 + z)), float(_h_density(tau, l + x1)) / th,
            float(np.exp(_log_killed_kernel(t, x1, z))))


@dataclass(frozen=True)
class CkResult:
    """Chapman-Kolmogorov check: residual, exact value, grid value, status."""

    residual: float
    reference: float
    quadrature_value: float
    grid_mass_defect: float
    coarse_warning: bool


def chapman_kolmogorov_residual(params: ModelParams, spec: QuadratureSpec,
                                s: float, t: float, x: HalfSpacePoint,
                                y: HalfSpacePoint, n1: int = 400, np_: int = 200) -> CkResult:
    """|p_{s+t}(x,y) - int p_s(x,.) p_t(.,y) dmu| on a midpoint grid (d = 2).

    The intermediate integral runs over an interior midpoint grid, 7.5
    standard deviations out in each axis, plus the boundary row ``z1 = 0``
    with the weight ``1 / (2 theta)`` of mu; both factors are mu-densities
    on that one grid.  A grid too coarse to reproduce the mass of
    ``p_s(x, .)`` raises the ``coarse_warning`` flag instead of failing.
    """
    if params.d != 2:
        raise ValueError("Chapman-Kolmogorov residual implemented for d = 2")
    if s <= 0 or t <= 0:
        raise ValueError("need s, t > 0")
    horizon = max(s, t)
    spread = math.sqrt(horizon) * max(1.0, math.sqrt(params.a))
    z1_max = max(x.x1, y.x1) + 7.5 * math.sqrt(horizon)
    zp_halfwidth = 7.5 * spread

    xp = x.xp[0]
    yp = y.xp[0]
    center = 0.5 * (xp + yp)
    h1 = z1_max / n1
    z1 = np.r_[0.0, (np.arange(n1) + 0.5) * h1]
    hp = 2.0 * zp_halfwidth / np_
    w1 = np.r_[0.5 / params.theta, np.full(n1, h1)] * hp
    zp = center - zp_halfwidth + (np.arange(np_) + 0.5) * hp

    def grid_q(horizon, x1, v):
        # The fixed-rule local-time integrals on the (z1, v) grid, composed
        # into mu-densities as the total-mass check composes them.
        log_st = kernel._sticky_log_grid(params, horizon, x1 + z1, v)
        return np.exp(kernel._compose(params, horizon, x1, z1[:, None], v[None, :], log_st))

    q_left = grid_q(s, x.x1, np.abs(zp - xp))
    q_right = grid_q(t, y.x1, np.abs(zp - yp))
    value = float(w1 @ np.sum(q_left * q_right, axis=1))
    mass_left = float(w1 @ np.sum(q_left, axis=1))
    reference = math.exp(float(kernel.log_densities(params, spec, s + t, x.x1, y.x1,
                                                    abs(yp - xp))))
    return CkResult(abs(reference - value), reference, value,
                    abs(mass_left - 1.0), abs(mass_left - 1.0) > 1e-3)


def fp_residuals_from_fields(params: ModelParams, q_at, t: float, h: float,
                             test_points, boundary_points):
    """Finite-difference residuals of the coupled forward equations.

    ``q_at(t, y1, gaps)`` evaluates a mu-density field at arrays of heights
    ``y1`` and tangential offsets ``gaps`` (one row each) from the source
    column.  The interior density is ``u = q``, the boundary density
    ``v = q / (2 theta)`` at ``y1 = 0``.  Reports max-norm residuals of the
    interior heat equation ``d_t u = Laplacian(u)/2`` at the ``(y1, gap)``
    test points, and at the boundary gaps of the boundary equation
    ``d_t v = (a/2) Laplacian_tan(v) + d_{y1} u / 2`` (the outer normal points
    toward negative y1) and of the trace relation ``u/2 = theta v`` with u
    linearly extrapolated to the boundary.  Central differences use the same
    step ``h`` in time and space, so smooth solutions give residuals of
    second order in ``h``.  The stencils at each time level go to ``q_at`` as
    one batch: three calls in all.
    """
    if h <= 1e-6:
        raise ValueError("step too small; finite differences would cancel")
    d = params.d
    y1, g0 = np.asarray(test_points, dtype=float).reshape(-1, 2).T
    b0 = np.asarray(boundary_points, dtype=float)
    n = y1.size
    # Centres as (y1, gap) rows, the interior test points first.
    centres = np.zeros((n + b0.size, d))
    centres[:n, 0] = y1
    centres[:, 1] = np.r_[g0, b0]
    step = h * np.eye(d)
    # Interior stencil: the centre, then +h and -h along each axis.  Boundary
    # stencil: the centre, heights h and 2h, then +h and -h along each
    # tangential axis.
    shifts_int = np.vstack([np.zeros(d), step, -step])
    shifts_bnd = np.vstack([np.zeros(d), step[0], 2.0 * step[0], step[1:], -step[1:]])
    stencil = np.concatenate([(centres[:n, None, :] + shifts_int).reshape(-1, d),
                              (centres[n:, None, :] + shifts_bnd).reshape(-1, d)])

    def field(tt, pts):
        return q_at(tt, pts[:, 0], pts[:, 1:])

    q = field(t, stencil)
    u = q[:n * len(shifts_int)].reshape(n, -1).T
    qb = q[n * len(shifts_int):].reshape(b0.size, -1).T
    q_next, q_prev = field(t + h, centres), field(t - h, centres)

    def worst(r):
        return float(np.max(np.abs(r), initial=0.0))

    du_dt = (q_next[:n] - q_prev[:n]) / (2.0 * h)
    lap = sum((u[1 + k] - 2.0 * u[0] + u[1 + d + k]) / (h * h) for k in range(d))

    two_theta = 2.0 * params.theta
    v = qb / two_theta
    dv_dt = (q_next[n:] / two_theta - q_prev[n:] / two_theta) / (2.0 * h)
    lap_t = sum((v[3 + k] - 2.0 * v[0] + v[2 + d + k]) / (h * h) for k in range(d - 1))
    dn_u = (-3.0 * qb[0] + 4.0 * qb[1] - qb[2]) / (2.0 * h)
    return (worst(du_dt - 0.5 * lap),
            worst(dv_dt - 0.5 * params.a * lap_t - 0.5 * dn_u),
            worst(0.5 * (2.0 * qb[1] - qb[2]) - params.theta * v[0]))


def fokker_planck_residual(params: ModelParams, spec: QuadratureSpec, t: float,
                           x: HalfSpacePoint, h: float):
    """Residuals of the forward equations for the kernel started at ``x``.

    Hands the kernel's mu-density ``q_t(x, .)`` to
    :func:`fp_residuals_from_fields`, at three interior ``(y1, tangential
    gap)`` and three boundary gap test points: one ``kernel.log_densities``
    batch per time level.
    """
    if t < 0.1:
        raise ValueError("Fokker-Planck residuals need t >= 0.1 for stable differences")
    test_points = [(0.45, 0.15), (0.8, -0.3), (1.1, 0.45)]
    boundary_points = [0.1, -0.35, 0.6]
    xp = np.asarray(x.xp, dtype=float)

    def q_at(tt, y1, gaps):
        v = np.linalg.norm((xp + gaps) - xp, axis=-1)
        return np.exp(kernel.log_densities(params, spec, tt, x.x1, y1, v))

    return fp_residuals_from_fields(params, q_at, t, h, test_points, boundary_points)


def reference_csv(header, rows) -> str:
    """The CSV text of ``header`` and ``rows`` as ``csv.writer`` writes it
    with each value formatted on its own: a float at 17 significant digits,
    anything else by ``str``."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return fh.getvalue()


def readme_cli_lines():
    """The ``stickybm ...`` lines of README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("stickybm ")]
