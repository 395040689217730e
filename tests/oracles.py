"""Independent numerical oracles shared across the test suite.

Everything here deliberately avoids the closed forms under test: the sticky
rate is minimized by golden section, transport values by explicit
enumeration, entropic plans by plain log-domain Sinkhorn, and reference
integrals by fixed-order Gauss-Legendre.  The sampler's oracle
:func:`horizontal_cdf` integrates the kernel's hitting and Gaussian log
densities (``_log_h``, ``_log_g``) over local time by quadrature, apart from
the sampler's inversion of the sticky clock; :func:`euler_thin_layer` is a
deliberately crude, biased scheme for qualitative comparisons.  Monte Carlo
hit counts have the unpruned :func:`unpruned_hit_counts`, which steps every
path through every waypoint in one walk.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from stickybm.geometry import HalfSpacePoint, ModelParams
from stickybm.kernel import _log_g, _log_h
from stickybm.quadrature import gauss_legendre
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
# Sampler oracles
# ---------------------------------------------------------------------------

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
