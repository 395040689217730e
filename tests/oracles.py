"""Independent numerical oracles shared across the test suite.

Everything here deliberately avoids the closed forms under test: the sticky
rate is minimized by golden section, transport values by explicit
enumeration, entropic plans by plain log-domain Sinkhorn, and reference
integrals by fixed-order Gauss-Legendre.
"""

import itertools
import math

import numpy as np


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
