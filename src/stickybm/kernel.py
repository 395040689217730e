"""Exact transition kernel of sticky-reflecting Brownian motion in half-spaces.

The kernel at horizon ``t`` started from ``x = (x1, x')`` has a density
w.r.t. the stationary measure mu, ``dy1 dy'`` inside and ``dy' / (2 theta)``
on the boundary ``{y1 = 0}``:

    q_t(x, y) = g0_t(x1, y1) g(t, y'-x')
                + 2 * int_0^{theta t} h(t - l/theta, l + x1 + y1)
                                      g(t + A l/theta, y'-x') dl,

with ``A = a - 1``, ``h`` the 1-D first-hitting density and ``g0`` the killed
kernel.  At ``y1 = 0`` the first term vanishes, and the kernel's boundary
density w.r.t. ``dy'`` is ``q / (2 theta)``.  The local-time integral is
computed after the substitution ``L = l / (theta t)`` on [0, 1], in the
variable ``m = 1 - L``, by one adaptive quadrature split at the largest of
the integrand's values on a fixed grid; the adaptive bisection locates the
true peak within the grid cell next to the split.  It works in the log
domain with max-exponent shifts, so no value underflows however small
``t`` is; convergence is another matter.  Every integral of the tests'
1 500-draw sweep (``t`` from 1e-3 to 3) converges.  With ``t = 1e-4`` or
``1e-5`` in place of the drawn horizon, 9 and 21 of its first 300 draws raise
:class:`QuadratureError`: all start on the boundary (``s = 0``) with
``theta`` below 0.19, and a panel inside ``m < 1.1e-6`` still disagrees
after the 20 subdivisions allowed.  Below ``t`` of about 5e-6 an integral
can also be wrong with nothing raised: the peak is then far narrower than
the grid cell it lies in, every Gauss node of its panel misses it, and both
estimates agree on the background.  With ``t = 1e-6`` in place of the drawn
horizon, 21 of the sweep's 1 374 converging integrals are off by more than
1e-9 relative (up to 361 in log), all with ``a > 1`` and a tangential gap
of about 1 400 standard deviations or more; 5 of 1 395 at ``t = 3e-6``.
Allowed 40 subdivisions, where every draw converges, none is off at the
drawn horizons or at ``t = 1e-3``, ``1e-4`` and ``1e-5``.

:func:`log_sticky_integral` takes arrays of horizons and gaps, which
broadcast against each other, and integrates all of them in one
breadth-first batch; it is the one place that handles their shapes, and it
hands ``log_integrate`` a flat batch of integrands on ``[0, 1]``, one peak
split each and one integrand per distinct ``(t, s, v)`` triple, so a pair
that repeats at one horizon (``|y' - x'|`` across a grid's symmetric axis)
is integrated once, and an experiment's horizons share one batch.  Every log
of a horizon is ``np.log``, whose bits do not depend on the layout of its
array, so a value does not depend on the rest of its batch either.
:func:`log_densities` turns such a batch into ``log q``, and it is the one
way to evaluate the kernel.  The building blocks ``h``, ``g`` and ``g0``
exist only as their logarithms (``_log_h``, ``_log_g``, and ``_log_g`` plus
the killing term in ``_log_killed_kernel``); ``_log_h``, ``_log_g``, the
integrand and the fixed rule write into one output array per call, not a
temporary per operator, in the order of the plain expressions (the tests'
oracles), so their values are the same bits.  The total-mass check
:func:`kernel_total_mass` uses the fixed-rule ``_sticky_log_grid`` instead:
about 10^5 values cost hundredths of a second there against seconds
adaptively.  The Chapman-Kolmogorov and Fokker-Planck residuals, which only
the tests run, live in the test suite's oracles.

Each integral of the kernel over a region is one call on one node set whose
boundary nodes carry mu's weight ``1 / (2 theta)``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _check_dim
from .quadrature import QuadratureSpec, QuadratureError, gauss_legendre, log_integrate

__all__ = ["log_densities", "log_sticky_integral", "kernel_total_mass"]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Building-block log densities
# ---------------------------------------------------------------------------

def _log_h(t, w, out=None):
    """log h(t, w), vectorized, -inf where the density vanishes.

    Writes into ``out`` when given: an array of the broadcast shape, which
    may be ``w`` itself.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    t_pos, w_pos = t > 0, w > 0
    t_safe = np.where(t_pos, t, 1.0)
    shape = np.broadcast(t, w).shape
    if out is None:
        out = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.multiply(w, w, out=np.empty(shape))
        tail /= 2.0 * t_safe
        if out is not w:
            np.copyto(out, w)
        np.copyto(out, 1.0, where=~w_pos)
        np.log(out, out=out)
        out -= 0.5 * _LOG_2PI
        out -= 1.5 * np.log(t_safe)
        out -= tail
    np.copyto(out, -np.inf, where=~(t_pos & w_pos))
    return out


def _log_g(t, v, d):
    """log of the (d-1)-Gaussian at radius v, vectorized."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.divide(v * v, 2.0 * t, out=np.empty(np.broadcast(t, v).shape))
    lead = np.log(t)
    lead += _LOG_2PI
    lead *= -0.5 * (d - 1)
    return np.subtract(lead, out, out=out)


def _log_killed_kernel(t, x1, z):
    """log g0_t(x1, z): the 1-D Gaussian times the killing term, -inf on the boundary."""
    cross = 2.0 * x1 * z / t
    with np.errstate(divide="ignore"):
        correction = np.where(cross > 0, np.log1p(-np.exp(-np.where(cross > 0, cross, 1.0))), -np.inf)
    return _log_g(t, x1 - z, 2) + correction


# ---------------------------------------------------------------------------
# The local-time integral, adaptive and fixed-grid variants
# ---------------------------------------------------------------------------

def _sticky_log_integrand_m(params: ModelParams, t, s, v):
    """Batched log of h(t(1-L), theta t L + s) g(t(1+A L), v) in m = 1-L.

    ``t``, ``s`` and ``v`` broadcast to 1-D arrays.  Returns
    ``log_f(rows, m)`` evaluating integrand ``rows[k]``, with horizon
    ``t[rows[k]]`` and gaps ``s[rows[k]]`` and ``v[rows[k]]``, at the nodes
    ``m[k, :]``.  The singular endpoint L = 1 becomes m = 0, where
    floating-point nodes are exact; forming ``1 - L`` directly loses up to
    ten digits in the exponent once the integrand concentrates there.
    """
    th, big_a, d = params.theta, params.big_a, params.d
    t, s, v = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (t, s, v)))
    # Each integrand's coefficients, gathered for a call's rows in one step.
    # A batch with one horizon keeps the horizon's four as scalars, which
    # numpy applies to every node faster than a column of equal values.
    coefficients = np.stack((th * t + s, v, th * t, t, t * big_a, t * (1.0 + big_a)))
    shared = []
    if t.size and (t == t[0]).all():
        shared, coefficients = coefficients[2:, 0].tolist(), coefficients[:2]

    def log_f(rows, m):
        m = np.asarray(m, dtype=float)
        w_top, v_rows, *per_row = coefficients[:, rows, None]
        th_t, t_rows, t_slope, t_top = shared or per_row
        w = np.multiply(th_t, m)
        np.subtract(w_top, w, out=w)
        out = _log_h(t_rows * m, w, out=w)
        t_g = np.multiply(t_slope, m)
        np.subtract(t_top, t_g, out=t_g)
        out += _log_g(t_g, v_rows, d)
        return out

    return log_f


# The peak split's grid, increasing: dyadic from 2^-40 to 2^-7, then
# uniform on [1/64, 1].  (Not np.unique: it imports numpy.ma, which
# would add to every cold start.)
_PEAK_GRID = np.concatenate([
    np.geomspace(2.0 ** -40, 2.0 ** -7, 34),
    np.linspace(0.0, 1.0, 65)[1:],
])


def _sticky_peak_m(log_f, n: int) -> np.ndarray:
    """The node of ``_PEAK_GRID`` where each of n integrands is largest.

    For a unimodal integrand the true maximum lies within one grid cell of
    that node, so each side of a split there is monotone except on the
    cell next to the split, where the adaptive bisection isolates the peak.
    An integrand largest at ``m = 1`` gets no split.
    """
    grid = _PEAK_GRID
    return grid[np.argmax(log_f(np.arange(n), np.broadcast_to(grid, (n, grid.size))), axis=1)]


# Integrands per breadth-first pass: bounds the peak grid's and the
# quadrature's working arrays whatever the size of the batch.
_MAX_BATCH = 1024


def log_sticky_integral(params: ModelParams, spec: QuadratureSpec, t, s, v):
    """log of ``theta t * int_0^1 h(t(1-L), theta t L + s) g(t(1+AL), v) dL``.

    The horizon ``t`` and the gaps ``s`` and ``v`` broadcast against each
    other; the result has their shape (a float for scalars).  Each integrand
    is integrated in the variable m = 1-L over [0, 1] by one breadth-first
    adaptive quadrature over the whole batch, split at the integrand's
    largest value on ``_PEAK_GRID``.  For a unimodal integrand each panel is
    then monotone except on the grid cell next to the split, which holds the
    peak; the bisection confines it to ever smaller panels and puts boundary
    layers at panel ends.  Batches larger than ``_MAX_BATCH`` run in passes
    of that size; every value is the same as when its integrand is evaluated
    alone.  Raises ``ValueError`` unless every ``t`` lies in ``(0, inf)``; a
    quadrature failure is re-raised as :class:`QuadratureError` naming
    ``a``, ``theta`` and the failing integrand's ``t``, ``s`` and ``v``, with
    its caller's flat index.
    """
    t = np.asarray(t, dtype=float)
    ok = (t > 0.0) & (t < math.inf)
    if not ok.all():
        raise ValueError(f"log_sticky_integral needs 0 < t < inf, got t={float(t[~ok][0])!r}")
    t, s, v = np.broadcast_arrays(t, np.asarray(s, dtype=float), np.asarray(v, dtype=float))
    shape = s.shape
    # Each distinct (t, s, v) triple is integrated once: sorted by (t, s, v),
    # a triple opens a group where it differs from the one before it.
    t, s, v = t.ravel(), s.ravel(), v.ravel()
    order = np.lexsort((v, s, t))
    t, s, v = t[order], s[order], v[order]
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = (t[1:] != t[:-1]) | (s[1:] != s[:-1]) | (v[1:] != v[:-1])
    caller = order[opens]
    t, s, v = t[opens], s[opens], v[opens]
    th = params.theta
    log_th_t = np.log(th * t)
    values = np.empty(s.size)
    for start in range(0, s.size, _MAX_BATCH):
        part = slice(start, start + _MAX_BATCH)
        log_f = _sticky_log_integrand_m(params, t[part], s[part], v[part])
        peaks = _sticky_peak_m(log_f, s[part].size)
        try:
            values[part] = log_th_t[part] + log_integrate(log_f, peaks, spec)
        except QuadratureError as exc:
            k = start + exc.index
            raise QuadratureError(
                f"sticky integral at a={params.a!r}, theta={th!r}, t={float(t[k])!r}, "
                f"s={float(s[k])!r}, v={float(v[k])!r}: {exc}", index=int(caller[k])) from exc
    out = np.empty(order.size)
    out[order] = values[np.cumsum(opens) - 1]
    return float(out[0]) if shape == () else out.reshape(shape)


# Gauss-Legendre nodes per panel, and dyadic panel levels toward each end of
# [0, 1], of the fixed rule in _sticky_log_grid, and its panel edges in
# increasing order (not np.unique, which imports numpy.ma; see _PEAK_GRID).
_GRID_ORDER = 12
_GRID_DEPTH = 14
_GRID_EDGES = np.concatenate([
    [0.0],
    2.0 ** -np.arange(_GRID_DEPTH, 0, -1, dtype=float),
    1.0 - 2.0 ** -np.arange(2, _GRID_DEPTH + 1, dtype=float),
    [1.0],
])


def _panel_rule(edges):
    """Nodes and weights of the composite ``_GRID_ORDER``-point Gauss-Legendre
    rule on the panels between increasing ``edges``."""
    nodes01, w01 = gauss_legendre(_GRID_ORDER)
    widths = np.diff(edges)[:, None]
    return (edges[:-1, None] + widths * nodes01[None, :]).ravel(), (widths * w01[None, :]).ravel()


def _sticky_log_grid(params: ModelParams, t: float, s_vals, v_vals):
    """Batched fixed-rule log local-time integrals on the (s, v) product grid.

    Returns a ``(len(s), len(v))`` matrix of
    ``log[theta t int_0^1 h(t(1-L), theta t L + s_i) g(t(1+AL), v_j) dL]``.
    Works in the variable m = 1-L with a panel layout dyadic toward both
    endpoints; adequate for moderate exponents (kernel horizons t >= ~0.05
    over a few standard deviations), where the integrand has no sharp
    interior layer.  The separable (node, s) x (node, v) structure turns the
    quadrature into one matrix product per grid.
    """
    m, w = _panel_rule(_GRID_EDGES)
    s_vals = np.asarray(s_vals, dtype=float).ravel()
    v_vals = np.asarray(v_vals, dtype=float).ravel()
    th, big_a, d = params.theta, params.big_a, params.d

    w_h = (th * t + s_vals[:, None]) - (th * t * m)[None, :]
    f1 = _log_h((t * m)[None, :], w_h, out=w_h)
    f1 += np.log(w)[None, :]
    f1 += np.log(th * t)
    f2 = _log_g((t * (1.0 + big_a) - t * big_a * m)[None, :], v_vals[:, None], d)

    m1 = np.max(f1, axis=1)
    m2 = np.max(f2, axis=1)
    f1 -= m1[:, None]
    f2 -= m2[:, None]
    prod = np.exp(f1, out=f1) @ np.exp(f2, out=f2).T
    with np.errstate(divide="ignore"):
        np.log(prod, out=prod)
    out = m1[:, None] + m2[None, :]
    out += prod
    return out


# ---------------------------------------------------------------------------
# Transition kernel
# ---------------------------------------------------------------------------

def _compose(params: ModelParams, t, x1, y1, v, log_st) -> np.ndarray:
    """``log q`` from the log local-time integral ``log_st``: the sticky part
    ``2 exp(log_st)`` plus the boundary-avoiding part, which vanishes at
    ``y1 = 0``."""
    log_avoiding = _log_killed_kernel(t, x1, y1) + _log_g(t, v, params.d)
    return np.logaddexp(math.log(2.0) + log_st, log_avoiding)


def log_densities(params: ModelParams, spec: QuadratureSpec, t, x1, y1, v) -> np.ndarray:
    """Log of the kernel's mu-density ``q_t`` at broadcast arrays of horizon
    ``t``, source height ``x1``, target height ``y1`` and tangential
    distance ``v = |y' - x'|``.

    At a boundary target the kernel's density w.r.t. ``dy'`` is
    ``q / (2 theta)``.  All local-time integrals, at every horizon, go to
    :func:`log_sticky_integral` as one batch.  Raises ``ValueError``, naming
    the argument and its first bad value, unless ``t`` is positive and
    finite, ``x1`` and ``y1`` are finite and at least 0, and ``v`` is at
    least 0 (``v = inf`` is a zero density).
    """
    t, x1, y1, v = (np.asarray(z, dtype=float) for z in (t, x1, y1, v))
    for name, z, ok, need in (("t", t, (t > 0.0) & (t < math.inf), "positive and finite"),
                              ("x1", x1, (x1 >= 0.0) & (x1 < math.inf), "finite and at least 0"),
                              ("y1", y1, (y1 >= 0.0) & (y1 < math.inf), "finite and at least 0"),
                              ("v", v, v >= 0.0, "at least 0")):
        if not ok.all():
            raise ValueError(f"log_densities needs {name} {need}, got {name}={float(z[~ok][0])!r}")
    x1, y1, v = np.broadcast_arrays(x1, y1, v)
    return _compose(params, t, x1, y1, v, log_sticky_integral(params, spec, t, x1 + y1, v))


# ---------------------------------------------------------------------------
# The total-mass check
# ---------------------------------------------------------------------------

def _box(params: ModelParams, t: float, x1: float, extent: float):
    """Top height ``x1 + extent sqrt(t)`` and tangential half-width of a box
    ``extent`` standard deviations out; along the boundary a deviation is
    ``sqrt(t)`` times ``sqrt(a)`` when ``a > 1``."""
    root_t = math.sqrt(t)
    return x1 + extent * root_t, extent * (root_t * max(1.0, math.sqrt(params.a)))


def kernel_total_mass(params: ModelParams, t: float, x: HalfSpacePoint) -> float:
    """Total mass of the kernel by tensor quadrature (d = 2 or 3).

    Integrates the kernel's mu-density against mu over a box truncated 8.5
    standard deviations out (composite 12-point Gauss-Legendre on 8 panels
    per axis, radial in the tangential direction for d = 3): the interior
    rows carry their ``y1`` weights and the boundary row ``y1 = 0`` the
    weight ``1 / (2 theta)``, all in one fixed-rule grid.  Should return 1
    up to quadrature and truncation error.  Raises ``ValueError`` unless
    ``0 < t < inf`` and ``x`` has dimension ``params.d``.
    """
    if params.d not in (2, 3):
        raise ValueError("total-mass quadrature implemented for d = 2 and 3")
    if not 0.0 < t < math.inf:
        raise ValueError(f"kernel_total_mass needs 0 < t < inf, got t={t!r}")
    _check_dim(params, x)
    y1_max, v_max = _box(params, t, x.x1, 8.5)
    u, wu = _panel_rule(np.linspace(0.0, 1.0, 9))

    y1 = np.r_[0.0, u * y1_max]
    w_y1 = np.r_[0.5 / params.theta, wu * y1_max]
    v = u * v_max
    w_v = wu * v_max
    if params.d == 2:
        w_ang = np.full_like(v, 2.0)  # y' = x' +/- v
    else:
        w_ang = 2.0 * math.pi * v  # radial measure in the tangential plane

    log_st = _sticky_log_grid(params, t, x.x1 + y1, v)
    logq = _compose(params, t, x.x1, y1[:, None], v[None, :], log_st)
    return float(w_y1 @ np.exp(logq) @ (w_v * w_ang))
