"""Exact transition kernel of sticky-reflecting Brownian motion in half-spaces.

The kernel at horizon ``t`` started from ``x = (x1, x')`` has an interior
density (w.r.t. ``dy1 dy'``)

    rho_int + rho_st = g0_t(x1, y1) g(t, y'-x')
                       + 2 * int_0^{theta t} h(t - l/theta, l + x1 + y1)
                                             g(t + A l/theta, y'-x') dl

and a boundary density (w.r.t. ``dy'`` on ``{y1 = 0}``)

    (1/theta) * int_0^{theta t} h(t - l/theta, l + x1) g(t + A l/theta, y'-x') dl,

with ``A = a - 1``, ``h`` the 1-D first-hitting density and ``g0`` the killed
kernel.  The local-time integral is computed after the substitution
``L = l / (theta t)`` on [0, 1], in the variable ``m = 1 - L``, by one
adaptive quadrature split at the integrand's peak, which safeguarded Newton
steps on the closed-form m-derivatives of the log integrand locate.  It works
in the log domain with max-exponent shifts, so horizons down to ``t ~ 1e-3``
stay representable.

:func:`log_sticky_integral` takes arrays of gaps and integrates all of them
in one breadth-first batch; :func:`log_densities` turns such a batch into
interior and boundary densities, and it is the one way to evaluate the
kernel.  The tensor-grid checks (total mass, Chapman-Kolmogorov)
use the fixed-rule ``_sticky_log_grid`` instead: about 10^5 values cost
hundredths of a second there against seconds adaptively.

``LogDensities.interior`` is the kernel's density w.r.t. the stationary
measure mu, ``dy1 dy'`` inside and ``dy' / (2 theta)`` on the boundary.  So
each integral of the kernel over a region is one call on one node set whose
boundary nodes carry mu's weight ``1 / (2 theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import HalfSpacePoint, ModelParams
from .quadrature import QuadratureSpec, QuadratureError, gauss_legendre, log_integrate

__all__ = [
    "LogDensities",
    "CkResult",
    "hitting_density",
    "killed_kernel",
    "gaussian_density",
    "bivariate_density",
    "log_densities",
    "log_sticky_integral",
    "chapman_kolmogorov_residual",
    "fokker_planck_residual",
    "fp_residuals_from_fields",
    "kernel_total_mass",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Building-block densities
# ---------------------------------------------------------------------------

def hitting_density(t: float, x1: float) -> float:
    """First-hitting density at the origin for 1-D Brownian motion from x1.

    ``h(t, x1) = x1 / (sqrt(2 pi) t^{3/2}) exp(-x1^2 / (2t))``.
    """
    if t <= 0:
        raise ValueError("hitting_density needs t > 0")
    if x1 < 0:
        raise ValueError("x1 must be nonnegative")
    return math.exp(_log_h(t, x1))


def killed_kernel(t: float, x1: float, z: float) -> float:
    """Kernel of Brownian motion killed at the origin.

    ``g0_t(x1, z) = (2 pi t)^{-1/2} [exp(-(x1-z)^2/2t) - exp(-(x1+z)^2/2t)]``;
    vanishes when either argument sits on the boundary.
    """
    if t <= 0:
        raise ValueError("killed_kernel needs t > 0")
    lg = _log_killed_kernel(t, x1, z)
    return math.exp(lg) if lg > -math.inf else 0.0


def gaussian_density(t: float, zp, d: int = None) -> float:
    """Standard (d-1)-dimensional Gaussian density at tangential vector zp."""
    if t <= 0:
        raise ValueError("gaussian_density needs t > 0")
    zp = np.atleast_1d(np.asarray(zp, dtype=float))
    return math.exp(_log_g(t, math.sqrt(float(zp @ zp)), zp.size + 1 if d is None else d))


def _log_h(t, w):
    """log h(t, w), vectorized, -inf where the density vanishes."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            (t > 0) & (w > 0),
            np.log(np.where(w > 0, w, 1.0)) - 0.5 * _LOG_2PI
            - 1.5 * np.log(np.where(t > 0, t, 1.0))
            - w * w / (2.0 * np.where(t > 0, t, 1.0)),
            -np.inf,
        )
    return out


def _log_g(t, v, d):
    """log of the (d-1)-Gaussian at radius v, vectorized."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    return -0.5 * (d - 1) * (np.log(t) + _LOG_2PI) - v * v / (2.0 * t)


def _log_killed_kernel(t, x1, z):
    """log g0_t(x1, z) computed as a stable product, -inf on the boundary."""
    x1 = np.asarray(x1, dtype=float)
    z = np.asarray(z, dtype=float)
    cross = 2.0 * x1 * z / t
    with np.errstate(divide="ignore"):
        correction = np.where(cross > 0, np.log1p(-np.exp(-np.where(cross > 0, cross, 1.0))), -np.inf)
    return -0.5 * (math.log(t) + _LOG_2PI) - (x1 - z) ** 2 / (2.0 * t) + correction


# ---------------------------------------------------------------------------
# Bivariate horizontal law (position, local time)
# ---------------------------------------------------------------------------

def bivariate_density(params: ModelParams, t: float, x1: float, z: float, l: float):
    """Components of the joint law of (horizontal position, local time).

    Returns ``(diffuse, boundary_atom_in_z, zero_local_time_atom)``:
    the jointly diffuse part ``2 h(t - l/theta, l + x1 + z)`` (density in
    ``dz dl``), the boundary atom ``(1/theta) h(t - l/theta, l + x1)``
    (density in ``dl`` on ``{z = 0}``), and the no-visit part
    ``g0_t(x1, z)`` (density in ``dz`` on ``{l = 0}``).
    """
    th = params.theta
    if t <= 0:
        raise ValueError("bivariate_density needs t > 0")
    if z < 0 or l < 0 or l > th * t * (1 + 1e-12):
        raise ValueError("need z >= 0 and 0 <= l <= theta * t")
    tau = t - l / th
    diffuse = 2.0 * (hitting_density(tau, l + x1 + z) if tau > 0 else 0.0)
    boundary = (hitting_density(tau, l + x1) if tau > 0 else 0.0) / th
    zero_l = killed_kernel(t, x1, z)
    return diffuse, boundary, zero_l


# ---------------------------------------------------------------------------
# The local-time integral, adaptive and fixed-grid variants
# ---------------------------------------------------------------------------

def _sticky_log_integrand_m(params: ModelParams, t: float, s: np.ndarray, v: np.ndarray):
    """Batched log of h(t(1-L), theta t L + s) g(t(1+A L), v) in m = 1-L.

    Returns ``log_f(rows, m)`` evaluating integrand ``rows[k]``, with gaps
    ``s[rows[k]]`` and ``v[rows[k]]``, at the nodes ``m[k, :]``.  The
    singular endpoint L = 1 becomes m = 0, where floating-point nodes are
    exact; forming ``1 - L`` directly loses up to ten digits in the exponent
    once the integrand concentrates there.
    """
    th, big_a, d = params.theta, params.big_a, params.d
    w_top = th * t + s

    def log_f(rows, m):
        m = np.asarray(m, dtype=float)
        return (_log_h(t * m, w_top[rows, None] - th * t * m)
                + _log_g(t * (1.0 + big_a) - t * big_a * m, v[rows, None], d))

    return log_f


def _sticky_log_slopes_m(params: ModelParams, t: float, s: np.ndarray, v: np.ndarray):
    """First and second m-derivatives of :func:`_sticky_log_integrand_m`.

    Returns ``slopes(rows, m)`` giving ``(f', f'')`` of integrand ``rows[k]``
    at ``m[k]``.  With ``u = theta t + s - theta t m`` and
    ``T = t (1 + A (1 - m))``,

        f'(m) = -theta t/u - 1.5/m + theta u/m + u^2/(2 t m^2)
                + (d-1) t A/(2T) - v^2 t A/(2 T^2).
    """
    th, big_a, d = params.theta, params.big_a, params.d
    w_top = th * t + s
    v2 = v * v

    def slopes(rows, m):
        u = w_top[rows] - th * t * m
        big_t = t * (1.0 + big_a) - t * big_a * m
        ta = t * big_a / big_t
        d1 = (-th * t / u - 1.5 / m + th * u / m + u * u / (2.0 * t * m * m)
              + (0.5 * (d - 1) - 0.5 * v2[rows] / big_t) * ta)
        d2 = (-(th * t / u) ** 2 + 1.5 / (m * m) - th * th * t / m - 2.0 * th * u / (m * m)
              - u * u / (t * m ** 3) + (0.5 * (d - 1) - v2[rows] / big_t) * ta * ta)
        return d1, d2

    return slopes


# The peak search's bracketing grid, increasing: dyadic from 2^-40 to 2^-7,
# then uniform on [1/64, 1].  (Not np.unique: it imports numpy.ma, which
# would add to every cold start.)
_PEAK_GRID = np.concatenate([
    np.geomspace(2.0 ** -40, 2.0 ** -7, 34),
    np.linspace(0.0, 1.0, 65)[1:],
])


# Cap on the peak search's Newton passes; every integrand of the tests'
# sweeps stops within 13 and every benchmark batch within 8.
_PEAK_PASSES = 40


def _sticky_peak_m(log_f, slopes, n: int) -> np.ndarray:
    """Locate the interior maximum over m in (0, 1] of each of n integrands.

    A coarse grid brackets each maximum between the neighbours of its largest
    value; a safeguarded Newton iteration on ``slopes = (f', f'')`` then
    refines all integrands at once.  The sign of ``f'`` at each iterate
    shrinks the bracket, and a step that leaves the bracket or meets
    ``f'' >= 0`` bisects it instead.  An integrand whose grid maximum is at
    ``m = 1`` with ``f'(1) >= 0`` peaks there.  Each integrand stops on its
    own, once its Newton step is below ``1e-10`` of the iterate or its
    bracket below ``1e-9`` of its upper end.  The peak only needs to land
    within a panel of its true location, the adaptive integrator resolves
    the rest.
    """
    grid = _PEAK_GRID
    live = np.arange(n)
    i = np.argmax(log_f(live, np.broadcast_to(grid, (n, grid.size))), axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, grid.size - 1)]
    m = grid[i]
    peak = np.empty(n)
    for _ in range(_PEAK_PASSES):
        with np.errstate(divide="ignore", invalid="ignore"):
            d1, d2 = slopes(live, m)
            step = -d1 / d2
        lo, hi = np.where(d1 > 0.0, m, lo), np.where(d1 < 0.0, m, hi)
        newton = m + step
        ok = (d2 < 0.0) & (newton >= lo) & (newton <= hi)
        m = np.where(ok, newton, 0.5 * (lo + hi))
        stop = (ok & (np.abs(step) <= 1e-10 * m)) | (hi - lo < 1e-9 * hi)
        if stop.any():
            peak[live[stop]] = m[stop]
            go = ~stop
            live, lo, hi, m = (z[go] for z in (live, lo, hi, m))
            if live.size == 0:
                break
    peak[live] = m
    return peak


# Integrands per breadth-first pass: bounds the peak search's and the
# quadrature's working arrays whatever the size of the batch.
_MAX_BATCH = 4096


def log_sticky_integral(params: ModelParams, spec: QuadratureSpec, t: float, s, v):
    """log of ``theta t * int_0^1 h(t(1-L), theta t L + s) g(t(1+AL), v) dL``.

    ``s`` and ``v`` broadcast against each other; the result has their
    shape (a float for scalars).  Each integrand is integrated in the
    variable m = 1-L over [0, 1] by one breadth-first adaptive quadrature
    over the whole batch, split at the integrand's own peak so that each
    panel is monotone and boundary layers sit at panel ends.  Batches larger
    than ``_MAX_BATCH`` run in passes of that size; every value is the same
    as when its integrand is evaluated alone.  Raises ``ValueError`` unless
    ``0 < t < inf``; a quadrature failure is re-raised as
    :class:`QuadratureError` naming ``a``, ``theta``, ``t`` and the failing
    integrand's ``s`` and ``v``.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"log_sticky_integral needs 0 < t < inf, got t={t!r}")
    s, v = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(v, dtype=float))
    shape = s.shape
    s, v = s.ravel(), v.ravel()
    th = params.theta
    out = np.empty(s.size)
    for start in range(0, s.size, _MAX_BATCH):
        part = slice(start, start + _MAX_BATCH)
        log_f = _sticky_log_integrand_m(params, t, s[part], v[part])
        peaks = _sticky_peak_m(log_f, _sticky_log_slopes_m(params, t, s[part], v[part]),
                               s[part].size)
        try:
            out[part] = math.log(th * t) + log_integrate(
                log_f, np.zeros(peaks.size), 1.0, spec, split_points=peaks[:, None])
        except QuadratureError as exc:
            k = start + exc.index
            raise QuadratureError(
                f"sticky integral at a={params.a!r}, theta={th!r}, t={t!r}, "
                f"s={float(s[k])!r}, v={float(v[k])!r}: {exc}", index=k) from exc
    return float(out[0]) if shape == () else out.reshape(shape)


# Gauss-Legendre nodes per panel, and dyadic panel levels toward each end of
# [0, 1], of the fixed rule in _sticky_log_grid.
_GRID_ORDER = 12
_GRID_DEPTH = 14


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
    edges = np.unique(np.concatenate([
        [0.0, 1.0],
        2.0 ** -np.arange(1, _GRID_DEPTH + 1, dtype=float),
        1.0 - 2.0 ** -np.arange(1, _GRID_DEPTH + 1, dtype=float),
    ]))
    nodes01, w01 = gauss_legendre(_GRID_ORDER)
    m = (edges[:-1, None] + np.diff(edges)[:, None] * nodes01[None, :]).ravel()
    w = (np.diff(edges)[:, None] * w01[None, :]).ravel()

    s_vals = np.asarray(s_vals, dtype=float).ravel()
    v_vals = np.asarray(v_vals, dtype=float).ravel()
    th, big_a, d = params.theta, params.big_a, params.d

    f1 = _log_h((t * m)[None, :], (th * t + s_vals[:, None]) - (th * t * m)[None, :])
    f1 = f1 + np.log(w)[None, :] + math.log(th * t)
    f2 = _log_g((t * (1.0 + big_a) - t * big_a * m)[None, :], v_vals[:, None], d)

    m1 = np.max(f1, axis=1)
    m2 = np.max(f2, axis=1)
    e1 = np.exp(f1 - m1[:, None])
    e2 = np.exp(f2 - m2[:, None])
    prod = e1 @ e2.T
    with np.errstate(divide="ignore"):
        return m1[:, None] + m2[None, :] + np.log(prod)


# ---------------------------------------------------------------------------
# Transition kernel
# ---------------------------------------------------------------------------

class LogDensities(NamedTuple):
    """Log kernel densities, one entry per (x1, y1, v) triple.

    ``interior`` is ``log(rho_int + rho_st)``, the interior density (the
    interior limit at boundary targets); ``boundary`` is the log boundary
    density at boundary targets (``y1 == 0``) and ``-inf`` elsewhere.
    ``rho_int`` and ``rho_st`` are the logs of the boundary-avoiding and
    sticky parts.  At every target ``interior`` is also the log density
    w.r.t. the stationary measure: on the boundary ``rho_int`` vanishes and
    ``rho_st = 2 theta * boundary density``.
    """

    interior: np.ndarray
    boundary: np.ndarray
    rho_int: np.ndarray
    rho_st: np.ndarray


def _compose(params: ModelParams, t: float, x1, y1, v, log_st) -> LogDensities:
    """The kernel densities from the log local-time integral ``log_st``."""
    log_rho_int = _log_killed_kernel(t, x1, y1) + _log_g(t, v, params.d)
    log_rho_st = math.log(2.0) + log_st
    log_boundary = np.where(np.asarray(y1) == 0.0, log_st - math.log(params.theta), -np.inf)
    return LogDensities(np.logaddexp(log_rho_st, log_rho_int), log_boundary,
                        log_rho_int, log_rho_st)


def log_densities(params: ModelParams, spec: QuadratureSpec, t: float,
                  x1, y1, v) -> LogDensities:
    """Log kernel densities at broadcast arrays of source height ``x1``,
    target height ``y1`` and tangential distance ``v = |y' - x'|``.

    All local-time integrals go to :func:`log_sticky_integral` as one batch.
    """
    x1, y1, v = np.broadcast_arrays(*(np.asarray(z, dtype=float) for z in (x1, y1, v)))
    return _compose(params, t, x1, y1, v, log_sticky_integral(params, spec, t, x1 + y1, v))


# ---------------------------------------------------------------------------
# Grid-based consistency checks
# ---------------------------------------------------------------------------

def _grid_densities(params, t, x1, y1_grid, v_grid) -> LogDensities:
    """Log kernel densities on the tensor grid (y1_grid, v_grid) from the
    fixed-rule local-time integrals of :func:`_sticky_log_grid`."""
    y1 = np.asarray(y1_grid, dtype=float)
    v = np.asarray(v_grid, dtype=float)
    log_st = _sticky_log_grid(params, t, x1 + y1, v)
    return _compose(params, t, x1, y1[:, None], v[None, :], log_st)


def kernel_total_mass(params: ModelParams, t: float, x: HalfSpacePoint) -> float:
    """Total mass of the kernel by tensor quadrature (d = 2 or 3).

    Integrates the kernel's mu-density against mu over a box truncated 8.5
    standard deviations out (composite 12-point Gauss-Legendre on 8 panels
    per axis, radial in the tangential direction for d = 3): the interior
    rows carry their ``y1`` weights and the boundary row ``y1 = 0`` the
    weight ``1 / (2 theta)``, all in one fixed-rule grid.  Should return 1
    up to quadrature and truncation error.
    """
    if params.d not in (2, 3):
        raise ValueError("total-mass quadrature implemented for d = 2 and 3")
    panels, extent = 8, 8.5
    x1 = x.x1
    spread = math.sqrt(t) * max(1.0, math.sqrt(params.a))
    y1_max = x1 + extent * math.sqrt(t)
    v_max = extent * spread

    nodes01, w01 = gauss_legendre(12)
    edges = np.linspace(0.0, 1.0, panels + 1)
    u = (edges[:-1, None] + np.diff(edges)[:, None] * nodes01[None, :]).ravel()
    wu = (np.diff(edges)[:, None] * w01[None, :]).ravel()

    y1 = np.r_[0.0, u * y1_max]
    w_y1 = np.r_[0.5 / params.theta, wu * y1_max]
    v = u * v_max
    w_v = wu * v_max
    if params.d == 2:
        w_ang = np.full_like(v, 2.0)  # y' = x' +/- v
    else:
        w_ang = 2.0 * math.pi * v  # radial measure in the tangential plane

    logq = _grid_densities(params, t, x1, y1, v).interior
    return float(w_y1 @ np.exp(logq) @ (w_v * w_ang))


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

    q_left = np.exp(_grid_densities(params, s, x.x1, z1, np.abs(zp - xp)).interior)
    q_right = np.exp(_grid_densities(params, t, y.x1, z1, np.abs(zp - yp)).interior)
    value = float(w1 @ np.sum(q_left * q_right, axis=1))
    mass_left = float(w1 @ np.sum(q_left, axis=1))
    reference = math.exp(float(
        log_densities(params, spec, s + t, x.x1, y.x1, abs(yp - xp)).interior))
    return CkResult(abs(reference - value), reference, value,
                    abs(mass_left - 1.0), abs(mass_left - 1.0) > 1e-3)


def fp_residuals_from_fields(params: ModelParams, u_at, v_at, t: float, h: float,
                             test_points, boundary_points):
    """Finite-difference residuals of the coupled forward equations.

    ``u_at(t, y1, gap_vec)`` and ``v_at(t, gap_vec)`` evaluate the interior
    and boundary densities at tangential offset ``gap_vec`` from the source
    column.  Reports max-norm residuals of the interior heat equation
    ``d_t u = Laplacian(u)/2``, of the boundary equation
    ``d_t v = (a/2) Laplacian_tan(v) + d_{y1} u / 2`` (the outer normal points
    toward negative y1), and of the trace relation ``u/2 = theta v`` with u
    linearly extrapolated to the boundary.  Central differences use the same
    step ``h`` in time and space, so smooth solutions give residuals of
    second order in ``h``.
    """
    if h <= 1e-6:
        raise ValueError("step too small; finite differences would cancel")
    d = params.d

    interior_res = 0.0
    for (y1, g0) in test_points:
        gap = np.zeros(d - 1)
        gap[0] = g0
        du_dt = (u_at(t + h, y1, gap) - u_at(t - h, y1, gap)) / (2.0 * h)
        u0 = u_at(t, y1, gap)
        lap = (u_at(t, y1 + h, gap) - 2.0 * u0 + u_at(t, y1 - h, gap)) / (h * h)
        for axis in range(d - 1):
            e = np.zeros(d - 1)
            e[axis] = h
            lap += (u_at(t, y1, gap + e) - 2.0 * u0 + u_at(t, y1, gap - e)) / (h * h)
        interior_res = max(interior_res, abs(du_dt - 0.5 * lap))

    boundary_res = 0.0
    trace_res = 0.0
    for g0 in boundary_points:
        gap = np.zeros(d - 1)
        gap[0] = g0
        dv_dt = (v_at(t + h, gap) - v_at(t - h, gap)) / (2.0 * h)
        v0 = v_at(t, gap)
        lap_t = 0.0
        for axis in range(d - 1):
            e = np.zeros(d - 1)
            e[axis] = h
            lap_t += (v_at(t, gap + e) - 2.0 * v0 + v_at(t, gap - e)) / (h * h)
        u_bnd = u_at(t, 0.0, gap)
        u_h = u_at(t, h, gap)
        u_2h = u_at(t, 2.0 * h, gap)
        dn_u = (-3.0 * u_bnd + 4.0 * u_h - u_2h) / (2.0 * h)
        boundary_res = max(boundary_res, abs(dv_dt - 0.5 * params.a * lap_t - 0.5 * dn_u))
        trace_res = max(trace_res, abs(0.5 * (2.0 * u_h - u_2h) - params.theta * v0))

    return interior_res, boundary_res, trace_res


def fokker_planck_residual(params: ModelParams, spec: QuadratureSpec, t: float,
                           x: HalfSpacePoint, h: float):
    """Residuals of the forward equations for the kernel started at ``x``.

    Builds the interior/boundary density fields of ``p_t(x, .)`` from the
    kernel and hands them to :func:`fp_residuals_from_fields`, at three
    interior ``(y1, tangential gap)`` and three boundary gap test points.
    """
    if t < 0.1:
        raise ValueError("Fokker-Planck residuals need t >= 0.1 for stable differences")
    test_points = [(0.45, 0.15), (0.8, -0.3), (1.1, 0.45)]
    boundary_points = [0.1, -0.35, 0.6]

    xp = np.asarray(x.xp, dtype=float)

    def key(tt, y1, gap_vec):
        return tt, y1, float(np.linalg.norm((xp + gap_vec) - xp))

    # A first pass with placeholder fields collects the stencil; then one
    # log_densities batch per horizon evaluates it.
    stencil = set()

    def record(tt, y1, gap_vec):
        stencil.add(key(tt, y1, gap_vec))
        return 1.0

    fp_residuals_from_fields(params, record, lambda tt, g: record(tt, 0.0, g),
                             t, h, test_points, boundary_points)
    dens = {}
    for tt in {k[0] for k in stencil}:
        pts = sorted(k for k in stencil if k[0] == tt)
        _, y1, v = np.array(pts).T
        logs = log_densities(params, spec, tt, x.x1, y1, v)
        dens.update(zip(pts, zip(np.exp(logs.interior), np.exp(logs.boundary))))

    def u_at(tt, y1, gap_vec):
        return float(dens[key(tt, y1, gap_vec)][0])

    def v_at(tt, gap_vec):
        return float(dens[key(tt, 0.0, gap_vec)][1])

    return fp_residuals_from_fields(params, u_at, v_at, t, h, test_points, boundary_points)
