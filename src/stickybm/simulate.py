"""Exact-in-law discrete-time sampling of sticky-reflecting BM paths.

One step of the horizontal coordinate draws (position, local-time increment)
from the closed-form trivariate decomposition of the 1-D sticky process at
the step horizon: a no-visit component (killed kernel in z, zero local time),
a boundary atom (z = 0, local-time density), and a jointly diffuse component.
Component masses and the tabulated inverse CDFs are built per
(start, horizon) family and cached with the start quantized to a 1e-4 grid.
The vertical coordinates are conditionally Gaussian given the occupation
increment, with per-coordinate variance ``dt + (a-1) * delta_O``.

No Euler discretization of the degenerate SDE is involved (it has no strong
solution); a crude thin-layer Euler scheme is provided only as a biased test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr as _ndtr

from .geometry import HalfSpacePoint, ModelParams
from .quadrature import gauss_legendre

__all__ = [
    "SimConfig",
    "SamplePath",
    "BatchPaths",
    "TabulationError",
    "IncrementTables",
    "increment_tables",
    "step_horizontal",
    "step_vertical",
    "step_batch",
    "simulate",
    "simulate_batch",
    "simulate_many",
    "sample_increments",
    "horizontal_cdf",
    "modulus_statistics",
    "euler_thin_layer",
]

_X1_QUANTUM = 1e-4
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class TabulationError(RuntimeError):
    """A tabulated CDF came out non-monotone or under-normalized."""


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    x0: HalfSpacePoint
    step: float
    n_steps: int
    seed: int
    tabulation_resolution: int = 1024

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.tabulation_resolution < 256:
            raise ValueError("tabulation_resolution must be at least 256")
        if self.x0.dim != self.params.d:
            raise ValueError("x0 dimension does not match params.d")


@dataclass(frozen=True)
class SamplePath:
    """Sampled trajectory: times, states, and the two boundary clocks.

    ``local_time = theta * occupation_time`` holds exactly elementwise by
    construction, and ``x1`` is exactly 0.0 at every step where the boundary
    atom was drawn.
    """

    times: np.ndarray
    x1: np.ndarray
    xp: np.ndarray
    local_time: np.ndarray
    occupation_time: np.ndarray

    @property
    def states(self):
        return [HalfSpacePoint(float(self.x1[i]), tuple(self.xp[i]))
                for i in range(self.x1.size)]

    def coords(self) -> np.ndarray:
        return np.concatenate([self.x1[:, None], self.xp], axis=1)


# ---------------------------------------------------------------------------
# Increment tables
# ---------------------------------------------------------------------------

def _phi(tau, s):
    """Centered normal density with variance tau at s, vectorized, 0 at tau<=0."""
    tau = np.asarray(tau, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(tau > 0,
                       np.exp(-s * s / (2.0 * np.where(tau > 0, tau, 1.0)))
                       / (_SQRT_2PI * np.sqrt(np.where(tau > 0, tau, 1.0))),
                       0.0)
    return out


def _h_density(tau, w):
    """First-hitting density, vectorized, 0 at tau <= 0."""
    tau = np.asarray(tau, dtype=float)
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(tau > 0, tau, 1.0)
        out = np.where((tau > 0) & (w > 0),
                       w / (_SQRT_2PI * safe ** 1.5) * np.exp(-w * w / (2.0 * safe)),
                       0.0)
    return out


@lru_cache(maxsize=8)
def _graded_unit_grid(k: int) -> np.ndarray:
    """Grid on [0, 1] with geometric refinement toward both endpoints."""
    k_geo = max(k // 4, 16)
    ends = np.geomspace(1e-12, 0.5, k_geo)
    return np.unique(np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, k - 2 * k_geo),
                                     ends, 1.0 - ends]))


def _cumulative_gl(density, grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of a vectorized density at the grid nodes.

    Per-cell 4-point Gauss-Legendre, so the node values are exact to
    rounding; the piecewise-linear inversion between nodes is then the only
    tabulation error (O(1/K^2) in CDF sup-norm).
    """
    x, w = gauss_legendre(4)
    lo = grid[:-1, None]
    width = np.diff(grid)[:, None]
    vals = density(lo + width * x[None, :])
    inc = (vals * w[None, :]).sum(axis=1) * width[:, 0]
    return np.concatenate([[0.0], np.cumsum(inc)])


@dataclass(frozen=True)
class IncrementTables:
    """Tabulated one-step law of (horizontal position, local-time increment)."""

    x1: float
    dt: float
    theta: float
    mass_no_visit: float
    mass_boundary: float
    mass_diffuse: float
    z_grid: np.ndarray
    z_cdf: np.ndarray
    l_grid: np.ndarray
    l_cdf_boundary: np.ndarray
    l_cdf_diffuse: np.ndarray


def _build_tables(x1: float, dt: float, theta: float, k: int) -> IncrementTables:
    m0 = math.erf(x1 / math.sqrt(2.0 * dt)) if x1 > 0 else 0.0

    # No-visit component: killed kernel in z, closed-form CDF at the nodes.
    # The grid covers only the +-8.5 sigma window around the start so the
    # tabulation resolution is spent where the mass is.
    z_lo = max(0.0, x1 - 8.5 * math.sqrt(dt))
    z_max = x1 + 8.5 * math.sqrt(dt)
    z_grid = np.linspace(z_lo, z_max, k)
    if x1 > 0:
        sd = math.sqrt(dt)
        z_cdf = (_ndtr((z_grid - x1) / sd) - _ndtr(-x1 / sd)) - (_ndtr((z_grid + x1) / sd) - _ndtr(x1 / sd))
        z_cdf = np.maximum.accumulate(np.maximum(z_cdf, 0.0))
        if z_cdf[-1] <= 0 or abs(z_cdf[-1] - m0) > 1e-9 + 1e-6 * m0:
            raise TabulationError("no-visit CDF inconsistent with its closed-form mass")
        z_cdf = z_cdf / z_cdf[-1]
    else:
        z_cdf = np.linspace(0.0, 1.0, k)

    # Local-time components on a graded grid over [0, theta * dt].
    l_grid = theta * dt * _graded_unit_grid(k)
    cdf_b = _cumulative_gl(lambda l: _h_density(dt - l / theta, l + x1) / theta, l_grid)
    cdf_d = _cumulative_gl(lambda l: 2.0 * _phi(dt - l / theta, l + x1), l_grid)
    if np.any(np.diff(cdf_b) < 0) or np.any(np.diff(cdf_d) < 0):
        raise TabulationError("local-time CDF is not monotone")
    mb = float(cdf_b[-1])
    mj = float(cdf_d[-1])

    total = m0 + mb + mj
    if abs(total - 1.0) > 1e-7:
        raise TabulationError(f"component masses sum to {total}, not 1")
    return IncrementTables(x1, dt, theta, m0 / total, mb / total, mj / total,
                           z_grid, z_cdf, l_grid, cdf_b, cdf_d)


@lru_cache(maxsize=50000)
def _cached_tables(key: int, dt: float, theta: float, resolution: int) -> IncrementTables:
    return _build_tables(key * _X1_QUANTUM, dt, theta, resolution)


def increment_tables(params: ModelParams, x1: float, dt: float,
                     resolution: int = 1024) -> IncrementTables:
    """Tables for the one-step horizontal law, cached on quantized x1.

    Quantizing the start to a 1e-4 grid keeps the per-step cost amortized;
    the sampled law is then exactly the law started from the quantized
    point.  At most 50 000 tables are kept, least recently used first out.
    """
    return _cached_tables(round(x1 / _X1_QUANTUM), float(dt), float(params.theta),
                          int(resolution))


def horizontal_cdf(params: ModelParams, x1: float, dt: float, z, l_cells: int = 1024):
    """Closed-form-plus-quadrature CDF of the next horizontal position.

    Used as the oracle against simulated marginals: P(X1 <= z) combining the
    boundary atom, the no-visit part, and the jointly diffuse part; the
    latter two integrate in closed form over z at fixed local time, with the
    local-time integral done by per-cell Gauss-Legendre on a graded grid.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    sd = math.sqrt(dt)
    ncdf = _ndtr
    cdf = np.zeros_like(z)
    # no-visit part
    if x1 > 0:
        part = (ncdf((z - x1) / sd) - ncdf(-x1 / sd)) - (ncdf((z + x1) / sd) - ncdf(x1 / sd))
        cdf += np.maximum(part, 0.0)
    # boundary atom, then the diffuse part: int_0^z 2 h(tau, s + w) dw
    # = 2 [phi(tau, s) - phi(tau, s + z)] at fixed local time l.
    l_grid = params.theta * dt * _graded_unit_grid(l_cells)
    th = params.theta
    cdf += _cumulative_gl(lambda l: _h_density(dt - l / th, l + x1) / th, l_grid)[-1]

    # all z at once on the cell nodes
    x4, w4 = gauss_legendre(4)
    lo = l_grid[:-1, None]
    width = np.diff(l_grid)[:, None]
    l_nodes = (lo + width * x4[None, :]).ravel()
    w_nodes = (width * w4[None, :]).ravel()
    tau = dt - l_nodes / th
    s = l_nodes + x1
    base = _phi(tau, s) * w_nodes
    shifted = _phi(tau[None, :], (s[None, :] + z[:, None])) * w_nodes[None, :]
    cdf += 2.0 * (np.sum(base) - shifted.sum(axis=1))
    return cdf if cdf.size > 1 else float(cdf[0])


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _draw_horizontal(tables: IncrementTables, u_comp, u_within, u_cond):
    """Vectorized inverse-CDF draw given three uniform arrays."""
    u_comp = np.atleast_1d(u_comp)
    u_within = np.atleast_1d(u_within)
    u_cond = np.atleast_1d(u_cond)
    n = u_comp.size
    z = np.empty(n)
    dl = np.zeros(n)
    m0, mb = tables.mass_no_visit, tables.mass_boundary
    theta_dt = tables.l_grid[-1]

    no_visit = u_comp < m0
    boundary = (~no_visit) & (u_comp < m0 + mb)
    diffuse = ~(no_visit | boundary)

    if no_visit.any():
        z[no_visit] = np.interp(u_within[no_visit], tables.z_cdf, tables.z_grid)
    if boundary.any():
        l = np.interp(u_within[boundary] * tables.l_cdf_boundary[-1],
                      tables.l_cdf_boundary, tables.l_grid)
        z[boundary] = 0.0     # exact zeros exactly where the boundary atom was drawn
        dl[boundary] = np.minimum(l, theta_dt)
    if diffuse.any():
        l = np.interp(u_within[diffuse] * tables.l_cdf_diffuse[-1],
                      tables.l_cdf_diffuse, tables.l_grid)
        l = np.minimum(l, theta_dt)
        tau = np.maximum(tables.dt - l / tables.theta, 0.0)
        s = l + tables.x1
        zz = np.sqrt(s * s - 2.0 * tau * np.log1p(-u_cond[diffuse])) - s
        z[diffuse] = np.maximum(zz, 0.0)
        dl[diffuse] = l
    return z, dl


def step_horizontal(params: ModelParams, rng: np.random.Generator, x1: float,
                    dt: float, resolution: int = 1024):
    """One exact draw of (new horizontal position, local-time increment)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    tables = increment_tables(params, x1, dt, resolution)
    u = rng.random(3)
    z, dl = _draw_horizontal(tables, u[0], u[1], u[2])
    return float(z[0]), float(dl[0])


def step_vertical(params: ModelParams, rng: np.random.Generator, dt: float,
                  delta_o: float, d: int = None) -> np.ndarray:
    """Gaussian tangential increment with variance ``dt + (a-1) delta_O``."""
    if not (0.0 <= delta_o <= dt * (1.0 + 1e-12)):
        raise ValueError("occupation increment must lie in [0, dt]")
    if d is None:
        d = params.d
    var = (dt - delta_o) + params.a * delta_o
    if var < 0:
        raise ValueError("negative variance; invalid occupation increment")
    return math.sqrt(var) * rng.standard_normal(d - 1)


def step_batch(params: ModelParams, x1: np.ndarray, xp: np.ndarray, dt: float,
               u: np.ndarray, g: np.ndarray, resolution: int = 1024):
    """One exact step of every path from its own start; returns ``(x1, xp, delta_O)``.

    ``u`` holds three rows of uniforms (component choice, within-component,
    conditional draw) and ``g`` one row of standard normals per path, so the
    caller keeps its own stream layout.  Paths whose starts share a 1e-4 cell
    draw from that cell's :func:`increment_tables`; each path's law is exactly
    the one-step law from its quantized start.
    """
    keys = np.round(x1 / _X1_QUANTUM).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    bounds = np.append(starts, x1.size)
    z = np.empty(x1.size)
    dl = np.empty(x1.size)
    for j, key in enumerate(uniq):
        idx = order[bounds[j]:bounds[j + 1]]
        tables = increment_tables(params, key * _X1_QUANTUM, dt, resolution)
        z[idx], dl[idx] = _draw_horizontal(tables, u[0, idx], u[1, idx], u[2, idx])
    d_o = np.minimum(dl / params.theta, dt)
    return z, xp + np.sqrt(dt + params.big_a * d_o)[:, None] * g, d_o


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    # Counter-based Philox keyed on (seed, path_index): reproducible and
    # independent across paths, no global state.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, path_index))))


@dataclass(frozen=True)
class BatchPaths:
    """Paths stacked on the leading axis; ``path(i)`` extracts one of them."""

    times: np.ndarray
    x1: np.ndarray
    xp: np.ndarray
    occupation_time: np.ndarray
    theta: float

    @property
    def local_time(self) -> np.ndarray:
        return self.theta * self.occupation_time

    @property
    def n_paths(self) -> int:
        return self.x1.shape[0]

    def path(self, i: int) -> SamplePath:
        return SamplePath(self.times, self.x1[i], self.xp[i],
                          self.theta * self.occupation_time[i], self.occupation_time[i])

    def __iter__(self):
        return (self.path(i) for i in range(self.n_paths))


def simulate_batch(config: SimConfig, n_paths: int, first_index: int = 0) -> BatchPaths:
    """Simulate paths ``first_index .. first_index + n_paths - 1``, vectorized.

    Each path consumes its own counter-based stream: per path, a
    ``(n_steps, 3)`` block of uniforms (component choice, within-component,
    conditional draw) followed by an ``(n_steps, d-1)`` block of normals.
    Each step is one :func:`step_batch` over all paths, so the per-path law
    is identical to :func:`simulate`.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    params = config.params
    n = config.n_steps
    dt = config.step
    d = params.d
    u_all = np.empty((n_paths, n, 3))
    g_all = np.empty((n_paths, n, d - 1))
    for i in range(n_paths):
        rng = _path_rng(config.seed, first_index + i)
        u_all[i] = rng.random((n, 3))
        g_all[i] = rng.standard_normal((n, d - 1))

    x1 = np.empty((n_paths, n + 1))
    xp = np.empty((n_paths, n + 1, d - 1))
    occ = np.empty((n_paths, n + 1))
    x1[:, 0] = config.x0.x1
    xp[:, 0, :] = np.asarray(config.x0.xp)
    occ[:, 0] = 0.0

    for step in range(n):
        x1[:, step + 1], xp[:, step + 1], d_o = step_batch(
            params, x1[:, step], xp[:, step], dt, u_all[:, step].T, g_all[:, step],
            config.tabulation_resolution)
        occ[:, step + 1] = occ[:, step] + d_o

    times = dt * np.arange(n + 1)
    return BatchPaths(times, x1, xp, occ, params.theta)


def simulate(config: SimConfig, path_index: int = 0) -> SamplePath:
    """Simulate one path; deterministic given (seed, path_index)."""
    return simulate_batch(config, 1, first_index=path_index).path(0)


def simulate_many(config: SimConfig, n_paths: int, first_index: int = 0):
    """Independent paths indexed ``first_index .. first_index + n_paths - 1``."""
    return list(simulate_batch(config, n_paths, first_index=first_index))


def sample_increments(params: ModelParams, x1: float, dt: float, n: int,
                      seed: int, resolution: int = 1024):
    """Vectorized one-step draws from a common start; returns (z, delta_L).

    Fast path for marginal-law experiments; the law matches
    :func:`step_horizontal` exactly, only the stream layout differs.
    """
    tables = increment_tables(params, x1, dt, resolution)
    rng = _path_rng(seed, 0)
    u = rng.random((3, n))
    return _draw_horizontal(tables, u[0], u[1], u[2])


# ---------------------------------------------------------------------------
# Path statistics
# ---------------------------------------------------------------------------

def modulus_statistics(paths, delta: float, eta: float, time_scale: float = 1.0) -> float:
    """Empirical P(sup_{|t-s| <= delta} |w(t) - w(s)| >= eta) over sampled times.

    ``time_scale`` rescales the sampled times first (pass eps to measure the
    slowed path on its own clock).  Probes the exponential equicontinuity
    bound C exp(-c eta^2 / (delta eps)).
    """
    if not paths:
        raise ValueError("need at least one path")
    hits = 0
    for p in paths:
        times = p.times / time_scale
        dt = times[1] - times[0]
        k_max = int(math.floor(delta / dt + 1e-9))
        coords = p.coords()
        worst = 0.0
        for k in range(1, max(k_max, 0) + 1):
            d = coords[k:] - coords[:-k]
            worst = max(worst, float(np.max(np.linalg.norm(d, axis=1))))
        if worst >= eta:
            hits += 1
    return hits / len(paths)


def euler_thin_layer(params: ModelParams, x0: HalfSpacePoint, dt: float,
                     n_steps: int, seed: int, layer: float = None) -> SamplePath:
    """Crude thin-layer Euler scheme for the degenerate SDE.  BIASED.

    Test oracle only: treats positions below a layer ~ sqrt(dt) as boundary
    sojourn (tangential volatility sqrt(a), inward drift theta), standard BM
    with reflection otherwise.  The boundary occupation it produces is biased
    at any finite step; use for qualitative comparisons only.
    """
    if layer is None:
        layer = math.sqrt(dt)
    rng = _path_rng(seed, 0)
    d = params.d
    x1 = np.empty(n_steps + 1)
    xp = np.empty((n_steps + 1, d - 1))
    occ = np.empty(n_steps + 1)
    x1[0], xp[0], occ[0] = x0.x1, x0.xp, 0.0
    for i in range(n_steps):
        stuck = x1[i] <= layer
        if stuck:
            x1[i + 1] = max(x1[i] + params.theta * dt, 0.0)
            xp[i + 1] = xp[i] + math.sqrt(params.a * dt) * rng.standard_normal(d - 1)
            occ[i + 1] = occ[i] + dt
        else:
            x1[i + 1] = abs(x1[i] + math.sqrt(dt) * rng.standard_normal())
            xp[i + 1] = xp[i] + math.sqrt(dt) * rng.standard_normal(d - 1)
            occ[i + 1] = occ[i]
    times = dt * np.arange(n_steps + 1)
    return SamplePath(times, x1, xp, params.theta * occ, occ)
