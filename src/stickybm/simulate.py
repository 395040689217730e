"""Exact-in-law discrete-time sampling of sticky-reflecting BM paths.

One step of the horizontal coordinate draws (position, local-time increment)
from the closed-form trivariate decomposition of the 1-D sticky process at
the step horizon: a no-visit component (killed kernel in z, zero local time),
a boundary atom (z = 0, local-time density), and a jointly diffuse component.
By Brownian scaling one family of tables per (theta sqrt(dt), resolution),
at fixed nodes of the scaled start x1 / sqrt(dt), serves every start; between
nodes the two bracketing rows are mixed (README, "Sampler").  The vertical
coordinates are conditionally Gaussian given the occupation increment, with
per-coordinate variance ``dt + (a-1) * delta_O``.

No Euler discretization of the degenerate SDE is involved (it has no strong
solution); a crude thin-layer Euler scheme is provided only as a biased test
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import HalfSpacePoint, ModelParams
from .kernel import _log_g, _log_h
from .quadrature import gauss_legendre

__all__ = [
    "SimConfig", "SamplePath", "BatchPaths", "TabulationError", "IncrementTables",
    "increment_tables", "step_batch", "walk", "simulate", "simulate_batch",
    "simulate_many", "horizontal_cdf", "modulus_statistics", "euler_thin_layer",
]

# Table nodes in the scaled start xi = x1 / sqrt(dt); past _XI_MAX the chance
# of a visit to the boundary within the step is below 2e-17.
_XI_MAX = 8.5
_XI_NODES = 512
_XI = np.linspace(0.0, _XI_MAX, _XI_NODES)
_ROW_BATCH = 64        # rows per vectorised build, which bounds its temporaries
_BLOCK_UNIFORMS = 2 ** 22   # uniforms per walk over a block of paths, which bounds its draws


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
        _check_seed(self.seed)
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
    :func:`horizontal_cdf`, independent of the sampler's closed-form rows.  A
    density broadcasting leading axes against the ``(cells, 4)`` nodes gives
    one row per index.
    """
    x, w = gauss_legendre(4)
    lo = grid[:-1, None]
    width = np.diff(grid)[:, None]
    inc = (density(lo + width * x[None, :]) * w).sum(axis=-1) * width[:, 0]
    return np.concatenate([np.zeros(inc.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)


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


def _z_grid(xi, i, k: int):
    """Node ``i`` of ``k`` on the no-visit window ``xi +- 8.5``, cut at 0, at unit horizon."""
    lo = np.maximum(xi - _XI_MAX, 0.0)
    return lo + i * ((xi + _XI_MAX - lo) / (k - 1))


def _unit_rows(xi: np.ndarray, theta1: float, k: int):
    """One-step tables at unit horizon and stickiness ``theta1``, one row per start.

    Returns the no-visit masses ``erf(xi / sqrt 2)``, the boundary masses and
    the CDFs ``(3, xi.size, K)``: no visit on :func:`_z_grid`, then boundary
    and diffuse local time on the ``K`` nodes ``theta1 * _graded_unit_grid(k)``.
    Every CDF is in closed form, and the three masses sum to 1 up to rounding.
    """
    from scipy.special import erf, log_ndtr, ndtr

    col = xi[:, None]
    g = _graded_unit_grid(k)
    z = _z_grid(col, np.arange(g.size), g.size)
    m0 = erf(xi / math.sqrt(2.0))
    z_cdf = (ndtr(z - col) - ndtr(-col)) - (ndtr(z + col) - ndtr(col))
    # At xi = 0 the no-visit part has no mass; its xi -> 0 limit, the Rayleigh
    # law, lets rows be mixed across the first node interval.
    at0 = xi == 0
    z_cdf[at0] = -np.expm1(-0.5 * z[at0] ** 2)
    z_cdf = np.maximum.accumulate(np.maximum(z_cdf, 0.0), axis=1)
    end = z_cdf[:, -1]
    if np.any((xi > 0) & ((end <= 0) | (np.abs(end - m0) > 1e-9 + 1e-6 * m0))):
        raise TabulationError("no-visit CDF inconsistent with its closed-form mass")
    # Local time l = theta1 (1 - v) is a first-passage time of Brownian motion
    # with drift: with c = xi + theta1, the boundary CDF at l is F(1) - F(v) and
    # the diffuse one 2 [D(1) - D(v)], for F(v) = 2 e^{2 theta1 c} Phi(-(theta1 v
    # + c) / sqrt v) and D(v) = Phi((theta1 v - c) / sqrt v) - F(v) / 2; both
    # vanish at v = 0, and m0 + F(1) + 2 D(1) = 1.
    c, v = col + theta1, 1.0 - g
    with np.errstate(divide="ignore"):
        rv = np.sqrt(v)
        f = 2.0 * np.exp(2.0 * theta1 * c + log_ndtr(-(theta1 * v + c) / rv))
        dd = ndtr((theta1 * v - c) / rv) - 0.5 * f
    cdfs = np.stack([f[:, :1] - f, 2.0 * (dd[:, :1] - dd)])
    # Rounding alone makes the closed forms dip by up to about 1e-13 between nodes.
    if np.any(np.diff(cdfs, axis=2) < -1e-12):
        raise TabulationError("local-time CDF is not monotone")
    cdfs = np.maximum.accumulate(cdfs, axis=2)
    mb, mj = cdfs[0, :, -1], cdfs[1, :, -1]
    total = m0 + mb + mj
    if np.any(np.abs(total - 1.0) > 1e-7):
        raise TabulationError(f"component masses sum to {total[np.argmax(np.abs(total - 1))]}")
    return m0, mb, np.stack([z_cdf / end[:, None], *cdfs])


class _Family:
    """Unit-horizon rows at the ``_XI`` nodes for one ``(theta1, k)``, built on demand:
    ``cdf[c, n]`` is component ``c``'s CDF at node ``n``, whatever the number of paths."""

    def __init__(self, theta1: float, k: int):
        self.theta1, self.k = theta1, k
        self.l_grid = theta1 * _graded_unit_grid(k)
        self.built = np.zeros(_XI_NODES, dtype=bool)
        self.mass_boundary = np.empty(_XI_NODES)
        self.cdf = np.empty((3, _XI_NODES, self.l_grid.size))

    def build(self, nodes: np.ndarray) -> None:
        todo = nodes[~self.built[nodes]]
        for i in range(0, todo.size, _ROW_BATCH):
            idx = todo[i:i + _ROW_BATCH]
            _, self.mass_boundary[idx], self.cdf[:, idx] = _unit_rows(_XI[idx], self.theta1, self.k)
            self.built[idx] = True

    def grid(self, rows, i):
        """Node ``i`` of flat row ``rows = c * _XI_NODES + n``."""
        n = self.l_grid.size
        return np.where(rows < _XI_NODES, _z_grid(_XI[rows % _XI_NODES], i, n), self.l_grid[i])


_family = lru_cache(maxsize=8)(_Family)     # _family(theta1, k): at most 8 families


def increment_tables(params: ModelParams, x1: float, dt: float,
                     resolution: int = 1024) -> IncrementTables:
    """Tables for the one-step horizontal law at the exact start ``x1``, uncached.

    The sampler's node rows are the same computation: at unit horizon from
    ``x1 / sqrt(dt)`` with stickiness ``theta sqrt(dt)``, then rescaled.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    sd = math.sqrt(dt)
    theta1, xi = params.theta * sd, x1 / sd
    m0, mb, cdf = _unit_rows(np.array([xi]), theta1, resolution)
    l_grid = theta1 * _graded_unit_grid(resolution)
    return IncrementTables(x1, dt, params.theta, m0[0], mb[0], 1.0 - m0[0] - mb[0],
                           sd * _z_grid(xi, np.arange(l_grid.size), l_grid.size), cdf[0, 0],
                           sd * l_grid, cdf[1, 0], cdf[2, 0])


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


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _interp_rows(x, xp, rows, fp):
    """``np.interp(x[i], xp[rows[i]], fp(rows[i], :))`` for every ``i``, bit for bit.

    One branchless bisection over all queries finds the last node with
    ``xp <= x`` (``xp[:, 0] <= x`` is assumed), as numpy's search does.
    """
    k = xp.shape[1]
    flat, base = xp.ravel(), rows * k
    j = np.zeros(x.size, dtype=np.intp)
    for step in 1 << np.arange((k - 1).bit_length() - 1, -1, -1):
        j = np.where(flat[base + np.minimum(j + step, k - 1)] <= x, j + step, j)
    last, j = j >= k - 1, np.minimum(j, k - 2)
    x0, x1, f0, f1 = xp[rows, j], xp[rows, j + 1], fp(rows, j), fp(rows, j + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(last, f1, (f1 - f0) / (x1 - x0) * (x - x0) + f0)


def _horizontal(params: ModelParams, x1: np.ndarray, dt: float, u: np.ndarray,
                resolution: int):
    """Draws of (next position, local-time increment) from every start.

    The step from ``x1`` over ``dt`` is ``sqrt(dt)`` times the unit-time step
    from ``xi = x1 / sqrt(dt)`` with stickiness ``theta sqrt(dt)``; past
    ``_XI_MAX`` it is the Gaussian step without a visit.  Below, the exact
    no-visit mass and the node-interpolated boundary mass pick the component,
    whose two bracketing rows' inverse CDFs are mixed linearly in ``xi``.
    """
    from scipy.special import erf, ndtri

    if not dt > 0:
        raise ValueError("dt must be positive")
    sd = math.sqrt(dt)
    xi = np.asarray(x1, dtype=float) / sd
    z = np.maximum(xi + ndtri(u[1]), 0.0)
    l = np.zeros(xi.size)
    near = np.flatnonzero(xi < _XI_MAX)
    if near.size:
        fam = _family(params.theta * sd, int(resolution))
        x, u0 = xi[near], u[0, near]
        j = np.minimum(np.searchsorted(_XI, x, side="right") - 1, _XI_NODES - 2)
        w = (x - _XI[j]) / (_XI[j + 1] - _XI[j])
        need = np.zeros(_XI_NODES, dtype=bool)
        need[j] = need[j + 1] = True
        fam.build(np.flatnonzero(need))
        m0 = erf(x / math.sqrt(2.0))
        no_visit = u0 < m0
        boundary = ~no_visit & (u0 < m0 + (1.0 - w) * fam.mass_boundary[j]
                                + w * fam.mass_boundary[j + 1])
        # Both bracketing rows of each path's component in one inversion.
        rows = np.where(no_visit, 0, np.where(boundary, 1, 2)) * _XI_NODES + j
        rows = np.concatenate([rows, rows + 1])
        cdf = fam.cdf.reshape(-1, fam.l_grid.size)
        keys = np.tile(u[1, near], 2) * cdf[rows, -1]
        lo, hi = np.split(_interp_rows(keys, cdf, rows, fam.grid), 2)
        q = (1.0 - w) * lo + w * hi
        z[near] = np.where(no_visit, q, 0.0)     # exact zeros where the atom is drawn
        l[near] = np.where(no_visit, 0.0, np.minimum(q, fam.theta1))
        d = near[~(no_visit | boundary)]
        tau = np.maximum(1.0 - l[d] / fam.theta1, 0.0)
        s = l[d] + xi[d]
        z[d] = np.maximum(np.sqrt(s * s - 2.0 * tau * np.log1p(-u[2, d])) - s, 0.0)
    return sd * z, sd * l


def step_batch(params: ModelParams, x1: np.ndarray, xp: np.ndarray, dt: float,
               u: np.ndarray, g: np.ndarray, resolution: int = 1024):
    """One exact step of every path from its own start; returns ``(x1, xp, delta_O)``.

    ``u`` holds three rows of uniforms (component choice, within-component,
    conditional draw) and ``g`` one row of standard normals per path, as
    :func:`walk` lays them out.  All paths draw at once from one
    family of node tables per ``(theta sqrt(dt), resolution)``; between
    nodes the law is interpolated in the scaled start (README, sampler).
    """
    z, dl = _horizontal(params, x1, dt, u, resolution)
    d_o = np.minimum(dl / params.theta, dt)
    return z, xp + np.sqrt(dt + params.big_a * d_o)[:, None] * g, d_o


def _check_seed(seed) -> None:
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def walk(params: ModelParams, x0: HalfSpacePoint, dts, n_paths: int, seed: int,
         stream: int = 0, first_index: int = 0, resolution: int = 1024):
    """Iterator of ``(x1, xp, delta_O)`` after each interval of ``dts``, one
    :func:`step_batch` each, for paths ``first_index ..`` of stream ``(seed, stream)``.

    Path ``r`` reads row ``r`` of one Philox generator keyed on ``seed +
    stream * 2^64``: per step three uniforms, then ``d - 1`` that ``ndtri``
    makes normal, each ``(k + 1/2) 2^-52`` for 52 random bits ``k``; rows are
    padded to a multiple of 4, so ``advance`` reaches any path.  Inputs are
    checked and drawn at the call, the steps taken as the iterator runs.
    """
    from scipy.special import ndtri

    _check_seed(seed)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if first_index < 0 or stream < 0:
        raise ValueError("first_index and stream must be non-negative")
    dts, per_step = np.asarray(dts, dtype=float), params.d + 2
    width = -(-dts.size * per_step // 4) * 4
    gen = np.random.Philox(key=int(seed) + (int(stream) << 64))
    gen.advance(first_index * width // 4)
    bits = gen.random_raw((n_paths, width))[:, :dts.size * per_step]
    bits >>= 12
    u = ((bits + 0.5) * 2.0 ** -52).reshape(n_paths, dts.size, per_step)

    def steps():
        x1 = np.full(n_paths, float(x0.x1))
        xp = np.tile(np.asarray(x0.xp, dtype=float), (n_paths, 1))
        for j, dt in enumerate(dts):
            x1, xp, d_o = step_batch(params, x1, xp, dt, u[:, j, :3].T, ndtri(u[:, j, 3:]),
                                     resolution)
            yield x1, xp, d_o

    return steps()


def _path_blocks(n_paths: int, n_steps: int, d: int):
    """Contiguous ``(first, count)`` blocks of ``n_paths`` paths whose :func:`walk`
    over ``n_steps`` steps in dimension ``d`` draws at most ``_BLOCK_UNIFORMS``
    uniforms (one path per block if a single path needs more)."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    size = max(1, _BLOCK_UNIFORMS // (n_steps * (d + 2)))
    return [(first, min(size, n_paths - first)) for first in range(0, n_paths, size)]


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

    Stream 0 of :func:`walk` over ``n_steps`` equal steps: path ``i`` reads
    its own row of draws whatever the batch, so the per-path law and values
    are those of :func:`simulate`.
    """
    params, n, dt = config.params, config.n_steps, config.step
    blocks = _path_blocks(n_paths, n, params.d)
    x1 = np.empty((n_paths, n + 1))
    xp = np.empty((n_paths, n + 1, params.d - 1))
    occ = np.zeros((n_paths, n + 1))
    x1[:, 0] = config.x0.x1
    xp[:, 0, :] = np.asarray(config.x0.xp)
    for first, count in blocks:
        steps = walk(params, config.x0, np.full(n, dt), count, config.seed,
                     first_index=first_index + first, resolution=config.tabulation_resolution)
        b = slice(first, first + count)
        for j, (z, y, d_o) in enumerate(steps, 1):
            x1[b, j], xp[b, j], occ[b, j] = z, y, occ[b, j - 1] + d_o
    times = dt * np.arange(n + 1)
    return BatchPaths(times, x1, xp, occ, params.theta)


def simulate(config: SimConfig, path_index: int = 0) -> SamplePath:
    """Simulate one path; deterministic given (seed, path_index)."""
    return simulate_batch(config, 1, first_index=path_index).path(0)


def simulate_many(config: SimConfig, n_paths: int, first_index: int = 0):
    """Independent paths indexed ``first_index .. first_index + n_paths - 1``."""
    return list(simulate_batch(config, n_paths, first_index=first_index))


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
                     n_steps: int, seed: int) -> SamplePath:
    """Crude thin-layer Euler scheme for the degenerate SDE.  BIASED.

    Test oracle only: treats positions below a layer sqrt(dt) as boundary
    sojourn (tangential volatility sqrt(a), inward drift theta), standard BM
    with reflection otherwise.  The boundary occupation it produces is biased
    at any finite step; use for qualitative comparisons only.
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
    return SamplePath(times, x1, xp, params.theta * occ, occ)
