"""Exact-in-law discrete-time sampling of sticky-reflecting BM paths.

One step of the horizontal coordinate is reflected Brownian motion run on
the sticky clock, drawn in closed form: by Brownian scaling the step from
``x1`` over ``dt`` is ``sqrt(dt)`` times the unit-time step from ``x1 /
sqrt(dt)`` with stickiness ``theta sqrt(dt)``, and three uniforms invert,
in turn, the time at which the clock runs out, whether the step ends on
the boundary, and where it ends otherwise (README, "Numerical notes").  The
vertical coordinates are conditionally Gaussian given the occupation
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

from .geometry import HalfSpacePoint, ModelParams
from .kernel import _log_g, _log_h
from .quadrature import gauss_legendre

__all__ = [
    "SimConfig", "SamplePath", "BatchPaths", "step_batch", "walk", "simulate",
    "simulate_batch", "simulate_many", "horizontal_cdf", "modulus_statistics",
    "euler_thin_layer",
]

_BLOCK_UNIFORMS = 2 ** 22   # uniforms per walk over a block of paths, which bounds its draws


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    x0: HalfSpacePoint
    step: float
    n_steps: int
    seed: int

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        _check_seed(self.seed)
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
# Oracle
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


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _unstuck_time(q, c, theta1):
    """The ``s > 0`` with ``(theta1 s - c) / sqrt s = q``, for ``q <= 0``: the time
    by which the sticky clock runs out with probability ``2 Phi(q)`` (see
    :func:`_horizontal`).  The root in ``sqrt s`` is written without cancellation."""
    return (2.0 * c / (np.sqrt(q * q + 4.0 * theta1 * c) - q)) ** 2


def _horizontal(params: ModelParams, x1: np.ndarray, dt: float, u: np.ndarray):
    """Exact draws of (next position, local-time increment) from every start.

    At unit horizon from ``xi = x1 / sqrt(dt)`` with stickiness ``theta1 =
    theta sqrt(dt)``, the step is reflected Brownian motion ``W - min W`` run
    until the clock ``s + l(s) / theta1`` reaches 1, where ``l(s) = (-xi -
    min_{r<=s} W_r)^+``.  The clock runs out at the time ``s`` at which the
    running minimum meets ``-c + theta1 s``, ``c = xi + theta1``, and by the
    reflection principle ``P(s* <= s) = 2 Phi((theta1 s - c) / sqrt s)``.
    ``u[0]`` inverts this with ``q = ndtri(u[0] / 2)``; when ``q >= -xi`` the
    boundary is not reached by ``s = 1`` and ``q = -b`` is the running minimum
    at time 1 instead.  Given ``s`` and the minimum ``-b``, the step ends on
    the boundary with probability ``b / (b + 2 theta1 s)`` (``u[1]``; the
    minimum fell onto the line rather than the line rose onto it), and
    otherwise ``(y + b)^2 - b^2`` is exponential with mean ``2 s``
    (``u[2]``).  The draw is scaled back by ``sqrt(dt)``.
    """
    from scipy.special import ndtri

    if not dt > 0:
        raise ValueError("dt must be positive")
    sd = math.sqrt(dt)
    theta1 = params.theta * sd
    xi = np.asarray(x1, dtype=float) / sd
    q = ndtri(0.5 * u[0])
    visit = q < -xi
    s = np.ones(xi.size)
    s[visit] = np.minimum(_unstuck_time(q[visit], xi[visit] + theta1, theta1), 1.0)
    l = theta1 * (1.0 - s)
    b = np.where(visit, xi + l, -q)
    e = -2.0 * s * np.log(u[2])
    y = e / (np.sqrt(b * b + e) + b)      # sqrt(b^2 + e) - b, without the cancellation
    atom = visit & (u[1] * (b + 2.0 * theta1 * s) < b)
    z = np.where(visit, np.where(atom, 0.0, y), (xi - b) + y)
    return sd * z, sd * l


def step_batch(params: ModelParams, x1: np.ndarray, xp: np.ndarray, dt: float,
               u: np.ndarray, g: np.ndarray):
    """One exact step of every path from its own start; returns ``(x1, xp, delta_O)``.

    ``u`` holds three rows of uniforms (clock, boundary choice, position)
    and ``g`` one row of standard normals per path, as :func:`walk` lays
    them out.  All paths draw at once, each from its own start exactly.
    """
    z, dl = _horizontal(params, x1, dt, u)
    d_o = np.minimum(dl / params.theta, dt)
    return z, xp + np.sqrt(dt + params.big_a * d_o)[:, None] * g, d_o


def _check_seed(seed) -> None:
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def walk(params: ModelParams, x0: HalfSpacePoint, dts, n_paths: int, seed: int,
         stream: int = 0, first_index: int = 0):
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
    u = bits.astype(float)
    u += 0.5
    u *= 2.0 ** -52
    u = u.reshape(n_paths, dts.size, per_step)

    def steps():
        x1 = np.full(n_paths, float(x0.x1))
        xp = np.tile(np.asarray(x0.xp, dtype=float), (n_paths, 1))
        for j, dt in enumerate(dts):
            x1, xp, d_o = step_batch(params, x1, xp, dt, u[:, j, :3].T, ndtri(u[:, j, 3:]))
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
                     first_index=first_index + first)
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
