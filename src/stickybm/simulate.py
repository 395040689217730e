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
solution).  The module holds the sampler only: ``step_batch`` steps many
paths at once, ``walk`` owns the stream layout and the stepping loop, and
``simulate_batch`` keeps every step as one ``BatchPaths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HalfSpacePoint, ModelParams, _check_dim

__all__ = ["SimConfig", "BatchPaths", "step_batch", "walk", "simulate_batch"]


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
        _check_dim(self.params, self.x0, "x0")


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
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def walk(params: ModelParams, x0: HalfSpacePoint, dts, n_paths: int, seed: int,
         stream: int = 0, first_index: int = 0):
    """Iterator of ``(x1, xp, delta_O)`` after each interval of ``dts``, one
    :func:`step_batch` each, for paths ``first_index ..`` of stream ``(seed, stream)``.

    Path ``r`` reads row ``r`` of one Philox generator keyed on ``seed +
    stream * 2^64``: per step three uniforms, then ``d - 1`` that ``ndtri``
    makes normal, each ``(k + 1/2) 2^-52`` for 52 random bits ``k``; rows are
    padded to a multiple of 4, so ``advance`` reaches any path.  Inputs are
    checked and the raw bits drawn at the call; the steps are taken as the
    iterator runs, each converting only its own draws.  A caller may
    ``send`` a boolean mask over the rows just yielded: later steps then take
    only the rows it keeps, whose values do not change, and none if it keeps none.
    """
    from scipy.special import ndtri

    _check_seed(seed)
    _check_dim(params, x0, "start point")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if first_index < 0 or stream < 0:
        raise ValueError("first_index and stream must be non-negative")
    dts, per_step = np.asarray(dts, dtype=float), params.d + 2
    if not np.all((dts > 0) & (dts < math.inf)):
        raise ValueError(f"steps must be positive and finite, got {dts}")
    width = -(-dts.size * per_step // 4) * 4
    gen = np.random.Philox(key=int(seed) + (int(stream) << 64))
    gen.advance(first_index * width // 4)
    bits = gen.random_raw((n_paths, width))

    def steps():
        x1 = np.full(n_paths, float(x0.x1))
        xp = np.tile(np.asarray(x0.xp, dtype=float), (n_paths, 1))
        rows = slice(None)
        for j, dt in enumerate(dts):
            u = (bits[rows, j * per_step:(j + 1) * per_step] >> 12).astype(float)
            u += 0.5
            u *= 2.0 ** -52
            x1, xp, d_o = step_batch(params, x1, xp, dt, u[:, :3].T, ndtri(u[:, 3:]))
            keep = yield x1, xp, d_o
            if keep is not None:
                rows = np.arange(n_paths)[rows][keep]
                x1, xp = x1[keep], xp[keep]

    return steps()


@dataclass(frozen=True)
class BatchPaths:
    """Sampled paths stacked on the leading axis: times, states and the two
    boundary clocks.

    ``local_time = theta * occupation_time`` holds exactly elementwise by
    construction, and ``x1`` is exactly 0.0 at every step where the boundary
    atom was drawn.
    """

    times: np.ndarray
    x1: np.ndarray
    xp: np.ndarray
    occupation_time: np.ndarray
    theta: float

    @property
    def local_time(self) -> np.ndarray:
        return self.theta * self.occupation_time


def simulate_batch(config: SimConfig, n_paths: int) -> BatchPaths:
    """Simulate paths ``0 .. n_paths - 1``, vectorized.

    Stream 0 of :func:`walk` over ``n_steps`` equal steps, all paths in one
    call: path ``i`` reads its own row of draws whatever the batch, so a
    batch is the prefix of every larger one.  The raw bits of the whole
    batch (``8 (d + 2)`` bytes per path-step, padded) are held while it steps.
    """
    params, n, dt = config.params, config.n_steps, config.step
    steps = walk(params, config.x0, np.full(n, dt), n_paths, config.seed)
    x1 = np.empty((n_paths, n + 1))
    xp = np.empty((n_paths, n + 1, params.d - 1))
    occ = np.zeros((n_paths, n + 1))
    x1[:, 0] = config.x0.x1
    xp[:, 0, :] = np.asarray(config.x0.xp)
    for j, (z, y, d_o) in enumerate(steps, 1):
        x1[:, j], xp[:, j], occ[:, j] = z, y, occ[:, j - 1] + d_o
    times = dt * np.arange(n + 1)
    return BatchPaths(times, x1, xp, occ, params.theta)
