"""Correctness checks for the benchmark's operations.

Each function takes plain numbers or arrays (parsed from an operation's
outputs) and raises :class:`CheckFailed` with a one-line reason when the
result is wrong.  They run outside the timed region, and none of them trusts
the solver it checks: transport values are re-solved with HiGHS or
``linear_sum_assignment``, reference rates are compared with closed forms, and
Monte Carlo frequencies with quadrature probabilities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

LP_TOL = 1e-9            # transport value against an independent solver
MARGINAL_TOL = 1e-12     # plan marginals against the measure weights
MASS_TOL = 1e-7          # kernel total mass against one
REF_TOL = 1e-6           # reference rates against their closed forms
STATIC_RATE_REL = 0.10   # extrapolated static rate against its reference
MC_SIGMAS = 4.0          # binomial standard errors allowed for a hit frequency
SLICED_SIGMAS = 4.5      # design standard errors allowed for a Monte Carlo sliced rate
UNDERCUT_REL = 1e-9      # brute-force action below the closed-form cost


class CheckFailed(AssertionError):
    """An operation's output is wrong."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def highs_transport_value(costm: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Optimal transport value by ``linprog(method="highs")`` on the marginal constraints."""
    n, m = costm.shape
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    a_eq = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    res = linprog(costm.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    _require(res.status == 0, f"HiGHS reference solve failed: {res.message}")
    return float(res.fun)


def assignment_value(costm: np.ndarray) -> float:
    """Optimal value for uniform equal-size marginals by ``linear_sum_assignment``."""
    rows, cols = linear_sum_assignment(costm)
    return float(costm[rows, cols].sum() / costm.shape[0])


def check_transport(value: float, reference: float, plan: np.ndarray = None,
                    a: np.ndarray = None, b: np.ndarray = None, costm: np.ndarray = None):
    """Plan value against an independent optimum; plan marginals and value if given."""
    _require(math.isfinite(value) and abs(value - reference) <= LP_TOL,
             f"transport value {value!r} differs from the reference {reference!r} "
             f"by more than {LP_TOL}")
    if plan is None:
        return
    _require(bool(np.all(plan >= 0.0)), "plan has negative entries")
    defect = max(float(np.abs(plan.sum(axis=1) - a).max()),
                 float(np.abs(plan.sum(axis=0) - b).max()))
    _require(defect <= MARGINAL_TOL,
             f"plan marginal defect {defect:.3e} exceeds {MARGINAL_TOL}")
    own = float(np.sum(plan * costm))
    _require(abs(own - value) <= LP_TOL,
             f"plan costs {own!r} but the reported value is {value!r}")


def check_kernel_grid(y1: np.ndarray, interior: np.ndarray, boundary: np.ndarray):
    """Interior densities finite and positive; boundary densities positive on y1 = 0."""
    _require(interior.size > 0, "kernel grid is empty")
    _require(bool(np.all(np.isfinite(interior)) and np.all(np.isfinite(boundary))),
             "kernel grid has non-finite densities")
    _require(bool(np.all(interior > 0.0)), "kernel grid has non-positive interior densities")
    on_b = y1 == 0.0
    _require(bool(np.any(on_b)), "kernel grid has no boundary row")
    _require(bool(np.all(boundary[on_b] > 0.0)),
             "kernel grid has non-positive boundary densities")
    _require(bool(np.all(boundary[~on_b] == 0.0)),
             "kernel grid reports boundary mass at interior targets")


def check_gamma_limit(failed_epsilons, kantorovich_value: float, reference: float):
    _require(len(failed_epsilons) == 0, f"Sinkhorn failed at eps {list(failed_epsilons)}")
    check_transport(kantorovich_value, reference)


def check_static_rate(extrapolated: float, reference: float, closed_form: float):
    _require(abs(reference - closed_form) <= REF_TOL,
             f"reference rate {reference!r} is not the closed form {closed_form!r}")
    rel = abs(extrapolated - closed_form) / closed_form
    _require(rel <= STATIC_RATE_REL,
             f"extrapolated rate {extrapolated!r} is {rel:.1%} from {closed_form!r}")


def check_masses(masses):
    worst = max(abs(m - 1.0) for m in masses)
    _require(math.isfinite(worst) and worst <= MASS_TOL,
             f"kernel mass off by {worst:.3e} (limit {MASS_TOL})")


def check_paths(theta: float, x1: np.ndarray, local_time: np.ndarray,
                occupation_time: np.ndarray):
    """``L == theta * O`` exactly, elementwise, and ``x1 >= 0``."""
    _require(x1.size > 0, "no path states")
    _require(bool(np.all(local_time == theta * occupation_time)),
             "local time differs from theta * occupation time")
    _require(bool(np.all(x1 >= 0.0)), "a path left the half-space")


def fitted_rate(epsilons, probs) -> float:
    """The rate of the least-squares fit ``eps log p = -rate + beta eps log(1/eps) + gamma eps``.

    The same fit as ``stickybm.ldp.fit_rate``, written out here so that the
    check does not call the code it checks.
    """
    eps = np.asarray(epsilons, dtype=float)
    y = eps * np.log(np.asarray(probs, dtype=float))
    design = np.stack([-np.ones_like(eps), eps * np.log(1.0 / eps), eps], axis=1)
    return float(np.linalg.lstsq(design, y, rcond=None)[0][0])


def rate_standard_error(epsilons, probs, n_paths: int) -> float:
    """Binomial standard error of the fitted rate when the hit probabilities are ``probs``.

    The fit is linear in ``y = eps log p``, and ``var(eps log p_hat)`` is
    ``eps^2 (1 - p) / (n p)`` to first order.  Pass the design's expected
    probabilities, not the frequencies under test, so that a wrong output
    cannot widen its own tolerance.
    """
    eps = np.asarray(epsilons, dtype=float)
    p = np.asarray(probs, dtype=float)
    design = np.stack([-np.ones_like(eps), eps * np.log(1.0 / eps), eps], axis=1)
    row = np.linalg.pinv(design)[0]
    return float(math.sqrt(np.sum(row ** 2 * eps ** 2 * (1.0 - p) / (n_paths * p))))


def check_sliced_frequencies(epsilons, freqs, expected, n_paths: int, n_expected: int):
    """Path-slicing hit frequencies: in (0, 1), rising with eps, and near the expected values.

    ``expected`` are hit probabilities measured once on ``n_expected`` paths;
    each frequency must lie within MC_SIGMAS standard errors of the
    difference of the two binomial estimates, computed from ``expected``.
    """
    _require(len(freqs) == len(expected) == len(epsilons) and len(freqs) > 0,
             f"{len(freqs)} frequencies for {len(expected)} expected probabilities")
    by_eps = sorted(zip(epsilons, freqs, expected))
    for eps, f, q in by_eps:
        _require(0.0 < f < 1.0, f"hit frequency {f!r} at eps {eps!r} is not in (0, 1)")
        se = math.sqrt(q * (1.0 - q) * (1.0 / n_paths + 1.0 / n_expected))
        _require(abs(f - q) <= MC_SIGMAS * se,
                 f"hit frequency {f!r} at eps {eps!r} is {abs(f - q) / se:.1f} standard "
                 f"errors from the expected {q!r}")
    for (e0, f0, _), (e1, f1, _) in zip(by_eps, by_eps[1:]):
        _require(f0 < f1, f"hit frequency {f0!r} at eps {e0!r} is not below {f1!r} at eps {e1!r}")


def check_sliced_rate(extrapolated: float, expected: float, standard_error: float):
    """Monte Carlo rate within SLICED_SIGMAS standard errors of the design's rate.

    ``expected`` is the rate that the fit gives on the design's expected hit
    probabilities, and ``standard_error`` comes from the same probabilities
    (see ``rate_standard_error``).  The fit's upper tail is heavy, so the band
    is wider than MC_SIGMAS: under a binomial model a correct sampler falls
    outside 4.5 errors less than once in 40 000 runs.
    """
    tol = SLICED_SIGMAS * standard_error
    _require(math.isfinite(extrapolated) and abs(extrapolated - expected) <= tol,
             f"sliced rate {extrapolated!r} is {abs(extrapolated - expected) / expected:.1%} "
             f"from the expected {expected!r} (tolerance {tol / expected:.1%})")


def check_hit_frequencies(freqs, probs, n_paths: int):
    """Each Monte Carlo frequency within MC_SIGMAS binomial errors of its probability."""
    _require(len(freqs) == len(probs) and len(freqs) > 0,
             f"{len(freqs)} frequencies for {len(probs)} probabilities")
    for f, q in zip(freqs, probs):
        se = math.sqrt(q * (1.0 - q) / n_paths)
        _require(abs(f - q) <= MC_SIGMAS * se,
                 f"hit frequency {f!r} is {abs(f - q) / se:.1f} standard errors from {q!r}")


def check_no_undercut(values, costs):
    for v, c in zip(values, costs):
        _require(v >= c * (1.0 - UNDERCUT_REL),
                 f"path action {v!r} undercuts the closed-form cost {c!r}")


def check_reference(name: str, value: float, expected: float):
    _require(abs(value - expected) <= REF_TOL,
             f"{name} = {value!r}, expected {expected!r}")


def ball_rate_closed_form(a: float, x1: float, xp: float, c1: float, cp: float,
                          r: float) -> float:
    """Infimum of the sticky cost over a ball that lies outside the cone (a > 1).

    There the cost is ``(sqrt(a-1)(x1+y1) + |y'-x'|)^2 / (2a)``, whose inner
    term is linear in ``y``; it is smallest at the ball point furthest along
    ``-(sqrt(a-1), 1)``.  The caller must pick a ball where the minimiser
    stays outside the cone and inside the half-space.
    """
    return (math.sqrt(a - 1.0) * (x1 + c1) + abs(cp - xp) - r * math.sqrt(a)) ** 2 / (2.0 * a)
