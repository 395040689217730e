import numpy as np
import pytest

from stickybm.geometry import HalfSpacePoint, ModelParams, cost
from stickybm.pathopt import _timed_value, minimize_path_action


def P(x1, *xp):
    return HalfSpacePoint(x1, tuple(xp))


def test_never_undercuts_and_matches_three_segment_case():
    params = ModelParams(2.0, 1.0)
    x, y = P(1.0, 0.0), P(1.0, 5.0)
    res = minimize_path_action(params, x, y, restarts=10, seed=1)
    c = cost(params, x, y)
    assert res.value >= c * (1 - 1e-9)
    assert abs(res.value - 12.25) <= 0.02
    assert res.value <= res.uniform_value + 1e-12


def test_boundary_pair_exact():
    params = ModelParams(4.0, 1.0)
    res = minimize_path_action(params, P(0.0, 0.0), P(0.0, 2.0), restarts=6, seed=2)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.snapped.all()


def test_euclidean_regime_exact():
    params = ModelParams(1.5, 1.0)
    x, y = P(1.0, 0.0), P(1.4, 1.0)
    res = minimize_path_action(params, x, y, restarts=6, seed=3)
    assert res.value == pytest.approx(cost(params, x, y), rel=1e-9)


def test_small_a_euclidean():
    params = ModelParams(0.5, 1.0)
    x, y = P(0.5, 0.0), P(0.0, 2.0)
    res = minimize_path_action(params, x, y, restarts=6, seed=4)
    assert res.value >= cost(params, x, y) * (1 - 1e-9)
    assert res.value == pytest.approx(cost(params, x, y), rel=1e-6)


def test_random_instances_bracket_cost():
    rng = np.random.default_rng(7)
    for i in range(5):
        a = float(rng.uniform(1.05, 8.0))
        params = ModelParams(a, 1.0)
        x = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        y = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        res = minimize_path_action(params, x, y, restarts=12, seed=50 + i)
        c = cost(params, x, y)
        assert res.value >= c * (1 - 1e-9)
        assert res.value <= c * 1.02


# --- input validation ------------------------------------------------------

@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "8"])
def test_rejects_bad_segment_counts(bad):
    with pytest.raises(ValueError, match="n_segments"):
        minimize_path_action(ModelParams(2.0, 1.0), P(1.0, 0.0), P(1.0, 2.0), n_segments=bad)


def test_rejects_points_of_the_wrong_dimension():
    params = ModelParams(2.0, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        minimize_path_action(params, P(1.0, 0.0, 0.0), P(1.0, 2.0))
    with pytest.raises(ValueError, match="dimension"):
        minimize_path_action(params, P(1.0, 0.0), P(1.0, 2.0, 1.0))


def test_one_segment_is_the_chord():
    params = ModelParams(4.0, 1.0)
    for x, y in ((P(0.5, 0.0), P(0.2, 1.0)), (P(0.0, 0.0), P(0.7, 3.0)), (P(0.4, 1.0), P(0.0, 0.0))):
        res = minimize_path_action(params, x, y, n_segments=1)
        assert res.value == pytest.approx(0.5 * np.sum((y.coords() - x.coords()) ** 2), rel=1e-15)
        assert res.uniform_value == pytest.approx(res.value, rel=1e-15)
        assert not (res.snapped[0] and res.snapped[1])


def test_one_segment_between_boundary_points_is_the_boundary_chord():
    x, y = P(0.0, 0.5), P(0.0, 2.5)
    res = minimize_path_action(ModelParams(4.0, 1.0), x, y, n_segments=1)
    assert res.snapped.all()
    assert res.value == pytest.approx(2.0 ** 2 / 8.0, rel=1e-15)
    res = minimize_path_action(ModelParams(0.5, 1.0), x, y, n_segments=1)
    assert res.value == pytest.approx(2.0, rel=1e-15)


def test_zero_restarts_returns_the_same_exact_result():
    params = ModelParams(3.0, 1.0)
    x, y = P(0.5, 0.0), P(0.3, 4.0)
    ref = minimize_path_action(params, x, y)
    res = minimize_path_action(params, x, y, restarts=0)
    assert res.value == ref.value and res.uniform_value == ref.uniform_value
    assert np.array_equal(res.knots, ref.knots) and np.array_equal(res.snapped, ref.snapped)


# --- exactness -------------------------------------------------------------

def _uniform_energy(a, z, flags):
    n = flags.size - 1
    w = np.where(flags[:-1] & flags[1:], a, 1.0)
    return 0.5 * n * float((np.sum(np.diff(z, axis=0) ** 2, axis=1) / w).sum())


def _flagged_minimum(a, x0, y0, flags):
    """Minimum energy for fixed snap flags by a dense solve of the path Laplacian."""
    n = flags.size - 1
    inv_w = 1.0 / np.where(flags[:-1] & flags[1:], a, 1.0)
    lap = np.zeros((n + 1, n + 1))
    k = np.arange(n)
    lap[k, k] += inv_w
    lap[k + 1, k + 1] += inv_w
    lap[k, k + 1] -= inv_w
    lap[k + 1, k] -= inv_w
    z = np.zeros((n + 1, x0.size))
    z[0], z[n] = x0, y0
    for c in range(x0.size):
        pinned = np.zeros(n + 1, dtype=bool)
        pinned[[0, n]] = True
        if c == 0:
            pinned |= flags
        free = ~pinned
        if free.any():
            rhs = -lap[np.ix_(free, pinned)] @ z[pinned, c]
            z[free, c] = np.linalg.solve(lap[np.ix_(free, free)], rhs)
    assert z[:, 0].min() >= -1e-12
    return _uniform_energy(a, z, flags)


@pytest.mark.parametrize("a", [0.3, 1.0, 1.5, 4.0, 8.0])
def test_matches_exhaustive_search_over_snap_flags(a):
    params = ModelParams(a, 1.0)
    pairs = [(P(0.3, 0.0), P(0.5, 2.5)), (P(0.0, 0.0), P(0.4, 2.5)),
             (P(0.6, -1.0), P(0.0, 1.5)), (P(0.0, 0.0), P(0.0, 2.0))]
    for n in range(2, 9):
        for x, y in pairs:
            x0, y0 = x.coords(), y.coords()
            best = np.inf
            for mask in range(2 ** (n + 1)):
                flags = ((mask >> np.arange(n + 1)) & 1).astype(bool)
                if (flags[0] and x0[0] > 0) or (flags[n] and y0[0] > 0):
                    continue
                best = min(best, _flagged_minimum(a, x0, y0, flags))
            res = minimize_path_action(params, x, y, n_segments=n)
            assert res.uniform_value == pytest.approx(best, rel=1e-12, abs=0)


def _criterion_one_instances():
    rng = np.random.default_rng(101)
    out = []
    for _ in range(50):
        a = float(rng.uniform(1.05, 8.0))
        x = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        y = P(float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
        out.append((ModelParams(a, 1.0), x, y))
    return out


def test_uniform_gap_converges_on_sticky_instances():
    sticky = []
    for params, x, y in _criterion_one_instances():
        c = cost(params, x, y)
        if (minimize_path_action(params, x, y, n_segments=64).value - c) / c > 1e-12:
            sticky.append((params, x, y, c))
    assert len(sticky) == 19
    gaps = {64: [], 256: []}
    for params, x, y, c in sticky:
        res = {n: minimize_path_action(params, x, y, n_segments=n) for n in (64, 128, 256)}
        for r in res.values():
            assert r.value >= c * (1 - 1e-9)
        # the 64-segment lattice nests in the 256-segment one
        assert res[256].uniform_value <= res[64].uniform_value
        for n in gaps:
            gaps[n].append((res[n].uniform_value - c) / c)
    assert max(gaps[256]) * 10 <= max(gaps[64])


@pytest.mark.parametrize("a, x, y", [
    (3.0, P(0.5, 0.0), P(0.3, 4.0)),
    (6.0, P(0.0, 0.0), P(0.8, 3.0)),
    (2.0, P(1.2, 1.0), P(0.0, -2.0)),
    (0.7, P(0.0, 0.0), P(0.0, 2.0)),
    (1.5, P(1.0, 0.0), P(1.4, 1.0)),
    (5.0, P(0.2, 0.0, 1.0), P(0.4, 2.0, -2.0)),
])
def test_result_is_consistent(a, x, y):
    params = ModelParams(a, 1.0, d=x.dim)
    res = minimize_path_action(params, x, y, n_segments=32)
    z, flags = res.knots, res.snapped
    assert z.shape == (33, x.dim) and flags.shape == (33,)
    assert np.array_equal(z[0], x.coords()) and np.array_equal(z[-1], y.coords())
    assert np.all(z[flags, 0] == 0.0) and z[:, 0].min() >= 0.0
    starts = np.flatnonzero(flags[1:-1] & ~np.concatenate(([False], flags[1:-2])))
    assert starts.size <= 1
    assert res.uniform_value == pytest.approx(_uniform_energy(a, z, flags), rel=1e-12)
    assert res.value == _timed_value(a, z, flags)
    assert res.value <= res.uniform_value + 1e-12
