"""The benchmark's checks accept correct outputs and reject corrupted ones.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import csv
import json
import math

import numpy as np
import pytest

import checks
import ops
import run
import spans
import speed
from checks import CheckFailed
from stickybm import geometry, ldp, pathopt, transport
from stickybm.geometry import ModelParams
from stickybm.simulate import SimConfig, simulate_batch


def _measures(n, uniform, seed=7):
    shape = dict(spread=3.0, x1_max=2.0, boundary_share=0.3)
    return (ops._measure(seed, 0, n, 0.0, uniform, **shape),
            ops._measure(seed, 1, n, 0.5, uniform, **shape))


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _rewrite_json(path, key, value):
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


# --- transport -------------------------------------------------------------

def test_general_plan_check_rejects_value_and_marginal_corruption():
    params = ModelParams(4.0, 1.0)
    mu0, mu1 = _measures(7, uniform=False)
    plan = transport.kantorovich(params, mu0, mu1)
    costm = transport.cost_matrix(params, mu0, mu1)
    a, b = np.asarray(mu0.weights), np.asarray(mu1.weights)
    ref = checks.highs_transport_value(costm, a, b)
    checks.check_transport(plan.cost_value, ref, plan.matrix, a, b, costm)
    with pytest.raises(CheckFailed, match="differs from the reference"):
        checks.check_transport(plan.cost_value + 1e-7, ref, plan.matrix, a, b, costm)
    moved = plan.matrix.copy()
    i, j = np.argwhere(moved > 1e-3)[0]
    moved[i, j] -= 1e-9
    with pytest.raises(CheckFailed, match="marginal defect"):
        checks.check_transport(plan.cost_value, ref, moved, a, b, costm)
    with pytest.raises(CheckFailed, match="plan costs"):
        checks.check_transport(plan.cost_value, ref, np.outer(a, b), a, b, costm)


def test_assignment_check_rejects_a_suboptimal_permutation():
    params = ModelParams(4.0, 1.0)
    mu0, mu1 = _measures(6, uniform=True)
    costm = transport.cost_matrix(params, mu0, mu1)
    ref = checks.assignment_value(costm)
    plan = transport.kantorovich(params, mu0, mu1)
    a, b = np.asarray(mu0.weights), np.asarray(mu1.weights)
    checks.check_transport(plan.cost_value, ref, plan.matrix, a, b, costm)
    shifted = plan.matrix[:, np.roll(np.arange(6), 1)]
    with pytest.raises(CheckFailed, match="differs from the reference"):
        checks.check_transport(float(np.sum(shifted * costm)), ref, shifted, a, b, costm)


def test_ot_op_rejects_corrupted_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "OT_ATOMS", 6)
    op = ops.OPS["ot-general"]
    ctx = op.prepare(3, tmp_path)
    op.check(ctx, op.run(ctx))
    summary = ctx["out"] / "ot.json"
    good = json.loads(summary.read_text())["value"]
    _rewrite_json(summary, "value", good * (1 + 1e-8))
    with pytest.raises(CheckFailed):
        op.check(ctx, None)
    _rewrite_json(summary, "value", good)

    def perturb(rows):
        rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))
    _rewrite_csv(ctx["out"] / "ot.csv", perturb)
    with pytest.raises(CheckFailed):
        op.check(ctx, None)


def test_interpolate_op_rejects_a_perturbed_plan(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "OT_ATOMS", 6)
    op = ops.OPS["ot-uniform"]
    ctx = op.prepare(3, tmp_path)
    plans = op.run(ctx)
    op.check(ctx, plans)
    bad = transport.TransportPlan(plans[0].matrix * (1 + 1e-9), plans[0].cost_value,
                                  plans[0].source, plans[0].target)
    with pytest.raises(CheckFailed, match="marginal defect"):
        op.check(ctx, [bad])
    _rewrite_json(ctx["out"] / "interpolate.json", "plan_value", plans[0].cost_value + 1e-6)
    with pytest.raises(CheckFailed):
        op.check(ctx, plans)


def test_gamma_limit_check_rejects_failed_epsilons_and_wrong_value():
    checks.check_gamma_limit([], 1.0, 1.0)
    with pytest.raises(CheckFailed, match="Sinkhorn failed"):
        checks.check_gamma_limit([0.01], 1.0, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_gamma_limit([], 1.0 + 1e-8, 1.0)


# --- kernel ----------------------------------------------------------------

def test_kernel_grid_op_rejects_a_vanished_density(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "KERNEL_GRID", 3)
    op = ops.OPS["kernel-grid"]
    ctx = op.prepare(1, tmp_path)
    op.check(ctx, op.run(ctx))

    def vanish(rows):
        rows[2][5] = "0"
    _rewrite_csv(ctx["0.01"]["out"] / "kernel.csv", vanish)
    with pytest.raises(CheckFailed, match="interior"):
        op.check(ctx, None)


def test_gamma_limit_op_rejects_a_wrong_kantorovich_value(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "GAMMA_ATOMS", 3)
    op = ops.OPS["gamma-limit"]
    ctx = op.prepare(1, tmp_path)
    op.check(ctx, op.run(ctx))
    summary = ctx["out"] / "gamma-limit.json"
    good = json.loads(summary.read_text())["kantorovich_value"]
    _rewrite_json(summary, "kantorovich_value", good + 1e-8)
    with pytest.raises(CheckFailed):
        op.check(ctx, None)
    _rewrite_json(summary, "kantorovich_value", good)
    _rewrite_json(summary, "failed_epsilons", [0.01])
    with pytest.raises(CheckFailed, match="Sinkhorn failed"):
        op.check(ctx, None)


def test_ldp_quad_op_rejects_a_wrong_rate(tmp_path):
    op = ops.OPS["ldp-quad"]
    ctx = op.prepare(1, tmp_path)
    op.check(ctx, op.run(ctx))
    _rewrite_json(ctx["out"] / "ldp-static.json", "extrapolated_rate", 0.45125 * 1.2)
    with pytest.raises(CheckFailed, match="extrapolated"):
        op.check(ctx, None)


def test_mass_check_op():
    op = ops.OPS["mass-check"]
    op.check({}, op.run({}))
    with pytest.raises(CheckFailed):
        op.check({}, [1.0, 1.0 + 1e-6])


def test_kernel_grid_check():
    y1 = np.array([0.0, 0.0, 0.5, 0.5])
    interior = np.array([0.2, 0.1, 0.3, 0.05])
    boundary = np.array([0.4, 0.3, 0.0, 0.0])
    checks.check_kernel_grid(y1, interior, boundary)
    for bad in (np.array([0.2, 0.1, 0.0, 0.05]), np.array([0.2, np.nan, 0.3, 0.05])):
        with pytest.raises(CheckFailed):
            checks.check_kernel_grid(y1, bad, boundary)
    with pytest.raises(CheckFailed):
        checks.check_kernel_grid(y1, interior, np.array([0.4, 0.0, 0.0, 0.0]))
    with pytest.raises(CheckFailed):
        checks.check_kernel_grid(y1, interior, np.array([0.4, 0.3, 0.1, 0.0]))


def test_mass_check():
    checks.check_masses([1.0, 1.0 + 5e-8, 1.0 - 5e-8])
    with pytest.raises(CheckFailed):
        checks.check_masses([1.0, 1.0 + 2e-7])
    with pytest.raises(CheckFailed):
        checks.check_masses([math.nan])


def test_static_rate_check():
    checks.check_static_rate(0.46, 0.45125, ops.PATCH_RATE)
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_static_rate(0.46, 0.45125 + 2e-6, ops.PATCH_RATE)
    with pytest.raises(CheckFailed, match="extrapolated"):
        checks.check_static_rate(0.45125 * 1.11, 0.45125, ops.PATCH_RATE)


# --- sampler ---------------------------------------------------------------

def test_paths_check_on_real_paths():
    params = ModelParams(2.0, 1.5)
    cfg = SimConfig(params, geometry.point(0.3, 0.0), 0.05, 5, seed=1)
    batch = simulate_batch(cfg, 4)
    checks.check_paths(1.5, batch.x1, batch.local_time, batch.occupation_time)
    bumped = batch.local_time.copy()
    k = np.argmax(bumped[:, -1])
    bumped[k, -1] = np.nextafter(bumped[k, -1], np.inf)
    with pytest.raises(CheckFailed, match="theta"):
        checks.check_paths(1.5, batch.x1, bumped, batch.occupation_time)
    x1 = batch.x1.copy()
    x1[0, 1] = -1e-12
    with pytest.raises(CheckFailed, match="half-space"):
        checks.check_paths(1.5, x1, batch.local_time, batch.occupation_time)


def test_simulate_op_rejects_a_local_time_off_theta_times_occupation(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "SIM_PATHS", 3)
    monkeypatch.setattr(ops, "SIM_STEPS", 4)
    op = ops.OPS["simulate"]
    ctx = op.prepare(5, tmp_path)
    op.check(ctx, op.run(ctx))

    def perturb(rows):
        col = rows[0].index("L")
        last = rows[-1]
        last[col] = repr(float(last[col]) + 1e-12)
    _rewrite_csv(ctx["out"] / "simulate.csv", perturb)
    with pytest.raises(CheckFailed):
        op.check(ctx, None)


def test_mc_static_op_rejects_a_shifted_frequency(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "MC_PATHS", 3000)
    op = ops.OPS["mc-static"]
    ctx = op.prepare(1, tmp_path)
    op.check(ctx, op.run(ctx))

    def shift(rows):
        p = float(rows[1][1])
        rows[1][1] = repr(p + 5.0 * math.sqrt(p * (1 - p) / 3000))
    _rewrite_csv(ctx["out"] / "ldp-static.csv", shift)
    with pytest.raises(CheckFailed, match="standard errors"):
        op.check(ctx, None)


def _write_ldp_path(out, eps, freqs, rate):
    """An ``stickybm ldp-path`` output with the given frequencies and rate."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ldp-path.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "prob", "eps_log_prob"])
        for e, f in zip(eps, freqs):
            writer.writerow([e, f, e * math.log(f)])
        writer.writerow(["summary", rate, ops.SLICED_RATE])
    (out / "ldp-path.json").write_text(json.dumps(
        {"extrapolated_rate": rate, "reference_rate": ops.SLICED_RATE, "dropped_epsilons": []}))


def test_ldp_path_op_accepts_a_real_run(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "LDP_PATH_PATHS", 4000)
    op = ops.OPS["ldp-path"]
    ctx = op.prepare(1, tmp_path)
    op.check(ctx, op.run(ctx))


def test_ldp_path_op_rejects_corrupted_outputs(tmp_path):
    op = ops.OPS["ldp-path"]
    ctx = op.prepare(1, tmp_path)
    eps, expected = ops.LDP_PATH_EPSILONS, list(ops.LDP_PATH_EXPECTED)
    _write_ldp_path(ctx["out"], eps, expected, checks.fitted_rate(eps, expected))
    op.check(ctx, None)
    # a rate that does not follow from the reported frequencies
    _rewrite_json(ctx["out"] / "ldp-path.json", "extrapolated_rate", 0.3)
    with pytest.raises(CheckFailed, match="fit of its frequencies"):
        op.check(ctx, None)
    # the smallest eps hit five standard errors too often
    q, n = expected[-1], ops.LDP_PATH_PATHS
    shifted = expected[:-1] + [q + 5.0 * math.sqrt(q * (1 - q) / n)]
    _write_ldp_path(ctx["out"], eps, shifted, checks.fitted_rate(eps, shifted))
    with pytest.raises(CheckFailed, match="standard errors"):
        op.check(ctx, None)


def test_sliced_frequency_check():
    eps, q = (0.2, 0.1, 0.05), (0.05, 0.017, 0.002)
    checks.check_sliced_frequencies(eps, q, q, 1000, 10**6)
    with pytest.raises(CheckFailed, match=r"not in \(0, 1\)"):
        checks.check_sliced_frequencies(eps, (0.05, 0.017, 0.0), q, 1000, 10**6)
    with pytest.raises(CheckFailed, match="not below"):
        checks.check_sliced_frequencies(eps, (0.05, 0.017, 0.018), (0.05, 0.017, 0.017),
                                        1000, 10**6)
    with pytest.raises(CheckFailed):
        checks.check_sliced_frequencies(eps, q[:2], q, 1000, 10**6)


def test_expected_ldp_path_probabilities_fit_the_reference_rate():
    """The design itself: its fitted rate is within 20% of the closed form 0.18."""
    eps, probs = ops.LDP_PATH_EPSILONS, ops.LDP_PATH_EXPECTED
    rate = checks.fitted_rate(eps, probs)
    assert abs(rate - ops.SLICED_RATE) <= 0.2 * ops.SLICED_RATE
    ys = [e * math.log(p) for e, p in zip(eps, probs)]
    assert rate == pytest.approx(ldp.fit_rate(eps, ys)[0], abs=1e-12)


def test_sliced_rate_check_rejects_a_rate_60_percent_off():
    eps, probs = ops.LDP_PATH_EPSILONS, ops.LDP_PATH_EXPECTED
    expected = checks.fitted_rate(eps, probs)
    se = checks.rate_standard_error(eps, probs, ops.LDP_PATH_PATHS)
    assert 4.5 * se < 0.6 * ops.SLICED_RATE
    checks.check_sliced_rate(expected + 4.4 * se, expected, se)
    checks.check_sliced_rate(expected - 4.4 * se, expected, se)
    for wrong in (expected + 4.6 * se, 0.3, 0.18 * 1.65, 0.06, math.nan):
        with pytest.raises(CheckFailed, match="sliced rate"):
            checks.check_sliced_rate(wrong, expected, se)
    assert checks.rate_standard_error(eps, probs, 100 * ops.LDP_PATH_PATHS) == \
        pytest.approx(se / 10)


def test_hit_frequency_check():
    q, n = 0.1, 10000
    se = math.sqrt(q * (1 - q) / n)
    checks.check_hit_frequencies([q + 3 * se, q - 3 * se], [q, q], n)
    with pytest.raises(CheckFailed, match="standard errors"):
        checks.check_hit_frequencies([q, q + 5 * se], [q, q], n)
    with pytest.raises(CheckFailed):
        checks.check_hit_frequencies([q], [q, q], n)


# --- oracles ---------------------------------------------------------------

def test_pathopt_check_rejects_an_undercutting_path():
    params = ModelParams(3.0, 1.0)
    x, y = geometry.point(0.5, 0.0), geometry.point(0.5, 2.5)
    res = pathopt.minimize_path_action(params, x, y, n_segments=16, restarts=2, seed=0)
    c = geometry.cost(params, x, y)
    checks.check_no_undercut([res.value], [c])
    with pytest.raises(CheckFailed, match="undercuts"):
        checks.check_no_undercut([c * (1 - 1e-6)], [c])


def test_reference_rates_match_the_closed_forms():
    got = ops._ref_run({})
    ops._ref_check({}, got)
    assert got["patch"] == pytest.approx(0.45125, abs=1e-12)
    with pytest.raises(CheckFailed, match="ball"):
        ops._ref_check({}, dict(got, ball=got["ball"] + 1e-5))
    with pytest.raises(CheckFailed, match="sliced"):
        ops._ref_check({}, dict(got, sliced=0.181))


def test_ball_closed_form_is_the_infimum_over_the_ball():
    """The ball lies outside the cone, where the cost is the slanted formula."""
    params = ModelParams(2.5, 1.0)
    x = geometry.point(1.0, 0.0)
    phi = np.linspace(0.0, 2.0 * math.pi, 4001)
    ys = [geometry.point(1.0 + 0.1 * math.cos(p), 5.0 + 0.1 * math.sin(p)) for p in phi]
    sampled = min(geometry.cost(params, x, y) for y in ys)
    assert ops.BALL_RATE <= sampled <= ops.BALL_RATE + 1e-6
    assert not geometry.cone_contains(params, x, geometry.point(1.0, 4.9))


# --- runner ----------------------------------------------------------------

def test_op_medians_leave_out_failed_ops():
    rounds = [[{"op": "x", "ok": True, "op_s": 2.0, "op_ref_s": 1.0}],
              [{"op": "x", "ok": False, "op_s": 0.1, "op_ref_s": 0.05}],
              [{"op": "x", "ok": True, "op_s": 4.0, "op_ref_s": 3.0}]]
    assert run.op_medians(rounds, ["x"]) == {"x": (2.0, 2)}
    assert run.op_medians(rounds, ["x"], "op_s") == {"x": (3.0, 2)}


def test_reference_time_cancels_a_uniform_slowdown():
    unit = speed.REFERENCE_UNIT_S
    assert speed.to_reference(1.0, unit) == pytest.approx(1.0)
    assert speed.to_reference(1.7, speed.unit_time(1.7 * unit, [1.7 * unit], 1.7 * unit)) \
        == pytest.approx(1.0)
    assert speed.unit_time(1.0, [2.0, 3.0, 4.0], 5.0) == pytest.approx(3.0)
    assert speed.unit_time(1.0, [1.0, 4.5, 1.0], 1.0) == pytest.approx(1.0)


def test_probe_samples_while_active_and_restores_the_handler():
    import signal
    import time
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    assert len(probe.samples) >= 3
    assert all(0.0 < s < 1.0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < speed.calibrate(reps=3) < 1.0


# --- tracing ---------------------------------------------------------------

def test_recorder_wraps_every_binding_and_restores_them():
    original = geometry.cost
    rec = spans.Recorder()
    rec.install()
    try:
        assert ldp.cost is geometry.cost is not original
        ldp.min_cost_over_target(ModelParams(4.0, 1.0), geometry.point(0.0, 0.0),
                                 ldp.BoundaryPatch((2.0,), 0.1))
    finally:
        rec.uninstall()
    assert ldp.cost is original and geometry.cost is original
    metrics = spans.layer_metrics(spans.layer_totals(rec.spans))
    assert metrics["geometry.cost.calls"] > 100
    assert metrics["ldp.min_cost_over_target.s"] > 0
    assert set(metrics) == set(spans.LAYER_UNITS)


def test_missing_target_reads_zero(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS",
                        spans.TARGETS + (("stickybm.simulate", "no_such_function", "x.y", None),))
    rec = spans.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.missing == ["stickybm.simulate.no_such_function"]
    assert spans.layer_metrics(spans.layer_totals([]))["simulate.increment_tables.calls"] == 0


def test_self_time_subtracts_children_and_totals_skip_nested_spans():
    # (id, label, start, end, parent, error, extra)
    fake = [
        (1, "cli.main", 0.0, 10.0, None, False, None),
        (2, "transport.schrodinger", 1.0, 9.0, 1, False, 100),
        (3, "kernel.log_mu_density", 1.0, 3.0, 2, False, None),
        (4, "kernel.log_mu_density", 3.0, 4.0, 2, False, None),
        (5, "kernel.log_sticky_integral", 4.0, 4.5, None, True, None),
        (6, "kernel.log_mu_density", 1.5, 2.0, 3, False, None),
        (7, "kernel.transition_kernel", 9.0, 9.8, 1, True, None),
        (8, "kernel.log_sticky_integral", 9.0, 9.7, 7, True, None),
        (9, "quadrature.log_integrate", 9.0, 9.6, 8, True, None),
    ]
    m = spans.layer_metrics(spans.layer_totals(fake))
    assert m["cli.self_s"] == pytest.approx(1.2)
    assert m["transport.kernel_build.s"] == pytest.approx(3.0)
    assert m["transport.sinkhorn.iterations"] == 100
    assert m["transport.sinkhorn.sweep_us"] == pytest.approx(1e6 * 5.0 / 100)
    assert m["kernel.errors"] == 2      # each failure counts once, at its outermost kernel call


def test_ratio_metrics_come_from_totals_summed_over_processes():
    one = [(1, "kernel.log_sticky_integral", 0.0, 0.004, None, False, None)]
    three = [(k, "kernel.log_sticky_integral", 0.0, 0.002, None, False, None) for k in (1, 2, 3)]
    totals = {}
    for process in (one, three):
        for k, v in spans.layer_totals(process).items():
            totals[k] = totals.get(k, 0) + v
    m = spans.layer_metrics(totals)
    assert m["kernel.log_sticky_integral.calls"] == 4
    assert m["kernel.log_sticky_integral.mean_ms"] == pytest.approx(2.5)
