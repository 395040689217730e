"""The benchmark's operations: inputs made from the seed, a timed call, a check.

Every operation runs in its own fresh interpreter (see ``child.py``).  Those
with a ``stickybm`` subcommand go through ``stickybm.cli.main(argv)``; the
rest call the public library function.  Library functions are looked up as
module attributes at call time, so traced runs see the wrapped bindings.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from stickybm import cli, geometry, kernel, ldp, pathopt, transport
from stickybm.geometry import HalfSpacePoint, ModelParams
from stickybm.quadrature import QuadratureSpec

import checks

# Problem sizes.  One round of a workload should take a few seconds on a
# 2-CPU machine, so a run of BENCHMARK.json's ``run_seconds`` holds several.
KERNEL_GRID = 16            # kernel grid points per axis (plus a boundary row)
GAMMA_ATOMS = 10            # atoms per measure in the gamma-limit experiment
GAMMA_EPSILONS = "0.04,0.02,0.01"
MASS_GRID = tuple((a, th, t) for a in (0.5, 1.0, 4.0) for th in (0.5, 2.0) for t in (0.25, 1.0))
SIM_PATHS, SIM_STEPS = 40, 50
LDP_PATH_PATHS = 60000
MC_PATHS = 15000
MC_EPSILONS = (0.2, 0.1, 0.05)
OT_ATOMS = 32
PATHOPT_INSTANCES, PATHOPT_SEGMENTS, PATHOPT_RESTARTS = 3, 32, 8

# Seeded inputs are a fixed layout that the workload seed jitters by up to
# JITTER (absolute for tangential positions, relative otherwise), so that
# the work per op, and with it the timing, stays comparable across seeds.
# The exact transport solver's pivots are sensitive: over ten seeds, the
# Python calls of one 32x32 solve spread by 14% of their median at a 2%
# jitter and by 3.5% at 0.2%.
DESIGN_SEED = 2501_11394
JITTER = 0.002

# Known reference values (closed forms of the cost infima).
PATCH_RATE = (2.0 - 0.1) ** 2 / (2.0 * 4.0)     # criterion-7 patch at a = 4: 0.45125
SLICED_RATE = 1.2 ** 2 / (2.0 * 4.0)            # criterion-9 boundary route: 0.18
BALL_RATE = checks.ball_rate_closed_form(2.5, 1.0, 0.0, 1.0, 5.0, 0.1)   # criterion-8 ball
WAYPOINTS = "0.5:0,1:0.8;1.0:0,2:0.8"           # criterion-9 balls

# Expected ldp-path hit probabilities per epsilon, pooled over twelve runs of
# ``stickybm.ldp.sliced_ldp`` (what ``stickybm ldp-path`` calls) with 36 000
# paths each, at seeds 1 000 000 + 10 000 k for k = 0..11.
# They fix the check's tolerances in advance, so that a wrong output cannot
# widen them.
LDP_PATH_EPSILONS = (0.2, 0.1, 0.05)
LDP_PATH_EXPECTED_PATHS = 12 * 36000
LDP_PATH_EXPECTED = tuple(hits / LDP_PATH_EXPECTED_PATHS for hits in (22148, 7518, 979))


class OpFailed(RuntimeError):
    """The operation itself did not complete (non-zero exit code)."""


class Op(NamedTuple):
    prepare: Callable[[int, Path], dict]     # (seed, workdir) -> context
    run: Callable[[dict], object]            # timed
    check: Callable[[dict, object], None]    # raises checks.CheckFailed
    work: float = 1.0                        # units of work (points, path steps, instances)


def P(x1, *xp) -> HalfSpacePoint:
    return HalfSpacePoint(float(x1), tuple(float(v) for v in xp))


# ---------------------------------------------------------------------------
# Inputs and outputs
# ---------------------------------------------------------------------------

def _measure(seed: int, salt: int, n: int, shift: float, uniform: bool, spread: float,
             x1_max: float, boundary_share: float) -> transport.DiscreteMeasure:
    """Atoms stratified along the boundary, a share of them on it; the seed jitters the layout."""
    base = np.random.default_rng([DESIGN_SEED, salt])
    jitter = np.random.default_rng([seed, salt]).uniform(-JITTER, JITTER, (3, n))
    xp = -spread + 2.0 * spread * (np.arange(n) + base.random(n)) / n + shift + jitter[0]
    on_boundary = base.random(n) < boundary_share
    x1 = np.where(on_boundary, 0.0, base.uniform(0.0, x1_max, n) * (1.0 + jitter[1]))
    w = np.full(n, 1.0 / n) if uniform else base.uniform(0.5, 1.5, n) * (1.0 + jitter[2])
    w = w / w.sum()
    return transport.DiscreteMeasure(tuple(P(a, b) for a, b in zip(x1, xp)), tuple(w))


def _write_measure(path: Path, mu: transport.DiscreteMeasure) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "xp1", "weight"])
        for p, w in zip(mu.atoms, mu.weights):
            writer.writerow([repr(p.x1), repr(p.xp[0]), repr(w)])
    return str(path)


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli_context(workdir: Path, argv) -> dict:
    out = workdir / "out"
    return {"argv": [str(a) for a in argv] + ["-o", str(out)], "out": out}


def _run_cli(ctx) -> int:
    code = cli.main(ctx["argv"])
    if code != 0:
        raise OpFailed(f"stickybm {ctx['argv'][0]} exited with code {code}")
    return code


def _measure_pair(seed: int, workdir: Path, salt: int, n: int, uniform: bool, **shape):
    mu0 = _measure(seed, 2 * salt, n, 0.0, uniform, **shape)
    mu1 = _measure(seed, 2 * salt + 1, n, 0.5, uniform, **shape)
    return mu0, mu1, _write_measure(workdir / "mu0.csv", mu0), _write_measure(workdir / "mu1.csv", mu1)


def _marginals(mu0, mu1):
    return np.asarray(mu0.weights), np.asarray(mu1.weights)


# ---------------------------------------------------------------------------
# kernel-ot
# ---------------------------------------------------------------------------

def _kernel_prepare(seed, workdir):
    """``stickybm kernel`` at t = 1 and at t = 0.01, both in the op's one interpreter."""
    return {t: _cli_context(workdir / t, ["kernel", "--a", 1, "--theta", 1, "--x", "0,0",
                                          "--t", t, "--grid", KERNEL_GRID])
            for t in ("1", "0.01")}


def _kernel_run(ctx):
    for sub in ctx.values():
        _run_cli(sub)


def _kernel_check(ctx, _):
    for sub in ctx.values():
        _, rows = _read_csv(sub["out"] / "kernel.csv")
        data = np.array(rows, dtype=float)
        if data.shape[0] != KERNEL_GRID * KERNEL_GRID + KERNEL_GRID:
            raise checks.CheckFailed(f"kernel grid has {data.shape[0]} rows")
        checks.check_kernel_grid(data[:, 3], data[:, 5], data[:, 6])


def _gamma_prepare(seed, workdir):
    mu0, mu1, p0, p1 = _measure_pair(seed, workdir, 1, GAMMA_ATOMS, False, spread=1.5,
                                     x1_max=1.0, boundary_share=0.5)
    ctx = _cli_context(workdir, ["gamma-limit", "--a", 4, "--theta", 1, "--mu0", p0,
                                 "--mu1", p1, "--epsilons", GAMMA_EPSILONS])
    ctx.update(mu0=mu0, mu1=mu1, params=ModelParams(4.0, 1.0))
    return ctx


def _gamma_check(ctx, _):
    summary = _read_json(ctx["out"] / "gamma-limit.json")
    costm = transport.cost_matrix(ctx["params"], ctx["mu0"], ctx["mu1"])
    reference = checks.highs_transport_value(costm, *_marginals(ctx["mu0"], ctx["mu1"]))
    checks.check_gamma_limit(summary["failed_epsilons"], summary["kantorovich_value"], reference)


def _ldp_quad_prepare(seed, workdir):
    return _cli_context(workdir, ["ldp-static", "--a", 4, "--theta", 1, "--x", "0,0",
                                  "--target", "patch:2:0.1",
                                  "--epsilons", "0.2,0.1,0.05,0.025"])


def _ldp_quad_check(ctx, _):
    summary = _read_json(ctx["out"] / "ldp-static.json")
    checks.check_static_rate(summary["extrapolated_rate"], summary["reference_rate"], PATCH_RATE)


def _mass_run(ctx):
    return [kernel.kernel_total_mass(ModelParams(a, th), t, P(0.3, 0.0)) for a, th, t in MASS_GRID]


# ---------------------------------------------------------------------------
# paths-mc
# ---------------------------------------------------------------------------

def _simulate_prepare(seed, workdir):
    return _cli_context(workdir, ["simulate", "--a", 2, "--theta", 1.5, "--x", "0.3,0",
                                  "--step", 0.05, "--n-steps", SIM_STEPS,
                                  "--n-paths", SIM_PATHS, "--seed", seed])


def _simulate_check(ctx, _):
    header, rows = _read_csv(ctx["out"] / "simulate.csv")
    data = np.array(rows, dtype=float)
    if data.shape[0] != SIM_PATHS * (SIM_STEPS + 1):
        raise checks.CheckFailed(f"simulate wrote {data.shape[0]} rows")
    col = {name: k for k, name in enumerate(header)}
    checks.check_paths(1.5, data[:, col["x1"]], data[:, col["L"]], data[:, col["O"]])


def _ldp_path_prepare(seed, workdir):
    return _cli_context(workdir, ["ldp-path", "--a", 4, "--theta", 1, "--x", "0,0",
                                  "--waypoints", WAYPOINTS,
                                  "--epsilons", ",".join(map(str, LDP_PATH_EPSILONS)),
                                  "--n-paths", LDP_PATH_PATHS, "--seed", seed])


def _ldp_path_check(ctx, _):
    summary = _read_json(ctx["out"] / "ldp-path.json")
    if summary["dropped_epsilons"]:
        raise checks.CheckFailed(f"no hits at eps {summary['dropped_epsilons']}")
    checks.check_reference("ldp-path reference rate", summary["reference_rate"], SLICED_RATE)
    _, rows = _read_csv(ctx["out"] / "ldp-path.csv")
    eps = [float(r[0]) for r in rows if r[0] != "summary"]
    freqs = [float(r[1]) for r in rows if r[0] != "summary"]
    if sorted(eps) != sorted(LDP_PATH_EPSILONS):
        raise checks.CheckFailed(f"ldp-path reported eps {eps}")
    expected = dict(zip(LDP_PATH_EPSILONS, LDP_PATH_EXPECTED))
    checks.check_sliced_frequencies(eps, freqs, [expected[e] for e in eps], LDP_PATH_PATHS,
                                    LDP_PATH_EXPECTED_PATHS)
    checks.check_reference("ldp-path rate against the fit of its frequencies",
                           summary["extrapolated_rate"], checks.fitted_rate(eps, freqs))
    se = checks.rate_standard_error(LDP_PATH_EPSILONS, LDP_PATH_EXPECTED, LDP_PATH_PATHS)
    checks.check_sliced_rate(summary["extrapolated_rate"],
                             checks.fitted_rate(LDP_PATH_EPSILONS, LDP_PATH_EXPECTED), se)


def _mc_prepare(seed, workdir):
    return _cli_context(workdir, ["ldp-static", "--a", 4, "--theta", 1, "--x", "0,0",
                                  "--target", "patch:1:0.2",
                                  "--epsilons", ",".join(map(str, MC_EPSILONS)),
                                  "--method", "monte_carlo", "--n-paths", MC_PATHS,
                                  "--seed", seed])


def _mc_check(ctx, _):
    summary = _read_json(ctx["out"] / "ldp-static.json")
    if summary["dropped_epsilons"]:
        raise checks.CheckFailed(f"no hits at eps {summary['dropped_epsilons']}")
    _, rows = _read_csv(ctx["out"] / "ldp-static.csv")
    freqs = [float(r[1]) for r in rows if r[0] != "summary"]
    params, spec = ModelParams(4.0, 1.0), QuadratureSpec()
    patch = ldp.BoundaryPatch((1.0,), 0.2)
    probs = [math.exp(ldp.log_target_probability(params, spec, eps, P(0.0, 0.0), patch))
             for eps in MC_EPSILONS]
    checks.check_hit_frequencies(freqs, probs, MC_PATHS)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _ot_prepare(uniform: bool, argv_tail):
    def prepare(seed, workdir):
        mu0, mu1, p0, p1 = _measure_pair(seed, workdir, 3 if uniform else 2, OT_ATOMS, uniform,
                                         spread=3.0, x1_max=2.0, boundary_share=0.3)
        ctx = _cli_context(workdir, [argv_tail[0], "--a", 4, "--theta", 1, "--mu0", p0,
                                     "--mu1", p1, *argv_tail[1:]])
        ctx.update(mu0=mu0, mu1=mu1, params=ModelParams(4.0, 1.0))
        return ctx
    return prepare


def _ot_check(ctx, _):
    summary = _read_json(ctx["out"] / "ot.json")
    _, rows = _read_csv(ctx["out"] / "ot.csv")
    costm = transport.cost_matrix(ctx["params"], ctx["mu0"], ctx["mu1"])
    plan = np.zeros_like(costm)
    for i, j, mass in rows:
        plan[int(i), int(j)] = float(mass)
    a, b = _marginals(ctx["mu0"], ctx["mu1"])
    checks.check_transport(summary["value"], checks.highs_transport_value(costm, a, b),
                           plan, a, b, costm)


def _interpolate_run(ctx):
    """Run ``stickybm interpolate``, keeping the exact plan it computed for the check."""
    plans = []
    inner = cli.kantorovich

    def keep(*args, **kwargs):
        plan = inner(*args, **kwargs)
        plans.append(plan)
        return plan

    cli.kantorovich = keep
    try:
        _run_cli(ctx)
    finally:
        cli.kantorovich = inner
    return plans


def _interpolate_check(ctx, plans):
    summary = _read_json(ctx["out"] / "interpolate.json")
    if len(plans) != 1:
        raise checks.CheckFailed(f"interpolate computed {len(plans)} exact plans")
    costm = transport.cost_matrix(ctx["params"], ctx["mu0"], ctx["mu1"])
    a, b = _marginals(ctx["mu0"], ctx["mu1"])
    checks.check_transport(summary["plan_value"], checks.assignment_value(costm),
                           plans[0].matrix, a, b, costm)


def _pathopt_prepare(seed, workdir):
    """Criterion-1 style instances, one per stratum of a in [1.05, 8], jittered by the seed.

    The restart seed is fixed per instance: it changes which random starts run,
    and with them the work, far more than the jitter does.
    """
    base = np.random.default_rng([DESIGN_SEED, 4])
    jitter = np.random.default_rng([seed, 4]).uniform(-JITTER, JITTER, (5, PATHOPT_INSTANCES))
    instances = []
    for i in range(PATHOPT_INSTANCES):
        a = 1.05 + 6.95 * (i + base.random()) / PATHOPT_INSTANCES
        x1, xp, y1, yp = base.uniform(0, 2), base.uniform(-3, 3), base.uniform(0, 2), base.uniform(-3, 3)
        j = jitter[:, i]
        instances.append((a * (1 + j[0]), P(x1 * (1 + j[1]), xp + j[2]),
                          P(y1 * (1 + j[3]), yp + j[4])))
    return {"instances": instances}


def _pathopt_run(ctx):
    return [pathopt.minimize_path_action(ModelParams(a, 1.0), x, y, n_segments=PATHOPT_SEGMENTS,
                                         restarts=PATHOPT_RESTARTS, seed=i).value
            for i, (a, x, y) in enumerate(ctx["instances"])]


def _pathopt_check(ctx, values):
    costs = [geometry.cost(ModelParams(a, 1.0), x, y) for a, x, y in ctx["instances"]]
    checks.check_no_undercut(values, costs)


def _ref_run(ctx):
    sets = [(0.5, ldp.Ball(P(0.0, 1.0), 0.8)), (1.0, ldp.Ball(P(0.0, 2.0), 0.8))]  # WAYPOINTS
    return {
        "ball": ldp.min_cost_over_target(ModelParams(2.5, 1.0), P(1.0, 0.0),
                                         ldp.Ball(P(1.0, 5.0), 0.1)),
        "patch": ldp.min_cost_over_target(ModelParams(4.0, 1.0), P(0.0, 0.0),
                                          ldp.BoundaryPatch((2.0,), 0.1)),
        "sliced": ldp.min_sliced_cost(ModelParams(4.0, 1.0), P(0.0, 0.0), sets),
    }


def _ref_check(ctx, values):
    for name, expected in (("ball", BALL_RATE), ("patch", PATCH_RATE), ("sliced", SLICED_RATE)):
        checks.check_reference(name, values[name], expected)


def _no_inputs(seed, workdir):
    return {}


OPS = {
    "kernel-grid": Op(_kernel_prepare, _kernel_run, _kernel_check,
                      work=2 * (KERNEL_GRID * KERNEL_GRID + KERNEL_GRID)),
    "gamma-limit": Op(_gamma_prepare, _run_cli, _gamma_check),
    "ldp-quad": Op(_ldp_quad_prepare, _run_cli, _ldp_quad_check),
    "mass-check": Op(_no_inputs, _mass_run, lambda ctx, masses: checks.check_masses(masses)),
    "simulate": Op(_simulate_prepare, _run_cli, _simulate_check, work=SIM_PATHS * SIM_STEPS),
    "ldp-path": Op(_ldp_path_prepare, _run_cli, _ldp_path_check),
    "mc-static": Op(_mc_prepare, _run_cli, _mc_check, work=MC_PATHS * len(MC_EPSILONS)),
    "ot-general": Op(_ot_prepare(False, ["ot"]), _run_cli, _ot_check),
    "ot-uniform": Op(_ot_prepare(True, ["interpolate", "--t", 0.5]), _interpolate_run,
                     _interpolate_check),
    "pathopt": Op(_pathopt_prepare, _pathopt_run, _pathopt_check, work=PATHOPT_INSTANCES),
    "ref-rate": Op(_no_inputs, _ref_run, _ref_check),
}
