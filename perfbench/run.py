"""Cold-start benchmark of the stickybm CLI and library.

Usage (from the repository root):

    python3 perfbench/run.py --workload kernel-ot --seed 1 --seconds 20 --trace 0

Runs the workload's operations in rounds, each operation in a fresh
interpreter, for about ``--seconds`` (at least three rounds).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead.  Times are medians at a fixed reference speed: each op
times a fixed loop before, during and after its timed call (``speed.py``), so
that the host's changing load drops out.  Human-readable lines come first;
the last line of standard output is the JSON result.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"

WORKLOADS = {
    "kernel-ot": ("kernel-grid", "gamma-limit", "ldp-quad", "mass-check"),
    "paths-mc": ("simulate", "ldp-path", "mc-static"),
    "oracles": ("ot-general", "ot-uniform", "pathopt", "ref-rate"),
}

# Each workload's own end-to-end metrics: name -> (unit, operations, kind).
# "time" is the median operation time, "rate" is work per second of median
# time, "per_unit" is median time per unit of work.
WORKLOAD_METRICS = {
    "kernel-ot": {
        "kernel_evals_per_s": ("1/s", ("kernel-grid",), "rate"),
        "gamma_limit_s": ("s", ("gamma-limit",), "time"),
        "ldp_quad_s": ("s", ("ldp-quad",), "time"),
        "mass_check_s": ("s", ("mass-check",), "time"),
    },
    "paths-mc": {
        "sim_path_steps_per_s": ("1/s", ("simulate",), "rate"),
        "ldp_path_s": ("s", ("ldp-path",), "time"),
        "mc_paths_per_s": ("1/s", ("mc-static",), "rate"),
    },
    "oracles": {
        "ot_general_s": ("s", ("ot-general",), "time"),
        "ot_uniform_s": ("s", ("ot-uniform",), "time"),
        "pathopt_s": ("s", ("pathopt",), "per_unit"),
        "ref_rate_s": ("s", ("ref-rate",), "time"),
    },
}

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 150        # not even the minimum rounds start past this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded BLAS (within the nproc cap) so that library threads do
    # not contend with the CLI's own worker threads on a small machine.
    for var in BLAS_VARS:
        env[var] = str(min(1, nproc()))
    return env


def git_commit() -> str:
    """The checked-out commit, read from .git without running git ("unknown" if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, env: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "cli_default_threads": os.cpu_count(),
    }


def run_op(op: str, seed: int, round_no: int, trace: bool, env: dict) -> dict:
    """Spawn one fresh interpreter for one operation and collect its report."""
    opdir = WORKDIR / f"{round_no:03d}-{op}"
    cmd = [sys.executable, str(HERE / "child.py"), op, str(seed), str(opdir), "1" if trace else "0"]
    t_spawn = time.time()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
        if not isinstance(report, dict):
            report = {"op": op, "ok": False,
                      "error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    except subprocess.TimeoutExpired:
        report = {"op": op, "ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    except json.JSONDecodeError as exc:
        report = {"op": op, "ok": False, "error": f"unreadable report: {exc}"}
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    if "cal_before_s" in report:
        report["setup_s"] = report["start_wall"] - t_spawn
        report["setup_ref_s"] = speed.to_reference(report["setup_s"], report["cal_before_s"])
    if "cal_after_s" in report:
        unit_s = speed.unit_time(report["cal_before_s"], report["probe_s"], report["cal_after_s"])
        report["op_ref_s"] = speed.to_reference(report["op_s"], unit_s)
    report["round"] = round_no
    report["traced"] = trace
    return report


def run_rounds(ops, seed: int, seconds: float, trace: bool, env: dict):
    """Rounds of all operations within ``seconds``, at least MIN_ROUNDS of them.

    A traced run alternates untraced and traced rounds, starting untraced, so
    that both see the same machine state, and makes at least two of each.  A
    round is not started if, at the length of the last one, it would end past
    ``seconds``.
    """
    rounds = []
    needed = 4 if trace else MIN_ROUNDS
    t_begin = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        rounds.append([run_op(op, seed, len(rounds), traced, env) for op in ops])
        now = time.perf_counter()
        ends = now - t_begin + (now - t_round)
        if ends > (seconds if len(rounds) >= needed else RUN_LIMIT_S):
            break
    return rounds


def op_medians(rounds, ops, key: str = "op_ref_s") -> dict:
    """Per op: the median time over the rounds where it passed, and the sample count.

    ``key`` is ``op_ref_s`` (at the reference speed) or ``op_s`` (wall time).
    A failed op may have stopped early, so its time would flatter the metrics.
    """
    out = {}
    for op in ops:
        times = [r[key] for rnd in rounds for r in rnd if r["op"] == op and r["ok"]]
        out[op] = (statistics.median(times), len(times)) if times else (math.nan, 0)
    return out


def workload_metrics(workload: str, med: dict, work: dict) -> dict:
    out = {}
    for name, (unit, ops, kind) in WORKLOAD_METRICS[workload].items():
        t = sum(med[op][0] for op in ops)
        n = min(med[op][1] for op in ops)
        units = sum(work.get(op, 1.0) for op in ops)
        value = {"time": t, "rate": units / t if t > 0 else math.nan,
                 "per_unit": t / units}[kind]
        out[name] = (value, unit, n)
    return out


def end_to_end(rounds, ops) -> dict:
    """The BENCHMARK.json metrics, with their units and sample counts."""
    med = op_medians(rounds, ops)
    samples = [r for rnd in rounds for r in rnd]
    setups = [r["setup_ref_s"] for r in samples if "setup_ref_s" in r]
    rss = [r["rss_mb"] for r in samples if "rss_mb" in r]
    times = [med[op][0] for op in ops]
    return {
        "setup_s": (statistics.median(setups) if setups else math.nan, "s", len(setups)),
        "peak_rss_mb": (max(rss) if rss else math.nan, "MB", len(rss)),
        "round_s": (sum(times), "s", len(rounds)),
        "op_geomean_s": (math.exp(sum(math.log(t) for t in times) / len(times))
                         if all(t > 0 for t in times) else math.nan, "s", len(rounds)),
    }


def layer_values(traced_rounds):
    """Median per-layer metrics over traced rounds, and exact-count mismatches."""
    per_round = []
    for rnd in traced_rounds:
        totals = {}
        for r in rnd:
            for k, v in r.get("layers", {}).items():
                totals[k] = totals.get(k, 0) + v
        per_round.append(spans.layer_metrics(totals))
    mismatches = [k for k in spans.EXACT_COUNTS
                  if len({rnd[k] for rnd in per_round}) > 1]
    values = {k: statistics.median(rnd[k] for rnd in per_round) for k in spans.LAYER_UNITS}
    return values, mismatches, per_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "stickybm" / "__init__.py").is_file():
        print(f"error: no stickybm sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    info = environment(args.seed, env)
    ops = WORKLOADS[args.workload]
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        rounds = run_rounds(ops, args.seed, args.seconds, bool(args.trace), env)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    samples = [r for rnd in rounds for r in rnd]
    failed = [r for r in samples if not r["ok"]]
    print(f"env {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}: {len(rounds)} rounds, every operation in a fresh "
          f"interpreter; no tail percentile (fewer than ten samples beyond any)")
    for r in failed:
        print(f"FAILED round {r['round']} {r['op']}: {r['error']}")
    print(f"failed_frac {len(failed) / len(samples)!r} (failed {len(failed)} of "
          f"{len(samples)} attempted)")

    if args.trace:
        untraced = [rnd for rnd in rounds if not rnd[0]["traced"]]
        traced = [rnd for rnd in rounds if rnd[0]["traced"]]
        if len(traced) < 2:
            print(f"error: fewer than two traced rounds fitted in {RUN_LIMIT_S} s",
                  file=sys.stderr)
            return 1
        values, mismatches, per_round = layer_values(traced)
        base = end_to_end(untraced, ops)["round_s"][0]
        values["tracing.overhead_frac"] = end_to_end(traced, ops)["round_s"][0] / base - 1.0
        values["trace.count_mismatches"] = len(mismatches)
        for k in mismatches:
            print(f"NONDETERMINISM {k} differs across traced rounds at one seed: "
                  f"{[rnd[k] for rnd in per_round]}")
        missing = sorted({m for r in samples for m in r.get("missing_targets", ())})
        if missing:
            print(f"trace targets no longer present (their metrics read 0): {missing}")
        units = dict(spans.LAYER_UNITS, **{"tracing.overhead_frac": "frac",
                                           "trace.count_mismatches": "count"})
        for k, v in values.items():
            print(f"layer {k} = {v!r} {units[k]} (median of {len(traced)} traced rounds)")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        correct = not failed and not mismatches
    else:
        e2e = end_to_end(rounds, ops)
        med = op_medians(rounds, ops)
        wall = op_medians(rounds, ops, "op_s")
        work = {r["op"]: r["work"] for r in samples if "work" in r}
        for op in ops:
            print(f"op {op}: median {med[op][0]!r} s at the reference speed, "
                  f"{wall[op][0]!r} s wall (n={med[op][1]})")
        for name, (value, unit, n) in workload_metrics(args.workload, med, work).items():
            print(f"metric {name} = {value!r} {unit} (n={n})")
        for name, (value, unit, n) in e2e.items():
            print(f"metric {name} = {value!r} {unit} (n={n})")
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
        correct = not failed

    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
