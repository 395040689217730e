"""Run one benchmark operation in this (fresh) interpreter and report it as JSON.

Usage: python3 perfbench/child.py OP SEED WORKDIR TRACE

Prints one JSON line: the wall-clock time at which set-up ended (the parent
subtracts its own spawn time to get the set-up time), the timed duration less
the speed probe's own time, the unit times of ``speed.py`` just before, during
and just after it, peak RSS, the check's verdict and, with TRACE=1, the
per-layer totals of this process's spans.  Set-up covers interpreter start,
imports and input generation; the calibrations and the check run outside both
timers.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _output_bytes(workdir: Path) -> int:
    """Bytes the op wrote: its CLI output directories are named ``out``."""
    return sum(p.stat().st_size for p in workdir.rglob("*")
               if p.is_file() and p.parent.name == "out")


def main(argv) -> int:
    name, seed, workdir, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"op": name, "ok": False, "error": None}
    try:
        import ops
        import spans
        import speed
        src = Path(__file__).resolve().parent.parent / "src"
        if not Path(ops.cli.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"stickybm was imported from {ops.cli.__file__}, not {src}")
        op = ops.OPS[name]
        recorder = None
        if trace:
            recorder = spans.Recorder()
            recorder.install()
        ctx = op.prepare(seed, workdir)
        report["start_wall"] = time.time()
        report["cal_before_s"] = speed.calibrate()
        probe = speed.Probe()
        t0 = time.perf_counter()
        try:
            with probe:
                result = op.run(ctx)
        finally:
            report["op_s"] = time.perf_counter() - t0 - sum(probe.samples)
            report["probe_s"] = probe.samples
            report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if recorder is not None:
                recorder.uninstall()
        report["cal_after_s"] = speed.calibrate()
        report["work"] = op.work
        if recorder is not None:
            layers = spans.layer_totals(recorder.spans)
            layers["cli.output_bytes"] = _output_bytes(workdir)
            report["layers"] = layers
            report["missing_targets"] = recorder.missing
        op.check(ctx, result)
        report["ok"] = True
    except Exception as exc:  # the parent counts this operation as failed
        report["error"] = f"{type(exc).__name__}: {exc}"
        report["traceback"] = traceback.format_exc(limit=6)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
