"""The workload process: set up one workload, measure it, print a JSON record.

Started by run.py as `python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]` with PYTHONPATH pointing at the
checkout's `src`. It prints `READY` once set-up is done (run.py times
set-up from process start to that line), then, unless --setup-only, one
JSON line with the measurement.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def pass_wall(passes) -> float:
    """Mean timed wall of one pass: the sum of its operations' times."""
    return sum(op.seconds for p in passes for op in p) / len(passes)


def measure(workload, seconds: float, trace: int) -> dict:
    """Run whole passes of the workload while another one is expected to end
    within `seconds` (at least one), and return its record.

    Traced, every other pass runs under the tracer, so the per-pass
    difference (the tracing overhead) is not skewed by a machine whose speed
    drifts over the run.
    """
    tracer = tracing.Tracer()
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(passes) + len(traced)
        if trace and index % 2:
            with tracer.installed():
                traced.append(workload.run_pass(index, tracer.quiet))
        else:
            passes.append(workload.run_pass(index, tracer.quiet))
        elapsed = time.perf_counter() - start
        if elapsed * (index + 2) / (index + 1) > seconds and (traced or not trace):
            break
    record = {"workload": workload.name, "unit": workload.unit, "op": workload.op}
    if trace:
        untraced_wall, traced_wall = pass_wall(passes), pass_wall(traced)
        layers = tracer.layer_metrics(len(traced), workload.cells_per_pass,
                                      workload.requests_per_pass, traced_wall,
                                      untraced_wall)
        outside = layers["trace.unattributed_s"]
        attributed = traced_wall - outside
        record["layers"] = [{"name": name, "value": layers[name], "unit": unit,
                             "target": target}
                            for name, unit, _, target in tracing.LAYER_METRICS]
        record["trace_notes"] = [
            f"passes: {len(passes)} untraced, {len(traced)} traced, alternating; "
            f"spans recorded: {len(tracer.start)}",
            f"untraced pass wall {untraced_wall:.4f} s, traced {traced_wall:.4f} s: "
            f"tracing overhead {traced_wall - untraced_wall:+.4f} s per pass",
            f"layer self times sum to {attributed:.4f} s per pass "
            f"({100 * attributed / traced_wall:.3f}% of the traced wall): the untraced "
            f"wall plus the overhead, less {outside:.3g} s outside every span",
        ]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
        passes = passes + traced
    ops = [op for p in passes for op in p]
    latencies = sorted(1e3 * op.seconds for op in ops)
    record.update(
        passes=len(passes),
        attempted=len(ops),
        failed=sum(op.problem is not None for op in ops),
        typed_errors=sum(op.typed_error for op in ops),
        problems=[op.problem for op in ops if op.problem is not None][:20],
        pass_rates=[sum(op.units for op in p) / sum(op.seconds for op in p) for p in passes],
        ops=len(latencies),
        e2e={
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "units_per_s": sum(op.units for op in ops) / sum(op.seconds for op in ops),
            "op_ms.p50": statistics.median(latencies),
            # linear interpolation between order statistics: with few calls
            # (unlearn-*) the 90th percentile is not just the slowest call
            "op_ms.p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                          if len(latencies) > 1 else latencies[0]),
        },
        notes=workload.notes(),
        machine=machine(),
    )
    return record


def _blas() -> dict:
    """BLAS vendor, version and the thread count in effect in this process."""
    info = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "caches": _caches(),
        "note": "grad bytes are computed (2*n*d*8 per call), not measured; the "
                "mnist-shape X (69 MB) fits the L3 reported here, so no bandwidth "
                "ratio is claimed",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(measure(workload, args.seconds, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
