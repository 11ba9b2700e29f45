"""certunlearn benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: calibrate, stream, unlearn-synthetic, unlearn-mnist-shape (see
workloads.py and BENCHMARK.json for why each is there). Run it from the
root of a checkout; it runs the package from the checkout's `src`.

--trace 0 prints the end-to-end metrics: setup_s (median of several fresh
processes, from process start to the first timed call, with a warm bytecode
cache), peak_rss_mb of the
workload process, units_per_s (cells/s, removals/s or PNGD/GD steps/s:
all work over all timed seconds of the run), and op_ms.p50 / op_ms.p90, the
latency of one library call. --trace 1 runs the workload half untraced and half traced and prints
the per-layer metrics. Either way the last line of standard output is one
JSON object: correct, attempted, failed (attempted operations whose answer
failed its check or raised an untyped exception) and metrics. Failures count
against fail_rate = failed / attempted, printed with the table.

The workload process runs with BLAS pinned to one thread per usable CPU
(see BLAS_THREADS), identically on every commit. The machine and BLAS
set-up are printed with every result.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("calibrate", "stream", "unlearn-synthetic", "unlearn-mnist-shape")

# BLAS threads in the workload process: one per CPU this process may run on
# (at most nproc), set explicitly so every commit runs with the same count.
# The count in effect is recorded with each result.
BLAS_THREADS = len(os.sched_getaffinity(0))
SETUP_PROBES = 3          # set-up-only processes before and after the measuring one
DEADLINE_S = 170.0        # the whole run ends within this, or fails

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("units_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set-up is measured with a warm bytecode cache: the first probe writes
    # any missing __pycache__ in the checkout, so the median is taken warm
    # whatever ran in the checkout before
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one workload process; return (set-up seconds, its JSON line or '')."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        wait = max(0.0, deadline - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise RuntimeError("workload process did not finish set-up in time")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise RuntimeError(f"workload process did not start: {ready!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, lines[-1] if lines else ""


def report(record: dict, setups: list[float], trace: int) -> dict:
    """Print the human-readable table and return the result object."""
    print(f"workload {record['workload']}: {record['passes']} passes, "
          f"{record['attempted']} operations (one op: {record['op']})")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for note in record["notes"]:
        print("  " + note)
    for problem in record["problems"]:
        print("  FAILED " + problem)
    fail_rate = record["failed"] / record["attempted"]
    print(f"  fail_rate = {fail_rate:.4g} ({record['failed']}/{record['attempted']}; "
          f"typed errors, valid answers: {record['typed_errors']})")
    metrics = {}
    if trace:
        for note in record["trace_notes"]:
            print("  " + note)
        for layer in record["layers"]:
            name, value, unit = layer["name"], layer["value"], layer["unit"]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} = {value:14.6g} {unit:14s} -> {layer['target']}")
    else:
        values = {"setup_s": statistics.median(setups), **record["e2e"]}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            alias = ""
            if name == "units_per_s":
                rates = ", ".join(f"{r:.6g}" for r in record["pass_rates"])
                alias = f"  ({record['unit']}/s; by pass: {rates})"
            elif name.startswith("op_ms"):
                alias = f"  (over {record['ops']} calls)"
            elif name == "setup_s":
                alias = f"  (median of {len(setups)} processes)"
            print(f"  {name:12s} = {values[name]:.6g} {unit}{alias}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "certunlearn" / "__init__.py").is_file():
        print(f"error: no certunlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        # set-up probes are spread over the run, so the median is not taken
        # from one stretch of a machine whose speed drifts
        probes = 0 if args.trace else SETUP_PROBES
        setups = [start_worker(args, True, deadline)[0] for _ in range(probes)]
        setup, line = start_worker(args, False, deadline)
        setups.append(setup)
        setups += [start_worker(args, True, deadline)[0] for _ in range(probes)]
        record = json.loads(line)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(record, setups, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
