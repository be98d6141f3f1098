"""liftlab benchmark: one workload, one JSON result on the last line.

    python3 perfbench/run.py --workload {series,lifting,model} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src`` directory, nothing is installed.  Each run starts fresh
interpreters.  With ``--trace 0``, SETUP_PROBES set-up-only processes
run before the measuring process and as many after it, so that the
set-up samples span the run; ``setup_s`` is the median of their set-up
times and the measuring process's own.  With ``--trace 1`` only the
measuring process runs, and it reports the per-layer metrics.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the metrics
declared in BENCHMARK.json (``end_to_end`` untraced, ``per_layer``
traced).  The line before it records the environment, every pass's
wall time, the set-up samples, each operation's sizes, which per-layer
metrics are computed from shapes, and every failure.  ``failed``
counts operations that exited non-zero, raised, failed a check or gave
a report that differs from their first; ``correct`` is false when any
failure is more than the program reporting one of its own expectations
as unmet (exit 1 with ``matched`` false, the same report every pass).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("series", "lifting", "model")
SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(argv: list, env: dict, timeout: float) -> dict:
    """Run a worker process to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run(args) -> tuple:
    if not (ROOT / "src" / "liftlab" / "__init__.py").is_file():
        raise BenchError(f"no liftlab sources under {ROOT / 'src'}; run from a checkout of the repository")
    started = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    setups, setup_cpu = [], []

    def probe():
        t0 = time.monotonic()
        reply = _child(base + ["--t0", repr(t0), "--work", str(work / f"probe{len(setups)}"), "--setup-only"],
                       env, DEADLINE_S - (t0 - started))
        setups.append(reply["setup_s"])
        setup_cpu.append(reply["setup_cpu_s"])

    probes = 0 if args.trace else SETUP_PROBES
    try:
        for _ in range(probes):
            probe()
        t0 = time.monotonic()
        result = _child(base + ["--t0", repr(t0), "--work", str(work / "run")], env, DEADLINE_S - (t0 - started))
        for _ in range(probes):
            probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
    units = _declared("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {k: result[k] for k in ("environment", "pass_wall_s", "mismatches", "problems", "operations")}
    record["setup_probes_s"] = setups
    record["setup_probes_cpu_s"] = setup_cpu
    if args.trace:
        record["computed_from_shapes"] = layertrace.computed_metric_names()
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="liftlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, summary = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
