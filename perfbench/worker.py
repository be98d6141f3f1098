"""Run one workload in a fresh interpreter and print its figures as JSON.

Started by run.py with ``PYTHONPATH`` set to the checkout's ``src``.
Set-up (interpreter start, imports, generating and writing the seeded
inputs) is timed from ``--t0``, a ``time.monotonic`` reading the parent
took just before starting this process.  Then whole passes over the
workload's operations run, one call at a time, until the next pass
would end after ``--seconds``; at least two passes run, so that every
operation's first report can be compared byte for byte with a later
one.  With ``--trace 1`` passes alternate between untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from liftlab import bimodel, cli, clt, coiso, criteria, h2, linalg, serialize

import workloads
from layertrace import ROOT_SPAN, Tracer

MODULES = {
    "h2": h2, "linalg": linalg, "clt": clt, "criteria": criteria,
    "bimodel": bimodel, "coiso": coiso, "serialize": serialize, "cli": cli,
}
MIN_PASSES = 2


@dataclass
class Outcome:
    """`problems` are correctness breaches; `mismatch` means the program
    itself reported an unmet expectation (exit 1 with matched false)."""

    report: bytes | None
    problems: list
    mismatch: bool


def run_operation(op: workloads.Operation) -> Outcome:
    op.out.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = op.call()
        data = op.out.read_bytes()
        report = json.loads(data)
    except (Exception, SystemExit) as exc:  # any raise or exit is a failed operation
        return Outcome(None, [f"raised {type(exc).__name__}: {exc}"], False)
    matched = report.get("matched") is True
    problems = []
    if code != (0 if matched else 1):
        problems.append(f"exit code {code} with matched = {report.get('matched')}")
    problems += op.check(report)
    return Outcome(data, problems, not matched)


class Ledger:
    """Failure accounting and the determinism gate over all passes."""

    def __init__(self, ops: list):
        self.ops = ops
        self.first = [None] * len(ops)
        self.sizes = [dict(op.sizes) for op in ops]
        self.attempted = 0
        self.failed = 0
        self.mismatches: set = set()
        self.problems: list = []

    def run_pass(self):
        for i, op in enumerate(self.ops):
            self.record(i, run_operation(op))

    def record(self, i: int, outcome: Outcome):
        name = self.ops[i].name
        self.attempted += 1
        problems = list(outcome.problems)
        if outcome.report is not None:
            if self.first[i] is None:
                self.first[i] = outcome.report
                self.sizes[i].update(workloads.report_sizes(json.loads(outcome.report)))
            elif outcome.report != self.first[i]:
                problems.append("report differs from the first pass")
        if outcome.mismatch:
            self.mismatches.add(name)
        if problems or outcome.mismatch:
            self.failed += 1
        self.problems += [f"{name}: {p}" for p in problems]


def blas_record() -> dict:
    """BLAS name, version, configuration and thread count as loaded."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None, "config": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    record["threads"], record["config"] = threads(), config().decode()
                    return record
    return record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def measure(ledger: Ledger, seconds: float, tracer: Tracer | None) -> tuple:
    """Run passes until the next one would end after `seconds`; with a
    tracer, untraced and traced passes alternate, untraced first.
    Returns the metrics and the wall time of every pass."""
    plain, traced, cpu = [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        t, c = time.perf_counter(), time.process_time()
        if use_tracer:
            with tracer.installed(), tracer.span(ROOT_SPAN):
                ledger.run_pass()
        else:
            ledger.run_pass()
        wall = time.perf_counter() - t
        if use_tracer:
            traced.append(wall)
        else:
            plain.append(wall)
            cpu.append(time.process_time() - c)
        elapsed = time.perf_counter() - start
        enough = len(plain) + len(traced) >= MIN_PASSES and (tracer is None or traced)
        if enough and elapsed + wall > seconds:
            break
    if tracer is not None:
        metrics = tracer.summary(len(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - ledger.failed / ledger.attempted,
        }
    return metrics, {"untraced": plain, "traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--work", required=True, help="directory for inputs and reports")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    ops = workloads.build(args.workload, args.seed, Path(args.work), args.tiny)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": time.process_time()}))
        return 0
    ledger = Ledger(ops)
    tracer = Tracer(MODULES) if args.trace else None
    metrics, pass_wall_s = measure(ledger, args.seconds, tracer)
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "pass_wall_s": pass_wall_s,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "mismatches": sorted(ledger.mismatches),
        "problems": ledger.problems,
        "operations": [{"name": op.name, "sizes": s} for op, s in zip(ops, ledger.sizes)],
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
