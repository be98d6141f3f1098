"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the layer table, that every
workload emits exactly the declared metrics in both modes, that the
traced self times sum to the traced wall time, that the known prop4_6
mismatch is counted as a failure, that a corrupted, changing or raising
operation counts as a failure that makes the result incorrect, and that
the benchmark refuses to run where there are no liftlab sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"
failures: list = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(
        [m["name"] for m in spec["per_layer"]] == layertrace.metric_names(),
        "BENCHMARK.json per_layer lists the layer table's metrics in order",
    )
    expect(all(layer.moves for layer in layertrace.LAYERS), "every layer names the metric it should move")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()) <= 0.25, "setup_s has the largest bound, at most 0.25")
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS),
        "workloads match the generator and the command line",
    )
    return spec


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_workload(spec: dict, workload: str, trace: int):
    tag = f"{workload} --trace {trace}"
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    expect(proc.returncode == 0, f"{tag}: exits 0 {proc.stderr.strip()[-300:]}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result has exactly the four keys")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    expect(set(metrics) == set(declared), f"{tag}: emits every declared metric and no other")
    expect(
        all(metrics[n]["unit"] == u and math.isfinite(metrics[n]["value"]) for n, u in declared.items() if n in metrics),
        f"{tag}: every metric is a finite number with its declared unit",
    )
    expect(result["correct"] is True and result["attempted"] >= 1, f"{tag}: correct, with operations attempted")
    if workload == "lifting":
        expect(result["failed"] > 0, f"{tag}: the prop4_6 mismatch counts as failed")
    else:
        expect(result["failed"] == 0, f"{tag}: no operation fails")
    if trace:
        self_sum = sum(v["value"] for n, v in metrics.items() if n.endswith(".self_s"))
        wall = metrics["trace.wall_s"]["value"]
        expect(math.isclose(self_sum, wall, rel_tol=1e-9), f"{tag}: self times sum to the traced wall time")
    else:
        expect(0.0 < metrics["ok_share"]["value"] <= 1.0, f"{tag}: ok_share is a share")


def check_failure_accounting():
    """Corrupt, unstable and raising operations must all count."""
    good, corrupted, unstable = workloads.build("model", 3, SCRATCH / "ops", tiny=True)[:3]
    corrupted_call, unstable_call = corrupted.call, unstable.call
    passes = []

    def corrupt():
        code = corrupted_call()
        report = json.loads(corrupted.out.read_text())
        report["matched"] = False
        corrupted.out.write_text(json.dumps(report))
        return code

    def drift():
        code = unstable_call()
        passes.append(code)
        if len(passes) > 1:
            with unstable.out.open("a") as fh:
                fh.write(" ")
        return code

    def raising():
        raise RuntimeError("deliberate")

    corrupted.call, unstable.call = corrupt, drift
    raiser = workloads.Operation("raising", raising, SCRATCH / "raising.json")
    ledger = worker.Ledger([good, corrupted, unstable, raiser])
    ledger.run_pass()
    ledger.run_pass()

    def problems(op):
        return [p for p in ledger.problems if p.startswith(op.name + ":")]

    expect(ledger.attempted == 8 and ledger.failed == 5, "corrupt x2, unstable x1 and raising x2 are the 5 failures")
    expect(not problems(good), "an untouched operation passes")
    expect(len(problems(corrupted)) == 2, "a report whose matched flag disagrees with exit 0 is a breach")
    expect(any("differs from the first pass" in p for p in problems(unstable)), "a changed report is a breach")
    expect(len(problems(raiser)) == 2, "a raising operation is a breach")


def check_bare_directory():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "--workload", "model", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without liftlab sources it exits non-zero, no result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        spec = check_spec()
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_workload(spec, workload, trace)
        check_failure_accounting()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if SCRATCH.parent.is_dir() and not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
