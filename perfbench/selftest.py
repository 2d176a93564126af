"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` on tiny inputs for one
second, untraced and traced, and fails (exit 1) when a run prints a
result line with the wrong keys, misses a declared metric name, or has
a nonzero ``error_rate``.  It also runs the benchmark from a directory
holding only ``BENCHMARK.json`` and ``perfbench/``, where it must exit
non-zero without a result line.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["failed"] or not result["correct"] or result["attempted"] < 1:
        errors.append(f"{label}: error_rate "
                      f"{result['failed']}/{result['attempted']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {entry["name"] for entry in declared}
    if set(result["metrics"]) != names:
        missing = sorted(names - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - names)
        errors.append(f"{label}: missing {missing}, extra {extra}")
    for entry in declared:
        got = result["metrics"].get(entry["name"], {})
        if got.get("unit") != entry["unit"]:
            errors.append(f"{label}: {entry['name']} unit {got.get('unit')}")
    if not trace:
        for entry in declared:
            if result["metrics"].get(entry["name"], {}).get("value", 0) <= 0:
                errors.append(f"{label}: {entry['name']} is not positive")
    return errors


def check_without_checker() -> list[str]:
    """Only BENCHMARK.json and perfbench/: exit non-zero, no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "paper-check", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("bare directory: exit 0")
    if '"metrics"' in proc.stdout:
        errors.append("bare directory: printed a result")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_without_checker()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, workload["name"], trace)
            print(f"{workload['name']:<12} trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}")
            errors.extend(found)
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
