"""Do the work counters repeat exactly?

    python3 perfbench/counters.py [--seed N] [--seconds S] [workload ...]

Runs each workload's traced run twice with one seed and compares every
per-layer metric whose unit is a count (``count`` or ``bytes``).  A
counter that differs between the two runs depends on scheduling or on
when the garbage collector ran, so no change may claim a gain on it.
Prints one line per counter: ``exact`` or ``VARIES a -> b``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "bytes")


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        print(f"{workload}:")
        for name, entry in first.items():
            if entry["unit"] not in COUNT_UNITS or (
                    entry["value"] == 0 and second[name]["value"] == 0):
                continue
            a, b = entry["value"], second[name]["value"]
            verdict = "exact" if a == b else f"VARIES {a:g} -> {b:g}"
            print(f"  {name:<28} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
