"""The repository benchmark: one workload, one seeded run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-check --seed 1 --seconds 10 --trace 0

Workloads: ``paper-check``, ``recheck``, ``compile-run``, ``serve``
(see ``perfbench/README.md``).  With ``--trace 0`` the result carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` a
separate traced run carries every per-layer metric (a layer the
workload bypasses reads 0).  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This file does not import the checker: it spawns fresh interpreter
processes (``child.py``) that import it from ``src``, and measures
``setup_s`` as the median of several fresh set-ups before the measured
run, each scaled to the reference speed like every other timing (see
``common.Speed``).  It exits
non-zero without a result line when the checker cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import NOMINAL_KERNEL_MS, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-check", "recheck", "compile-run", "serve")
#: Fresh set-ups measured per untraced run, before the measured run: at
#: least MIN_PROBES, then more while they have taken under
#: PROBE_BUDGET_S in all, up to MAX_PROBES.
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 3, 5, 5.0
#: Wall-clock cap on one child process.
CHILD_TIMEOUT_S = 170.0


def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: argparse.Namespace, workdir: Path, setup_only: bool,
              deadline: float) -> tuple[float, dict]:
    """Spawn one workload process.  Returns its set-up seconds (from
    spawn to ready) and its result."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir),
           "--trace-file", str(ROOT / ".perfbench" / "traces"
                               / f"{args.workload}-seed{args.seed}.json")]
    workdir.mkdir(parents=True)
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(workdir),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} child timed out")
    finally:
        # Nothing the child started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} child exited "
                         f"{proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {args.workload} child printed nothing")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def probe_setup(args: argparse.Namespace, workdir: Path,
                deadline: float) -> tuple[float, float]:
    """One fresh set-up, raw and scaled to the reference speed sampled
    while it ran (see ``common.Speed``), in seconds."""
    sampler = SpeedSampler()
    try:
        spawned = time.monotonic()
        setup, _ = run_child(args, workdir, True, deadline)
    finally:
        sampler.stop()
    kernel_ms = sampler.kernel_ms(spawned, spawned + setup)
    return setup, setup * NOMINAL_KERNEL_MS / kernel_ms


def metric_spec(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and no run-length floor (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no checker sources under src/repro", file=sys.stderr)
        return 2
    spec = metric_spec(args.trace)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups, raw_setups = [], []
        if not args.trace:
            probes_started = time.monotonic()
            while len(setups) < MIN_PROBES or (
                    len(setups) < MAX_PROBES
                    and time.monotonic() - probes_started < PROBE_BUDGET_S):
                raw, setup = probe_setup(
                    args, workdir / f"probe{len(setups)}", deadline)
                raw_setups.append(raw)
                setups.append(setup)
        _, result = run_child(args, workdir / "run", False, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    measured = {name: tuple(pair) for name, pair in result["metrics"].items()}
    if setups:
        measured["setup_s"] = (statistics.median(setups), "s")
        measured["raw.setup_s"] = (statistics.median(raw_setups), "s")
    eliminable = result["eliminable"]
    elim_share = result["eliminated"] / eliminable if eliminable else 1.0
    measured["elim_share"] = (elim_share, "ratio")
    error_rate = failed / attempted if attempted else 1.0
    measured["error_rate"] = (error_rate, "ratio")

    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                raise SystemExit(f"perfbench: {name} measured in {got_unit}, "
                                 f"declared in {unit}")
        elif args.trace:
            value = 0.0  # a layer this workload bypasses
        else:
            raise SystemExit(f"perfbench: {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}  error_rate {error_rate:g}  "
          f"elim_share {elim_share:g}  set-ups {len(setups)}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    for name, (value, unit) in sorted(measured.items()):
        if name not in metrics:  # raw timings and calibration, for reading
            print(f"  ({name:<32} {value:>14.6g} {unit})")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
