"""One workload in a fresh process: set up, measure, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``{"ready": <time.monotonic() when set-up ended>, ...}``
as its only standard-output line; ``time.monotonic`` is system-wide on
Linux, so the parent turns it into a set-up time from its own spawn
timestamp.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

from common import Context

#: workload name -> (module, class)
WORKLOADS = {
    "paper-check": ("paper_check", "PaperCheck"),
    "recheck": ("recheck", "Recheck"),
    "compile-run": ("compile_run", "CompileRun"),
    "serve": ("serve", "Serve"),
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  workdir=Path(args.workdir), trace_file=Path(args.trace_file),
                  tiny=args.tiny)
    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    workload = workload_cls(ctx)
    ready = time.monotonic()
    try:
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        out = workload.run()
        out.put("peak_rss_mb", workload.peak_rss_mb(), "MB")
    finally:
        workload.close()
    print(json.dumps({
        "ready": ready,
        "attempted": out.attempted,
        "failed": out.failed,
        "eliminated": out.eliminated,
        "eliminable": out.eliminable,
        "metrics": {name: list(pair) for name, pair in out.metrics.items()},
        "problems": out.problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
