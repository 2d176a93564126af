"""Dialect shoot-out: checked vs. unchecked across value representations.

The claim that pays for the dialect layer: on access-dense workloads at
large scale (>= 10^6 elements), the *packed* dialect with certificate-
gated unchecked access is strictly faster than the *plain* dialect with
every check kept — i.e. the dependent-type elimination plus the int64
buffer representation beat the checked list baseline, not just their
own checked twin.

Standalone script (not a pytest module — CI runs it directly and
uploads the JSON artifact)::

    PYTHONPATH=src python benchmarks/bench_dialects.py \
        --scale 1000000 --out BENCH_dialects.json

For every selected workload x dialect it times a fully-checked build
and a plan-gated unchecked build (best of ``--repeat`` runs on fresh
seeded inputs), validates results, and emits a table plus JSON rows.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro import api
from repro.bench import workloads as wl
from repro.compile import support
from repro.compile.dialects import dialect_names, get_dialect
from repro.compile.elim import plan_elimination
from repro.compile.pycodegen import compile_program


def _time_run(module, workload, params, dialect, repeat: int):
    """Best-of-``repeat`` wall time; returns (seconds, extracted result)."""
    best, last = float("inf"), None
    for _ in range(max(1, repeat)):
        rng = random.Random(wl.SEED)
        args = dialect.adapt_args(
            workload.build_with(params, support.from_pylist, rng)
        )
        started = time.perf_counter()
        last = module.call(workload.entry, *args)
        best = min(best, time.perf_counter() - started)
    return best, dialect.extract_value(last)


def bench_one(display: str, dialect_name: str, scale: int, repeat: int):
    workload = wl.WORKLOADS[display]
    dialect = get_dialect(dialect_name)
    params = workload.scaled(scale)
    report = api.check_corpus(workload.program)
    plan = plan_elimination(report, dialect)

    def build(sites):
        module = compile_program(report.program, report.env, sites,
                                 workload.program, dialect=dialect)
        module.load()
        return module

    checked_t, checked_r = _time_run(
        build(set()), workload, params, dialect, repeat)
    unchecked_t, unchecked_r = _time_run(
        build(plan.unchecked), workload, params, dialect, repeat)
    ok = (checked_r == unchecked_r
          and workload.validate(unchecked_r, params))
    gain = ((checked_t - unchecked_t) / checked_t * 100.0
            if checked_t > 0 else 0.0)
    return {
        "workload": display,
        "program": workload.program,
        "dialect": dialect.name,
        "scale": scale,
        "params": params,
        "sites": len(plan.sites),
        "unchecked_sites": len(plan.unchecked),
        "checked_s": checked_t,
        "unchecked_s": unchecked_t,
        "gain_pct": gain,
        "ok": ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=1_000_000,
                        help="element-count knob per workload "
                             "(default: 1000000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats, best-of (default: 3)")
    parser.add_argument("--workloads", default=",".join(wl.ACCESS_DENSE),
                        help="comma-separated display names "
                             "(default: the access-dense set)")
    parser.add_argument("--dialects", default=None,
                        help="comma-separated dialect names "
                             "(default: every dialect)")
    parser.add_argument("--out", default="BENCH_dialects.json",
                        help="JSON output path (default: "
                             "BENCH_dialects.json)")
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)} "
                     f"(known: {', '.join(sorted(wl.WORKLOADS))})")
    dialects = ([d.strip() for d in args.dialects.split(",") if d.strip()]
                if args.dialects else dialect_names())

    rows = []
    for display in names:
        for dialect_name in dialects:
            row = bench_one(display, dialect_name, args.scale, args.repeat)
            rows.append(row)
            print(f"{display:>14} {row['dialect']:>7}  "
                  f"checked {row['checked_s']:8.3f} s  "
                  f"unchecked {row['unchecked_s']:8.3f} s  "
                  f"gain {row['gain_pct']:5.1f}%  "
                  f"({row['unchecked_sites']}/{row['sites']} sites)  "
                  f"{'ok' if row['ok'] else 'MISMATCH'}")

    # Headline comparison: unchecked-packed vs checked-plain.
    headline = []
    by_key = {(r["workload"], r["dialect"]): r for r in rows}
    for display in names:
        plain = by_key.get((display, "plain"))
        packed = by_key.get((display, "packed"))
        if not (plain and packed):
            continue
        speedup = (plain["checked_s"] / packed["unchecked_s"]
                   if packed["unchecked_s"] > 0 else float("inf"))
        wins = packed["unchecked_s"] < plain["checked_s"]
        headline.append({
            "workload": display,
            "checked_plain_s": plain["checked_s"],
            "unchecked_packed_s": packed["unchecked_s"],
            "speedup": speedup,
            "unchecked_packed_wins": wins,
        })
        print(f"{display:>14} unchecked-packed vs checked-plain: "
              f"{speedup:5.2f}x {'faster' if wins else 'SLOWER'}")

    payload = {"scale": args.scale, "repeat": args.repeat,
               "rows": rows, "headline": headline}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    bad = [r for r in rows if not r["ok"]]
    if bad:
        print(f"MISMATCH in {len(bad)} row(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
