"""Regenerate every table and figure: ``python -m repro.bench``.

Options:
    --preset {small,default,paper}   workload sizes (default: default)
    --skip-timing                    only the static tables (fast)
"""

from __future__ import annotations

import argparse

from repro.bench import harness, tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument(
        "--preset", choices=["small", "default", "paper"], default="default"
    )
    parser.add_argument("--skip-timing", action="store_true")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    print("=" * 72)
    print("Table 1: constraint generation/solution")
    print("=" * 72)
    print(tables.render_table1(harness.table1()))
    print()

    if not args.skip_timing:
        print("=" * 72)
        print(f"Table 2 analogue: generated Python, preset={args.preset}")
        print("=" * 72)
        rows2 = harness.table23(
            preset=args.preset, engine="compiled", repeats=args.repeats
        )
        print(tables.render_table23(rows2, ""))
        print()

        print("=" * 72)
        print("Table 3 analogue: instrumented interpreter, preset=small")
        print("=" * 72)
        rows3 = harness.table23(
            preset="small", engine="interp", repeats=max(args.repeats, 3)
        )
        print(tables.render_table23(rows3, ""))
        print()

    print("=" * 72)
    print("Figure 4: sample constraints from binary search (div goals)")
    print("=" * 72)
    for line in harness.figure4():
        print(line)
    print()

    print("=" * 72)
    print("Ablation: solver backends (proved/total goals)")
    print("=" * 72)
    print(tables.render_solver_ablation(harness.solver_ablation()))
    print()

    print("=" * 72)
    print("Ablation: existential variable elimination (Section 3.1)")
    print("=" * 72)
    print(tables.render_existentials(harness.existentials_table()))
    print()

    print("=" * 72)
    print("Portfolio: memoized tiered solver, cold vs. warm cache")
    print("=" * 72)
    print(tables.render_portfolio(harness.portfolio_table()))
    print()

    print("=" * 72)
    print("Driver: parallel + incrementally-cached whole-corpus checking")
    print("=" * 72)
    print(tables.render_driver(harness.driver_table()))
    print()

    print("=" * 72)
    print("Intern table: hash-consed IR and memoized normalization")
    print("=" * 72)
    print(tables.render_intern(harness.intern_table()))
    print()

    print("=" * 72)
    print("Slicing: relevancy-sliced goals and subsumption")
    print("=" * 72)
    print(tables.render_slice(harness.slice_table()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
