"""``recheck``: CI-style incremental re-checking with
``repro.driver.check_corpus``.

About a hundred programs from ``repro.fuzz.gen`` (more declarations
and a deeper ``main`` than the generator's default) live as files in
a corpus directory; a sqlite verdict store sits beside them.  Set-up
warms the store with one cold pass.  Every timed pass first edits a
seeded ~20% of the programs by redrawing ``main``'s body at the
``ProgramSpec`` level — the helper declarations before it stay
byte-identical, so they replay from the store under their prefix-chain
keys — and then re-checks the whole corpus with the process executor.

Loads the front end on every program, decl replay, store reads and
writes, and the solver only for edited ``main`` bodies.  An op is one
program checked in a pass; its known answer is the generator's
``SiteTruth``, joined to the verdicts by source line.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import replace

from common import (
    Context, Outcome, Speed, SpeedSampler, Tracer, children_peak_rss_mb,
    eliminated_sites, front_end, judge_truth, mean, own_peak_rss_mb,
    site_lines,
)

PROGRAMS = 100
TINY_PROGRAMS = 8
EDIT_SHARE = 0.2
JOBS = max(1, os.cpu_count() or 1)


def gen_config():
    from repro.fuzz.gen import GenConfig

    return GenConfig(decls=6, depth=16)


def redraw_main(spec, rng: random.Random):
    """``spec`` with ``main``'s operations drawn afresh.

    Only helpers some op calls are rendered, so the new body calls
    exactly the helpers the old one did: that keeps every declaration
    before ``main`` unchanged.
    """
    from repro.fuzz.gen import _gen_op

    config = gen_config()
    arrays, lists = list(spec.arrays), list(spec.lists)
    used = {op.helper for op in spec.ops if op.kind == "call"}
    ops = []
    for _ in spec.ops:
        op = _gen_op(rng, config, arrays, lists, spec.helpers)
        while op.kind == "call" and op.helper not in used:
            op = _gen_op(rng, config, arrays, lists, spec.helpers)
        ops.append(op)
    # Re-attach any helper the fresh body no longer calls, reusing its
    # old (valid) call op in place of a fresh op that calls nothing.
    calls = {op.helper for op in ops if op.kind == "call"}
    originals = {op.helper: op for op in spec.ops if op.kind == "call"}
    for helper in sorted(used - calls):
        free = [i for i, op in enumerate(ops) if op.kind != "call"]
        ops[rng.choice(free)] = originals[helper]
    return replace(spec, ops=tuple(ops))


class Program:
    def __init__(self, name: str, spec) -> None:
        self.name = name
        self.spec = spec
        self.rendered = None
        self.lines: dict[str, int] = {}


class Recheck:
    def __init__(self, ctx: Context) -> None:
        from repro import api
        from repro.driver import check_corpus
        from repro.fuzz.gen import generate

        self.ctx = ctx
        self.check_corpus = check_corpus
        self.corpus_dir = ctx.workdir / "corpus"
        self.store_dir = ctx.workdir / "store"
        self.corpus_dir.mkdir(parents=True)
        api.elaborate_source("val x = 1")  # the prelude template
        count = TINY_PROGRAMS if ctx.tiny else PROGRAMS
        self.rng = random.Random(ctx.seed)
        self.programs = [
            Program(f"p{i:03d}", generate(random.Random(f"{ctx.seed}:{i}"),
                                          gen_config()))
            for i in range(count)
        ]
        for program in self.programs:
            self._write(program)
        self.tracer = Tracer() if ctx.trace else None
        # Warm the store with one cold pass (not an op of the window).
        self._pass(clear=True)

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return max(own_peak_rss_mb(), children_peak_rss_mb())

    def _write(self, program: Program) -> None:
        from repro.fuzz.gen import render

        program.rendered = render(program.spec)
        (self.corpus_dir / f"{program.name}.dml").write_text(
            program.rendered.source)
        program.lines = site_lines(program.rendered.source,
                                   f"{program.name}.dml")

    def _edit(self) -> None:
        count = max(1, round(EDIT_SHARE * len(self.programs)))
        for program in self.rng.sample(self.programs, count):
            program.spec = redraw_main(program.spec, self.rng)
            self._write(program)

    def _pass(self, clear: bool = False):
        return self.check_corpus(
            [p.name for p in self.programs], jobs=JOBS, executor="process",
            cache_dir=str(self.store_dir), clear=clear,
            source_dir=str(self.corpus_dir),
        )

    def _judge(self, out: Outcome, report) -> None:
        by_name = {p.name: p for p in self.programs}
        for row in report.rows:
            program = by_name[row.program]
            out.attempted += 1
            eliminated = eliminated_sites(row.verdicts, program.lines)
            if len(eliminated) != row.eliminable:
                out.fail(f"{row.program}: driver reports {row.eliminable} "
                         f"eliminable sites, verdicts give {len(eliminated)}")
                continue
            judge_truth(out, row.program, eliminated, program.lines,
                        program.rendered.truths)

    def run(self) -> Outcome:
        out = Outcome()
        passes = []  # (report, monotonic start, monotonic end)
        sampler = SpeedSampler()
        try:
            deadline = time.perf_counter() + self.ctx.seconds
            while (time.perf_counter() < deadline
                   or len(passes) * len(self.programs) < self.ctx.min_ops):
                self._edit()
                started = time.monotonic()
                if self.tracer is not None:
                    self.tracer.op += 1
                    with self.tracer.span("driver.pass"):
                        report = self._pass()
                else:
                    report = self._pass()
                passes.append((report, started, time.monotonic()))
                self._judge(out, report)
                if self.tracer is not None and len(passes) == 1:
                    # Counters are taken over the first timed pass, a
                    # fixed unit of work whatever the machine's speed.
                    self.first_sources = [(p.rendered.source, f"{p.name}.dml")
                                          for p in self.programs]
                    self.first_store = self._store_counts()
        finally:
            sampler.stop()
        speed = Speed()
        for report, started, ended in passes:
            speed.add([row.wall_seconds for row in report.rows],
                      ended - started, sampler.kernel_ms(started, ended))
        if self.tracer is None:
            speed.metrics(out)
            return out
        pass_s = [ended - started for _, started, ended in passes]
        # Scaled like ops_per_s, so the two give the tracing overhead.
        out.put("trace.ops_per_s", len(speed.scaled) / speed.scaled_window,
                "1/s")
        self._layer_metrics(out, [report for report, _, _ in passes], pass_s)
        self.tracer.dump(self.ctx.trace_file)
        return out

    # -- traced ------------------------------------------------------------

    def _layer_metrics(self, out: Outcome, reports, pass_s) -> None:
        first = reports[0]
        out.put("driver.pass_ms", mean(pass_s) * 1000.0, "ms")
        out.put("driver.decl_hits", first.decl_hits, "count")
        out.put("driver.decl_misses", first.decl_misses, "count")
        out.put("driver.goals_replayed", first.goals_replayed, "count")
        out.put("driver.replay_ratio",
                first.goals_replayed / first.goals if first.goals else 0.0,
                "ratio")
        out.put("driver.utilization",
                mean(r.utilization for r in reports), "ratio")
        out.put("solver.goals", first.goals, "count")
        rows = [row for r in reports for row in r.rows]
        # The driver does not split solving from its backend: on this
        # workload solver.prove_ms includes backend time.
        out.put("solver.prove_ms", mean(r.solve_seconds for r in rows) * 1000.0,
                "ms")
        out.put("cache.queries", first.queries, "count")
        out.put("cache.hit_ratio", first.hit_rate, "ratio")
        for key in ("sliced_queries", "atoms_before", "atoms_after",
                    "subsumption_hits", "prefix_reuses"):
            out.put(f"slice.{key}", getattr(first, key), "count")
        out.put("store.preloaded", first.preloaded, "count")
        out.put("store.solver_entries", first.solver_entries, "count")
        store_bytes, decls = self.first_store
        out.put("store.bytes", store_bytes, "bytes")
        out.put("store.decl_entries", decls, "count")
        self._store_metrics(out)
        front_end(out, self.tracer, self.first_sources)

    def _store_counts(self) -> tuple[int, int]:
        """(bytes on disk, decl records) of the verdict store."""
        from repro.driver import open_store

        disk = open_store(str(self.store_dir), "sqlite")
        try:
            decls = disk.decl_entry_count
        finally:
            disk.close()
        return sum(f.stat().st_size for f in self.store_dir.iterdir()), decls

    def _store_metrics(self, out: Outcome) -> None:
        """The store reads and writes one process-mode check makes,
        replayed from outside: a worker opens the store, seeds a fresh
        solver cache and reads the decl records; the parent absorbs the
        worker's cache, stores its decl records and saves."""
        from repro.driver import open_store
        from repro.solver.portfolio import SolverCache

        seed_ms, save_ms = [], []
        for _ in range(3):
            started = time.perf_counter()
            disk = open_store(str(self.store_dir), "sqlite")
            try:
                cache = SolverCache(maxsize=65536)
                disk.seed(cache)
                records = disk.decl_entries()
                read = time.perf_counter()
                disk.absorb(cache)
                for key, goals in records.items():
                    disk.decl_store(key, goals)
                disk.save()
                seed_ms.append((read - started) * 1000.0)
                save_ms.append((time.perf_counter() - read) * 1000.0)
            finally:
                disk.close()
        out.put("store.seed_ms", statistics.median(seed_ms), "ms")
        out.put("store.save_ms", statistics.median(save_ms), "ms")

