"""``paper-check``: the 14 bundled programs, each checked cold with
``api.check(..., cache=None)`` in one process, in a seeded order.

Loads ``lang``, ``core``, ``solver.simplify``, ``solver.slice``, the
Fourier backend and interning; bypasses the driver, the verdict store,
the daemon and code generation.  Known answer (the paper's): every
goal is proved and every site is eliminable.

The traced run replays what ``api.check`` does, call for call, with a
span around each layer: ``parse_program``, ``infer_program`` on a fork
of the prelude inferencer, ``elaborate_program``, ``prove_all`` per
declaration with one shared ``SliceContext``, then the warnings
probes.  Backend calls are timed by wrapping the ``Backend`` passed in.
"""

from __future__ import annotations

import random
import statistics
import time

from common import (
    Context, Outcome, Speed, Tracer, eliminated_sites, judge_paper,
    own_peak_rss_mb,
)

#: Largest tolerated gap between the traced decomposition's per-op
#: median and the untraced ``api.check`` median: the ``latency_ms_p50``
#: bound of ``BENCHMARK.json``.
DECOMPOSITION_TOLERANCE = 0.25


class PaperCheck:
    def __init__(self, ctx: Context) -> None:
        from repro import api, programs

        self.ctx = ctx
        self.api = api
        self.sources = {name: programs.load_source(name)
                        for name in programs.available()}
        # Warm-up pass: the prelude template and process-wide memos are
        # built here, and the reports are the reference for the traced
        # decomposition's same-work check.
        self.reference = {
            name: api.check(source, f"{name}.dml", cache=None)
            for name, source in self.sources.items()
        }
        if ctx.trace:
            self._prepare_trace()

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    # -- untraced ------------------------------------------------------

    def check_op(self, out: Outcome, name: str) -> float:
        """One timed ``api.check``; returns its wall time."""
        source = self.sources[name]
        started = time.perf_counter()
        try:
            report = self.api.check(source, f"{name}.dml", cache=None)
        except Exception as exc:  # noqa: BLE001 - an escaped error fails the op
            elapsed = time.perf_counter() - started
            out.attempted += 1
            out.fail(f"{name}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - started
        out.attempted += 1
        judge_paper(out, name, [r.proved for r in report.goal_results],
                    set(report.sites), report.eliminable_sites())
        return elapsed

    def run(self) -> Outcome:
        out = Outcome()
        if self.ctx.trace:
            return self._run_traced(out)
        rng = random.Random(self.ctx.seed)
        names = sorted(self.sources)
        # One calibration kernel between consecutive ops.
        speed = Speed()
        deadline = time.perf_counter() + self.ctx.seconds
        while (time.perf_counter() < deadline
               or len(speed.raw) < self.ctx.min_ops):
            rng.shuffle(names)
            for name in names:
                elapsed = self.check_op(out, name)
                speed.stretch([elapsed], elapsed)
        speed.metrics(out)
        return out

    # -- traced decomposition ------------------------------------------

    def _prepare_trace(self) -> None:
        from repro import programs
        from repro.core.ml_infer import MLInferencer
        from repro.lang.parser import parse_program
        from repro.solver.backends import Backend, get_backend

        self.tracer = Tracer()
        # The prelude template api.check forks from, rebuilt from the
        # same public pieces.
        template = MLInferencer()
        template.infer_program(
            parse_program(programs.prelude_source(), "prelude.dml"))
        self.template = template
        fourier = get_backend("fourier")
        self.backend = Backend(
            fourier.name, self.tracer.wrap("solver.backend", fourier.unsat),
            fourier.integer_complete,
        )

    def traced_op(self, out: Outcome, name: str) -> dict:
        """``api.check``'s calls, one span per layer.  Returns the work
        counters of this op."""
        from repro.core.elaborate import elaborate_program
        from repro.indices import terms
        from repro.indices.terms import EvarStore
        from repro.lang.parser import parse_program
        from repro.lang.source import SourceFile
        from repro.solver.portfolio import SolverTelemetry, instrument
        from repro.solver.simplify import Goal, SolveStats, prove_all, prove_goal
        from repro.solver.slice import SliceContext

        tracer = self.tracer
        source, label = self.sources[name], f"{name}.dml"
        tracer.op += 1
        with tracer.span("op"):
            src = SourceFile(source, label)
            with tracer.span("lang.parse"):
                program = parse_program(source, label)
            with tracer.span("core.infer"):
                inferred = self.template.fork().infer_program(program)
            store = EvarStore()
            with tracer.span("core.elaborate"):
                elab = elaborate_program(inferred.program, inferred.env, store)
            telemetry = SolverTelemetry()
            backend = instrument(self.backend, telemetry, None)
            slicing = SliceContext(telemetry)
            stats = SolveStats()
            results = []
            with tracer.span("solver.prove"):
                for dc in elab.decl_constraints:
                    results.extend(prove_all(dc.constraint, store, backend,
                                             stats, slicing=slicing))
            warnings = []
            with tracer.span("solver.warnings"):
                for probe in elab.probes:
                    goal = Goal(probe.rigid, probe.hyps, terms.FALSE)
                    if prove_goal(goal, store, backend, slicing=slicing).proved:
                        warnings.append(src.describe(probe.span))
                for missing in elab.coverage:
                    goal = Goal(missing.rigid, missing.hyps, terms.FALSE)
                    if not prove_goal(goal, store, backend,
                                      slicing=slicing).proved:
                        warnings.append(src.describe(missing.span))

        out.attempted += 1
        verdicts = [(r.goal.origin, r.proved, r.reason) for r in results]
        ref = self.reference[name]
        same = (
            verdicts == [(r.goal.origin, r.proved, r.reason)
                         for r in ref.goal_results]
            and set(elab.sites) == set(ref.sites)
            and len(warnings) == len(ref.warnings)
            and stats.goals == ref.stats.goals
            and stats.cases == ref.stats.cases
        )
        if not same:
            out.fail(f"{name}: traced decomposition did different work "
                     "from api.check")
        else:
            judge_paper(out, name, [proved for _, proved, _ in verdicts],
                        set(elab.sites), eliminated_sites(verdicts, elab.sites))
        return {
            "lang.source_bytes": len(source.encode()),
            "core.constraints": elab.count_constraints(),
            "core.sites": len(elab.sites),
            "solver.goals": stats.goals,
            "solver.cases": stats.cases,
            "solver.evars_solved": stats.evars_solved,
            "cache.queries": telemetry.queries,
            "cache.hits": telemetry.cache_hits,
            "slice.sliced_queries": telemetry.sliced_queries,
            "slice.atoms_before": telemetry.atoms_before,
            "slice.atoms_after": telemetry.atoms_after,
            "slice.subsumption_hits": telemetry.subsumption_hits,
            "slice.prefix_reuses": telemetry.prefix_reuses,
        }

    def _run_traced(self, out: Outcome) -> Outcome:
        from repro.indices.intern import TABLE
        from repro.solver.portfolio import canonical_key_stats

        tracer = self.tracer
        rng = random.Random(self.ctx.seed)
        names = sorted(self.sources)
        rng.shuffle(names)

        # Counting pass: one traced op per program, work counters summed
        # over the pass (a fixed unit of work, so the counts repeat).
        counts: dict[str, float] = {}
        intern0 = (TABLE.created, TABLE.hits, TABLE.misses)
        ck0 = canonical_key_stats()
        for name in names:
            for key, value in self.traced_op(out, name).items():
                counts[key] = counts.get(key, 0) + value
        counts["intern.created"] = TABLE.created - intern0[0]
        counts["intern.hits"] = TABLE.hits - intern0[1]
        counts["intern.misses"] = TABLE.misses - intern0[2]
        ck1 = canonical_key_stats()
        counts["canonical_key.hits"] = ck1[0] - ck0[0]
        counts["canonical_key.misses"] = ck1[1] - ck0[1]
        counts["solver.backend_calls"] = sum(
            1 for span in tracer.spans if span[0] == "solver.backend")

        # Timed passes: traced and untraced ops alternate, so tracing
        # overhead and the decomposition check compare like with like.
        first_timed = tracer.op + 1
        untraced: list[float] = []
        deadline = time.perf_counter() + self.ctx.seconds
        while (time.perf_counter() < deadline
               or len(untraced) < self.ctx.min_ops):
            rng.shuffle(names)
            for name in names:
                self.traced_op(out, name)
                untraced.append(self.check_op(out, name))
        timed_ops = set(range(first_timed, tracer.op + 1))
        traced = [ms for ms, op in zip(tracer.root_ms("op"),
                                       range(1, tracer.op + 1))
                  if op in timed_ops]
        self.decomposition(out, traced, untraced)

        per_op = {k: v / len(traced)
                  for k, v in tracer.self_ms(timed_ops).items()}
        for span in ("lang.parse", "core.infer", "core.elaborate",
                     "solver.prove", "solver.warnings", "solver.backend"):
            out.put(f"{span}_ms", per_op.get(span, 0.0), "ms")
        out.put("trace.unattributed_ms", per_op.get("op", 0.0), "ms")
        hits, queries = counts.pop("cache.hits"), counts["cache.queries"]
        out.put("cache.hit_ratio", hits / queries if queries else 0.0, "ratio")
        for key, value in counts.items():
            out.put(key, value, "bytes" if key.endswith("_bytes") else "count")
        tracer.dump(self.ctx.trace_file)
        return out

    def decomposition(self, out: Outcome, traced_ms: list[float],
                      untraced_s: list[float]) -> None:
        """The traced per-op total must match untraced ``api.check``."""
        traced_p50 = statistics.median(traced_ms)
        untraced_p50 = statistics.median(untraced_s) * 1000.0
        ratio = traced_p50 / untraced_p50
        out.put("trace.op_ms_p50", traced_p50, "ms")
        out.put("trace.untraced_op_ms_p50", untraced_p50, "ms")
        out.put("trace.decomposition_ratio", ratio, "ratio")
        out.put("trace.ops_per_s", len(traced_ms) * 1000.0 / sum(traced_ms), "1/s")
        out.put("trace.untraced_ops_per_s",
                len(untraced_s) / sum(untraced_s), "1/s")
        if abs(ratio - 1.0) > DECOMPOSITION_TOLERANCE:
            out.fail(f"traced decomposition median {traced_p50:.2f} ms vs "
                     f"api.check median {untraced_p50:.2f} ms")

