"""The parallel, incrementally-cached checking driver.

:func:`repro.api.check` is a single-shot pipeline: one program, one
thread, every goal re-solved from scratch.  This module turns it into
a batch service:

* **Parallel fan-out** — proof goals are independent once constraint
  generation and existential-variable solving have run (``prove_goal``
  only *reads* the evar store), so :func:`check_program` fans them out
  over a thread pool.  Each goal is proved against an
  :meth:`~repro.indices.terms.EvarStore.snapshot` taken at the exact
  pipeline point where the sequential checker would have proved it, so
  verdicts are identical to ``api.check`` regardless of scheduling.
  :func:`check_corpus` additionally fans whole programs out, over a
  thread pool or (``executor="process"``) a process pool.
* **Incremental re-checking** — the sqlite
  :class:`~repro.driver.store.SqliteVerdictStore` persists both solver
  verdicts (canonical-key level) and whole declaration verdict records
  (content-hash level, see :mod:`repro.driver.hashing`) under
  ``.repro-cache/``.  A warm run of an unchanged declaration replays
  its verdicts without a single backend query; an edited declaration
  invalidates only itself and its suffix, and usually still answers
  most backend queries from the persisted solver layer.  The store
  merges concurrent writers' rows instead of overwriting them, so a
  daemon and a corpus run can share one cache directory.
* **Telemetry** — per-program wall clock, worker utilization, cache
  hit rates, and replay counts, aggregated corpus-wide by
  :class:`CorpusReport` (the ``repro check-corpus`` CLI prints it).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro import api, programs
from repro.api import CheckReport
from repro.driver.hashing import decl_keys, prelude_hash
from repro.driver.store import GoalRecord, SqliteVerdictStore, open_store
from repro.indices.terms import EvarStore
from repro.solver.backends import Backend
from repro.solver.budget import SolverLimits
from repro.solver.portfolio import (
    SolverCache,
    SolverTelemetry,
    decode_key,
    encode_key,
)
from repro.solver.simplify import (
    Goal,
    GoalResult,
    SolveStats,
    extract_goals,
    prove_goal,
    solve_evars,
)
from repro.solver.slice import SliceContext


def _effective_jobs(jobs: int | None) -> int:
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _backend_name(backend: Backend | str) -> str:
    return backend if isinstance(backend, str) else backend.name


# ---------------------------------------------------------------------------
# Single-program driver
# ---------------------------------------------------------------------------


@dataclass
class DriverStats:
    """Driver-level telemetry for one checked program."""

    jobs: int = 1
    wall_seconds: float = 0.0
    generation_seconds: float = 0.0
    #: Wall clock of the (possibly parallel) solve phase.
    solve_seconds: float = 0.0
    #: Summed wall time of the individual goal tasks.
    busy_seconds: float = 0.0
    goals: int = 0
    #: Goals answered by replaying a persisted declaration record.
    goals_replayed: int = 0
    decl_hits: int = 0
    decl_misses: int = 0
    #: Solver verdicts preloaded from disk into the in-memory cache.
    preloaded: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of the solve-phase worker capacity actually busy."""
        capacity = self.solve_seconds * max(self.jobs, 1)
        if capacity <= 0:
            return 0.0
        return min(self.busy_seconds / capacity, 1.0)


@dataclass
class DriverReport:
    """A :class:`~repro.api.CheckReport` plus driver telemetry."""

    report: CheckReport
    driver: DriverStats

    @property
    def verdicts(self) -> list[GoalRecord]:
        """The per-goal verdict triples, in sequential-checker order."""
        return [
            (r.goal.origin, r.proved, r.reason)
            for r in self.report.goal_results
        ]

    def summary(self) -> str:
        stats = self.driver
        lines = [
            self.report.summary(),
            f"driver:           jobs={stats.jobs} "
            f"utilization={stats.utilization:.0%} "
            f"replayed {stats.goals_replayed}/{stats.goals} goal(s), "
            f"decl cache {stats.decl_hits} hit(s) / "
            f"{stats.decl_misses} miss(es), "
            f"{stats.preloaded} solver verdict(s) preloaded",
        ]
        return "\n".join(lines)


def check_program(
    source: str,
    name: str = "<input>",
    *,
    backend: Backend | str = "fourier",
    jobs: int | None = 1,
    cache: SolverCache | None = None,
    disk: SqliteVerdictStore | None = None,
    telemetry: SolverTelemetry | None = None,
    include_prelude: bool = True,
    seed: bool = True,
    persist: bool = True,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
) -> DriverReport:
    """Check one program with parallel goal solving and incremental
    verdict replay.

    Produces goal verdicts byte-identical to ``api.check(source, ...)``
    with the same backend: constraint generation and existential
    solving run sequentially in declaration order (they are cheap and
    order-sensitive), and only the backend-heavy ``prove_goal`` calls
    fan out, each against an evar-store snapshot frozen at its decl's
    sequential solve point.

    ``disk`` enables the two persistence layers; ``seed=False`` skips
    preloading (the corpus driver seeds a shared cache once), and
    ``persist=False`` skips the write-back (ditto).

    ``limits`` bounds each goal's proof effort (fail-soft: exhaustion
    or a backend crash records the goal unproved and the batch
    continues).  Each *goal* gets its own budget/deadline, so one
    pathological goal cannot starve its worker's siblings.

    ``slice_goals`` enables the verdict-preserving goal-preprocessing
    layer (:mod:`repro.solver.slice`); one :class:`SliceContext` is
    shared by all workers, so refuted cores and presolved hypothesis
    prefixes propagate across goals and declarations within the run.
    """
    jobs = _effective_jobs(jobs)
    telemetry = telemetry if telemetry is not None else SolverTelemetry()
    slicing = SliceContext(telemetry) if slice_goals else None
    if cache is None:
        cache = SolverCache(maxsize=65536)
    stats = DriverStats(jobs=jobs)
    started = time.perf_counter()
    if disk is not None and seed:
        stats.preloaded = disk.seed(cache)

    front = api.elaborate_source(source, name, include_prelude)
    stats.generation_seconds = front.generation_seconds
    store, elab = front.store, front.elab

    # Content keys for every declaration (prefix chain: an edit
    # invalidates its own decl and everything after it).
    prelude = prelude_hash() if include_prelude else "none"
    keys = decl_keys(
        source, front.program.decls,
        backend=_backend_name(backend), prelude=prelude,
    )
    key_by_span = {
        (decl.span.start, decl.span.end): key
        for decl, key in zip(front.program.decls, keys)
    }

    main_backend, telemetry = api._resolve_backend(backend, cache, telemetry)

    # -- sequential pre-pass: extraction, evar solving, replay ----------
    solve_started = time.perf_counter()
    solve_stats = SolveStats()
    slots: list[list[GoalResult | None]] = []
    pending: list[tuple[int, int, Goal, EvarStore]] = []
    decl_cache_keys: list[str | None] = []
    for di, dc in enumerate(elab.decl_constraints):
        goals = extract_goals(dc.constraint, store)
        solve_stats.evars_solved += solve_evars(goals, store)
        decl_key = key_by_span.get((dc.decl.span.start, dc.decl.span.end))
        decl_cache_keys.append(decl_key)
        results: list[GoalResult | None] = [None] * len(goals)
        slots.append(results)
        records = (
            disk.decl_lookup(decl_key)
            if disk is not None and decl_key is not None
            else None
        )
        if records is not None and _replayable(records, goals):
            stats.decl_hits += 1
            for gi, (goal, (origin, proved, reason)) in enumerate(
                zip(goals, records)
            ):
                results[gi] = GoalResult(goal, proved, reason)
            stats.goals_replayed += len(goals)
            continue
        if disk is not None:
            stats.decl_misses += 1
        snapshot = store.snapshot()
        for gi, goal in enumerate(goals):
            pending.append((di, gi, goal, snapshot))

    # -- parallel solve phase -------------------------------------------
    worker_state = threading.local()
    worker_telemetries: list[SolverTelemetry] = []
    telemetry_lock = threading.Lock()

    def worker_backend() -> Backend:
        stack = getattr(worker_state, "backend", None)
        if stack is None:
            local_telemetry = SolverTelemetry()
            with telemetry_lock:
                worker_telemetries.append(local_telemetry)
            stack, _ = api._resolve_backend(backend, cache, local_telemetry)
            worker_state.backend = stack
        return stack

    def solve_one(
        task: tuple[int, int, Goal, EvarStore]
    ) -> tuple[int, int, GoalResult, float]:
        di, gi, goal, snapshot = task
        task_started = time.perf_counter()
        result = prove_goal(
            goal, snapshot, worker_backend(), limits=limits, slicing=slicing
        )
        return di, gi, result, time.perf_counter() - task_started

    if pending:
        if jobs == 1:
            outcomes = [
                (di, gi,
                 prove_goal(goal, snapshot, main_backend, limits=limits,
                            slicing=slicing),
                 0.0)
                for di, gi, goal, snapshot in pending
            ]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(solve_one, pending))
        for di, gi, result, busy in outcomes:
            slots[di][gi] = result
            stats.busy_seconds += busy
    for local_telemetry in worker_telemetries:
        telemetry.merge(local_telemetry)

    goal_results: list[GoalResult] = []
    for results in slots:
        for result in results:
            assert result is not None
            goal_results.append(result)
    for result in goal_results:
        solve_stats.goals += 1
        solve_stats.cases += result.cases
        solve_stats.solve_seconds += result.elapsed
        if result.proved:
            solve_stats.proved += 1
        else:
            solve_stats.failed += 1
        if result.budget_exhausted:
            solve_stats.budget_exhausted += 1
        if result.crashed:
            solve_stats.contained_crashes += 1
    stats.goals = solve_stats.goals
    telemetry.budget_exhausted += solve_stats.budget_exhausted
    telemetry.contained_crashes += solve_stats.contained_crashes

    warnings = api._unreachable_warnings(
        elab, store, main_backend, front.source, limits, slicing
    )
    stats.solve_seconds = time.perf_counter() - solve_started

    # -- persistence ----------------------------------------------------
    if disk is not None:
        for decl_key, results in zip(decl_cache_keys, slots):
            if decl_key is None:
                continue
            if any(r.budget_exhausted or r.crashed for r in results):
                # A degraded verdict ("ran out of budget" / "backend
                # crashed") is not a fact about the declaration; pinning
                # it on disk would replay the failure even under a
                # bigger budget or a fixed backend.  Re-solve next run.
                continue
            disk.decl_store(
                decl_key,
                [(r.goal.origin, r.proved, r.reason) for r in results],
            )
        if persist:
            disk.absorb(cache)

    stats.wall_seconds = time.perf_counter() - started
    report = CheckReport(
        name=name,
        source=front.source,
        program=front.program,
        env=front.env,
        elab=elab,
        goal_results=goal_results,
        stats=solve_stats,
        generation_seconds=front.generation_seconds,
        solve_seconds=stats.solve_seconds,
        warnings=warnings,
        telemetry=telemetry,
    )
    return DriverReport(report=report, driver=stats)


def _replayable(records: list[GoalRecord], goals: list[Goal]) -> bool:
    """A persisted declaration record is trusted only when it matches
    the freshly extracted goal list shape exactly (count and origins) —
    anything else means the record is stale and must be re-solved."""
    if len(records) != len(goals):
        return False
    return all(
        record[0] == goal.origin for record, goal in zip(records, goals)
    )


# ---------------------------------------------------------------------------
# Corpus driver
# ---------------------------------------------------------------------------


@dataclass
class ProgramResult:
    """Slim, picklable outcome of checking one corpus program."""

    program: str
    ok: bool
    goals: int
    proved: int
    failed: int
    constraints: int
    sites: int
    eliminable: int
    warnings: int
    wall_seconds: float
    generation_seconds: float
    solve_seconds: float
    goals_replayed: int
    decl_hits: int
    decl_misses: int
    queries: int
    cache_hits: int
    cache_misses: int
    #: Goals degraded to unproved on budget/deadline exhaustion.
    budget_exhausted: int = 0
    #: Goals whose backend crash was contained.
    contained_crashes: int = 0
    #: Slicing-layer counters (zero when run with --no-slice).
    sliced_queries: int = 0
    atoms_before: int = 0
    atoms_after: int = 0
    subsumption_hits: int = 0
    prefix_reuses: int = 0
    verdicts: list[GoalRecord] = field(repr=False, default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    def cells(self) -> list[str]:
        return [
            self.program,
            "ok" if self.ok else "FAIL",
            f"{self.proved}/{self.goals}",
            f"{self.eliminable}/{self.sites}",
            f"{self.goals_replayed}/{self.goals}",
            f"{self.cache_hits}/{self.queries}",
            f"{self.generation_seconds * 1000:.1f}",
            f"{self.solve_seconds * 1000:.1f}",
            f"{self.wall_seconds * 1000:.1f}",
        ]


def _program_result(name: str, outcome: DriverReport) -> ProgramResult:
    report, driver = outcome.report, outcome.driver
    telemetry = report.telemetry or SolverTelemetry()
    return ProgramResult(
        program=name,
        ok=report.all_proved,
        goals=report.stats.goals,
        proved=report.stats.proved,
        failed=report.stats.failed,
        constraints=report.num_constraints,
        sites=len(report.sites),
        eliminable=len(report.eliminable_sites()),
        warnings=len(report.warnings),
        wall_seconds=driver.wall_seconds,
        generation_seconds=driver.generation_seconds,
        solve_seconds=driver.solve_seconds,
        goals_replayed=driver.goals_replayed,
        decl_hits=driver.decl_hits,
        decl_misses=driver.decl_misses,
        queries=telemetry.queries,
        cache_hits=telemetry.cache_hits,
        cache_misses=telemetry.cache_misses,
        budget_exhausted=report.stats.budget_exhausted,
        contained_crashes=report.stats.contained_crashes,
        sliced_queries=telemetry.sliced_queries,
        atoms_before=telemetry.atoms_before,
        atoms_after=telemetry.atoms_after,
        subsumption_hits=telemetry.subsumption_hits,
        prefix_reuses=telemetry.prefix_reuses,
        verdicts=outcome.verdicts,
    )


@dataclass
class CorpusReport:
    """Aggregate outcome of one ``check-corpus`` run."""

    rows: list[ProgramResult]
    jobs: int
    executor: str
    backend: str
    wall_seconds: float
    preloaded: int = 0
    solver_entries: int = 0
    corrupt_cache: bool = False
    #: Persistent store in use ("sqlite" / "none").
    store: str = "none"

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def busy_seconds(self) -> float:
        return sum(row.wall_seconds for row in self.rows)

    @property
    def utilization(self) -> float:
        capacity = self.wall_seconds * max(self.jobs, 1)
        if capacity <= 0:
            return 0.0
        return min(self.busy_seconds / capacity, 1.0)

    @property
    def queries(self) -> int:
        return sum(row.queries for row in self.rows)

    @property
    def cache_hits(self) -> int:
        return sum(row.cache_hits for row in self.rows)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def goals(self) -> int:
        return sum(row.goals for row in self.rows)

    @property
    def goals_replayed(self) -> int:
        return sum(row.goals_replayed for row in self.rows)

    @property
    def decl_hits(self) -> int:
        return sum(row.decl_hits for row in self.rows)

    @property
    def decl_misses(self) -> int:
        return sum(row.decl_misses for row in self.rows)

    @property
    def budget_exhausted(self) -> int:
        return sum(row.budget_exhausted for row in self.rows)

    @property
    def contained_crashes(self) -> int:
        return sum(row.contained_crashes for row in self.rows)

    @property
    def sliced_queries(self) -> int:
        return sum(row.sliced_queries for row in self.rows)

    @property
    def atoms_before(self) -> int:
        return sum(row.atoms_before for row in self.rows)

    @property
    def atoms_after(self) -> int:
        return sum(row.atoms_after for row in self.rows)

    @property
    def subsumption_hits(self) -> int:
        return sum(row.subsumption_hits for row in self.rows)

    @property
    def prefix_reuses(self) -> int:
        return sum(row.prefix_reuses for row in self.rows)

    def render(self) -> str:
        from repro.bench.tables import render_table

        headers = [
            "program", "status", "proved", "elim", "replayed",
            "cache", "gen ms", "solve ms", "wall ms",
        ]
        table = render_table(headers, [row.cells() for row in self.rows])
        lines = [
            table,
            "",
            f"programs:         {len(self.rows)} "
            f"({sum(1 for r in self.rows if r.ok)} ok, "
            f"{sum(1 for r in self.rows if not r.ok)} failed)",
            f"run:              backend={self.backend} executor={self.executor} "
            f"jobs={self.jobs} wall {self.wall_seconds * 1000:.1f} ms, "
            f"worker utilization {self.utilization:.0%}",
            f"solver cache:     {self.cache_hits}/{self.queries} queries "
            f"answered from cache ({self.hit_rate:.0%}), "
            f"{self.preloaded} verdict(s) preloaded from disk, "
            f"{self.solver_entries} persisted (store: {self.store})",
            f"decl cache:       {self.decl_hits} hit(s) / "
            f"{self.decl_misses} miss(es), "
            f"{self.goals_replayed}/{self.goals} goal(s) replayed",
        ]
        if self.sliced_queries:
            lines.append(
                f"slicing:          {self.sliced_queries} case(s), atoms "
                f"{self.atoms_before} -> {self.atoms_after}, "
                f"{self.subsumption_hits} subsumption hit(s), "
                f"{self.prefix_reuses} prefix reuse(s)"
            )
        if self.budget_exhausted or self.contained_crashes:
            lines.append(
                f"fail-soft:        {self.budget_exhausted} "
                f"budget-exhausted goal(s), {self.contained_crashes} "
                f"contained crash(es) (checks kept)"
            )
        if self.corrupt_cache:
            lines.append(
                "note:             on-disk cache was corrupt or stale; "
                "solved cold and rewrote it"
            )
        return "\n".join(lines)


def _load_source(name: str, source_dir: str | None) -> str:
    """One corpus program's text: bundled by default, or ``NAME.dml``
    under ``source_dir`` for on-disk corpora (``check-corpus --dir``,
    typically a ``repro fuzz --corpus-scale`` output tree)."""
    if source_dir is None:
        return programs.load_source(name)
    return Path(source_dir, f"{name}.dml").read_text()


def _dir_names(source_dir: str) -> list[str]:
    names = sorted(p.stem for p in Path(source_dir).glob("*.dml"))
    if not names:
        raise FileNotFoundError(f"no *.dml programs under {source_dir!r}")
    return names


def _check_one_process(
    args: tuple[
        str, str, str | None, int | None, float | None, bool, str | None
    ],
) -> tuple[ProgramResult, list[tuple[str, str, bool]], dict[str, list[GoalRecord]]]:
    """Process-pool worker: check one bundled program in isolation.

    Reads the on-disk cache directly (read-only), and ships fresh
    solver verdicts and declaration records back to the parent as
    picklable primitives; the parent folds them into its own store.
    Budget limits travel as plain ``(max_steps, goal_timeout)``
    primitives — each worker rebuilds the :class:`SolverLimits`, and
    every goal gets its own deadline anchored when *its* solve starts
    (a shared absolute deadline would penalize late-scheduled
    programs).  The slicing flag travels the same way; each worker
    builds its own :class:`SliceContext` inside :func:`check_program`.
    """
    (name, backend, cache_dir, max_steps, goal_timeout,
     slice_goals, source_dir) = args
    limits = (
        SolverLimits(max_steps=max_steps, goal_timeout=goal_timeout)
        if (max_steps is not None or goal_timeout is not None)
        else None
    )
    disk = open_store(cache_dir) if cache_dir is not None else None
    cache = SolverCache(maxsize=65536)
    try:
        outcome = check_program(
            _load_source(name, source_dir),
            f"{name}.dml",
            backend=backend,
            jobs=1,
            cache=cache,
            disk=disk,
            persist=False,
            limits=limits,
            slice_goals=slice_goals,
        )
        exported = [
            (backend_name, encode_key(key), verdict)
            for backend_name, key, verdict in cache.entries()
        ]
        records = disk.decl_entries() if disk is not None else {}
    finally:
        if disk is not None:
            disk.close()
    return _program_result(name, outcome), exported, records


def check_corpus(
    names: list[str] | None = None,
    *,
    jobs: int | None = None,
    backend: str = "fourier",
    executor: str = "thread",
    cache_dir: str | None = None,
    clear: bool = False,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    source_dir: str | None = None,
) -> CorpusReport:
    """Check bundled corpus programs concurrently.

    ``executor="thread"`` shares one in-memory solver cache across all
    workers (late programs reuse verdicts solved by early ones in the
    same run); ``executor="process"`` sidesteps the GIL for CPU-bound
    corpora — workers share only the persisted cache, and their fresh
    verdicts are merged into the store by the parent.  ``cache_dir`` enables
    the persistent layers (``None`` disables them); ``clear`` wipes the
    persisted state first (a guaranteed-cold run).

    ``source_dir`` switches the program source from the bundled corpus
    to ``*.dml`` files under a directory (names default to every stem,
    sorted) — the consumption side of ``repro fuzz --corpus-scale``.
    """
    if executor not in ("thread", "process"):
        raise ValueError(f"unknown executor {executor!r}")
    if names is None:
        names = (
            _dir_names(source_dir) if source_dir is not None
            else programs.available()
        )
    jobs = _effective_jobs(jobs)
    disk = open_store(cache_dir) if cache_dir is not None else None
    if disk is not None and clear:
        disk.clear()
    started = time.perf_counter()
    preloaded = 0

    if executor == "process" and jobs > 1:
        tasks = [
            (
                name, backend, cache_dir,
                limits.max_steps if limits is not None else None,
                limits.goal_timeout if limits is not None else None,
                slice_goals,
                source_dir,
            )
            for name in names
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_check_one_process, tasks))
        rows = []
        for row, exported, records in outcomes:
            rows.append(row)
            if disk is not None:
                imported = SolverCache(maxsize=len(exported) + 1)
                for backend_name, text, verdict in exported:
                    imported.preload(backend_name, decode_key(text), verdict)
                disk.absorb(imported)
                for key, decl_goals in records.items():
                    disk.decl_store(key, decl_goals)
        if disk is not None:
            preloaded = disk.loaded_solver
    else:
        shared = SolverCache(maxsize=65536)
        if disk is not None:
            preloaded = disk.seed(shared)

        def check_one(name: str) -> ProgramResult:
            outcome = check_program(
                _load_source(name, source_dir),
                f"{name}.dml",
                backend=backend,
                jobs=1,
                cache=shared,
                disk=disk,
                seed=False,
                persist=False,
                limits=limits,
                slice_goals=slice_goals,
            )
            return _program_result(name, outcome)

        if jobs == 1:
            rows = [check_one(name) for name in names]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(check_one, names))
        if disk is not None:
            disk.absorb(shared)

    corrupt = disk.corrupt if disk is not None else False
    solver_entries = disk.solver_entry_count if disk is not None else 0
    if disk is not None:
        disk.close()
    return CorpusReport(
        rows=rows,
        jobs=jobs,
        executor=executor,
        backend=backend,
        wall_seconds=time.perf_counter() - started,
        preloaded=preloaded,
        solver_entries=solver_entries,
        corrupt_cache=corrupt,
        store="sqlite" if disk is not None else "none",
    )
