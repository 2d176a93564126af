"""The incrementally-cached checking driver.

:func:`repro.api.check` is a single-shot pipeline: one program, every
goal solved from scratch.  This module turns it into a batch service:

* **One solve loop** — :func:`check_program` runs ``api.check``'s own
  per-declaration loop (:func:`repro.api.solve_elaboration`), so its
  verdicts are ``api.check``'s by construction; it only adds the
  replay and persistence below.
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
* **Corpus parallelism** — :func:`check_corpus` checks whole programs
  in a pool of worker processes (the solver is CPU-bound Python, so
  threads would serialize on the GIL).  Each worker persists its own
  verdicts to the shared store; the parent only collects the rows.
* **Telemetry** — per-program wall clock, worker utilization, cache
  hit rates, and replay counts, aggregated corpus-wide by
  :class:`CorpusReport` (the ``repro check-corpus`` CLI prints it).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro import api, programs
from repro.core.elaborate import DeclConstraint
from repro.driver.hashing import decl_keys, prelude_hash
from repro.driver.store import GoalRecord, SqliteVerdictStore, open_store
from repro.solver.backends import Backend
from repro.solver.budget import SolverLimits
from repro.solver.portfolio import SolverCache, SolverTelemetry
from repro.solver.simplify import Goal, GoalResult
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

    wall_seconds: float = 0.0
    generation_seconds: float = 0.0
    solve_seconds: float = 0.0
    goals: int = 0
    #: Goals answered by replaying a persisted declaration record.
    goals_replayed: int = 0
    decl_hits: int = 0
    decl_misses: int = 0
    #: Solver verdicts preloaded from disk into the in-memory cache.
    preloaded: int = 0


@dataclass
class DriverReport:
    """A :class:`~repro.api.CheckReport` plus driver telemetry."""

    report: api.CheckReport
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
            f"driver:           "
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
    cache: SolverCache | None = None,
    disk: SqliteVerdictStore | None = None,
    telemetry: SolverTelemetry | None = None,
    include_prelude: bool = True,
    seed: bool = True,
    persist: bool = True,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
) -> DriverReport:
    """Check one program with incremental verdict replay.

    Produces goal verdicts identical to ``api.check(source, ...)`` with
    the same backend: both run :func:`repro.api.solve_elaboration`.

    ``disk`` enables the two persistence layers: a declaration whose
    content key has a matching record is replayed instead of proved,
    and every freshly proved declaration is recorded.  ``seed=False``
    skips preloading the solver cache from ``disk`` (the in-process
    corpus driver seeds a shared cache once), and ``persist=False``
    skips writing the solver cache back (ditto).

    ``limits`` bounds each goal's proof effort (fail-soft: exhaustion
    or a backend crash records the goal unproved and the batch
    continues).  Each goal gets its own budget and deadline.

    ``slice_goals`` enables the goal-preprocessing layer
    (:mod:`repro.solver.slice`); one :class:`SliceContext` is shared by
    all goals, so refuted cores propagate across goals and
    declarations within the run.
    """
    if cache is None:
        cache = SolverCache(maxsize=65536)
    backend_stack, telemetry = api._resolve_backend(backend, cache, telemetry)
    slicing = SliceContext(telemetry) if slice_goals else None
    stats = DriverStats()
    started = time.perf_counter()
    if disk is not None and seed:
        stats.preloaded = disk.seed(cache)

    front = api.elaborate_source(source, name, include_prelude)
    stats.generation_seconds = front.generation_seconds

    replay = None
    if disk is not None:
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

        def decl_key(dc: DeclConstraint) -> str | None:
            return key_by_span.get((dc.decl.span.start, dc.decl.span.end))

        def replay(
            dc: DeclConstraint, goals: list[Goal]
        ) -> list[GoalResult] | None:
            key = decl_key(dc)
            records = disk.decl_lookup(key) if key is not None else None
            if records is None or not _replayable(records, goals):
                stats.decl_misses += 1
                return None
            stats.decl_hits += 1
            stats.goals_replayed += len(goals)
            return [
                GoalResult(goal, proved, reason)
                for goal, (_origin, proved, reason) in zip(goals, records)
            ]

    report, by_decl = api.solve_elaboration(
        front, name, backend_stack, telemetry,
        limits=limits, slicing=slicing, replay=replay,
    )
    stats.solve_seconds = report.solve_seconds
    stats.goals = report.stats.goals

    # -- persistence ----------------------------------------------------
    if disk is not None:
        for dc, results in zip(front.elab.decl_constraints, by_decl):
            key = decl_key(dc)
            if key is None:
                continue
            if any(r.budget_exhausted or r.crashed for r in results):
                # A degraded verdict ("ran out of budget" / "backend
                # crashed") is not a fact about the declaration; pinning
                # it on disk would replay the failure even under a
                # bigger budget or a fixed backend.  Re-solve next run.
                continue
            disk.decl_store(
                key, [(r.goal.origin, r.proved, r.reason) for r in results]
            )
        if persist:
            disk.absorb(cache)

    stats.wall_seconds = time.perf_counter() - started
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
        verdicts=outcome.verdicts,
    )


@dataclass
class CorpusReport:
    """Aggregate outcome of one ``check-corpus`` run."""

    rows: list[ProgramResult]
    jobs: int
    backend: str
    wall_seconds: float
    preloaded: int = 0
    solver_entries: int = 0
    corrupt_cache: bool = False
    #: Persistent store in use ("sqlite" / "none").
    store: str = "none"
    #: Always 0; not a field.  perfbench reads it as slice.prefix_reuses.
    prefix_reuses = 0

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
            f"run:              backend={self.backend} "
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
                f"{self.subsumption_hits} subsumption hit(s)"
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
) -> ProgramResult:
    """Process-pool worker: check one program in isolation.

    The worker opens its own connection to the store, seeds a fresh
    solver cache from it, and writes its own declaration records and
    solver verdicts back (row-granular merges, so sibling workers never
    clobber each other); only the slim :class:`ProgramResult` travels
    back to the parent.  Budget limits travel as plain
    ``(max_steps, goal_timeout)`` primitives — each worker rebuilds the
    :class:`SolverLimits`, and every goal gets its own deadline anchored
    when *its* solve starts (a shared absolute deadline would penalize
    late-scheduled programs).  The slicing flag travels the same way;
    each worker builds its own :class:`SliceContext` inside
    :func:`check_program`.
    """
    (name, backend, cache_dir, max_steps, goal_timeout,
     slice_goals, source_dir) = args
    limits = (
        SolverLimits(max_steps=max_steps, goal_timeout=goal_timeout)
        if (max_steps is not None or goal_timeout is not None)
        else None
    )
    disk = open_store(cache_dir) if cache_dir is not None else None
    try:
        outcome = check_program(
            _load_source(name, source_dir),
            f"{name}.dml",
            backend=backend,
            disk=disk,
            limits=limits,
            slice_goals=slice_goals,
        )
    finally:
        if disk is not None:
            disk.close()
    return _program_result(name, outcome)


def check_corpus(
    names: list[str] | None = None,
    *,
    jobs: int | None = None,
    backend: str = "fourier",
    executor: str = "process",
    cache_dir: str | None = None,
    clear: bool = False,
    limits: SolverLimits | None = None,
    slice_goals: bool = True,
    source_dir: str | None = None,
) -> CorpusReport:
    """Check corpus programs, one worker process per concurrent program.

    ``jobs`` caps the worker processes (default: CPU count; never more
    than there are programs).  With one job the programs run in this
    process against one shared in-memory solver cache, so late programs
    reuse verdicts solved by early ones.  ``cache_dir`` enables the
    persistent layers (``None`` disables them); ``clear`` wipes the
    persisted state first (a guaranteed-cold run).

    ``source_dir`` switches the program source from the bundled corpus
    to ``*.dml`` files under a directory (names default to every stem,
    sorted) — the consumption side of ``repro fuzz --corpus-scale``.
    """
    # Kept for callers that name the pool (perfbench/recheck.py); the
    # process pool is the only one.
    if executor != "process":
        raise ValueError(f"unknown executor {executor!r} (expected 'process')")
    if names is None:
        names = (
            _dir_names(source_dir) if source_dir is not None
            else programs.available()
        )
    jobs = min(_effective_jobs(jobs), max(len(names), 1))
    disk = open_store(cache_dir) if cache_dir is not None else None
    if disk is not None and clear:
        disk.clear()
    started = time.perf_counter()
    preloaded = 0

    if jobs > 1:
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
            rows = list(pool.map(_check_one_process, tasks))
        if disk is not None:
            preloaded = disk.loaded_solver
    else:
        shared = SolverCache(maxsize=65536)
        if disk is not None:
            preloaded = disk.seed(shared)
        rows = [
            _program_result(
                name,
                check_program(
                    _load_source(name, source_dir),
                    f"{name}.dml",
                    backend=backend,
                    cache=shared,
                    disk=disk,
                    seed=False,
                    persist=False,
                    limits=limits,
                    slice_goals=slice_goals,
                ),
            )
            for name in names
        ]
        if disk is not None:
            disk.absorb(shared)

    corrupt = disk.corrupt if disk is not None else False
    solver_entries = disk.solver_entry_count if disk is not None else 0
    if disk is not None:
        disk.close()
    return CorpusReport(
        rows=rows,
        jobs=jobs,
        backend=backend,
        wall_seconds=time.perf_counter() - started,
        preloaded=preloaded,
        solver_entries=solver_entries,
        corrupt_cache=corrupt,
        store="sqlite" if disk is not None else "none",
    )
