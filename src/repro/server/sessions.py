"""Warm daemon state and per-request check execution.

What stays warm across requests (and why each piece is safe to share):

* **the elaborated prelude template** — :func:`repro.api.check`
  already memoizes it process-wide; the service forces the
  elaboration at construction time so the *first* request is as warm
  as the rest.  Each request still gets an isolated session: the
  template is only ever :meth:`~repro.core.ml_infer.MLInferencer.fork`-ed,
  so one request's declarations can never leak into another's.
* **the intern table** — process-global and content-addressed
  (:mod:`repro.indices.intern`); sharing is its whole point.
* **the solver-verdict cache** — one locked
  :class:`~repro.solver.portfolio.SolverCache`, seeded from the
  persistent :class:`~repro.driver.store.SqliteVerdictStore` at
  startup and absorbed back periodically (behind a dedicated persist
  lock, so two worker threads crossing the persist boundary never run
  concurrent absorb cycles).  Canonical keys quotient by variable
  renaming, so verdicts cached by one request answer structurally
  identical queries from any other; the store's row-merge writes mean
  a daemon can safely share its cache directory with concurrent
  ``repro check-corpus`` runs.
* **the slice context** — one locked
  :class:`~repro.solver.slice.SliceContext`: refuted cores and
  presolved hypothesis prefixes are monotone, verdict-preserving
  facts, so accumulating them across requests only converts backend
  calls into hits.

Per request, nothing is shared: a fresh prelude fork, a fresh
:class:`~repro.indices.terms.EvarStore`, a fresh per-request
:class:`~repro.solver.portfolio.SolverTelemetry` (merged into the
daemon-wide aggregate under a lock afterwards), and an
admission-clamped :class:`~repro.solver.budget.SolverLimits` envelope.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import api
from repro.driver.store import DEFAULT_CACHE_DIR, open_store
from repro.lang.errors import DMLError
from repro.server.protocol import (
    PROTOCOL_VERSION,
    CheckRequest,
    admit_limits,
    check_response,
)
from repro.solver.budget import DEFAULT_LIMITS, SolverLimits
from repro.solver.portfolio import SolverCache, SolverTelemetry
from repro.solver.slice import SliceContext

#: Absorb into the persistent store every this many checks (plus
#: once at shutdown); a crash in between loses at most an optimization.
_PERSIST_EVERY = 64

#: In process mode, the parent re-seeds its solver cache from the
#: store every this many checks, so workers respawned later fork from
#: a view that includes verdicts their siblings already persisted.
_RESEED_EVERY = 256

#: Check-latency samples retained for the /stats p50/p95 quantiles.
_LATENCY_WINDOW = 2048


class RemoteCheckError(DMLError):
    """A :class:`~repro.lang.errors.DMLError` raised inside a pool
    worker, re-raised parent-side with the worker's already-rendered
    text (spans and source excerpts don't cross the pipe)."""

    def __init__(self, rendered: str) -> None:
        super().__init__(rendered)
        self.rendered = rendered

    def render(self, source=None) -> str:  # noqa: ARG002 - pre-rendered
        return self.rendered


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one daemon instance (CLI: ``repro serve``)."""

    backend: str = "fourier"
    #: Worker threads answering requests (``None``/0 = CPU count).
    jobs: int | None = None
    #: Persistent verdict cache directory (``None`` disables it).
    cache_dir: str | None = DEFAULT_CACHE_DIR
    #: Server-side admission caps; client-requested budgets are
    #: clamped against these (``None`` components = uncapped).
    caps: SolverLimits = field(default_factory=lambda: DEFAULT_LIMITS)
    #: Goal preprocessing for requests that don't opt out themselves.
    slice_goals: bool = True
    #: ``"thread"`` (one interpreter, GIL-shared) or ``"process"``
    #: (pre-forked warm workers; throughput scales with cores).
    executor: str = "thread"
    #: Process mode only: kill and respawn a worker that spends longer
    #: than this on one request (``None`` = never).
    worker_timeout: float | None = None

    @property
    def effective_jobs(self) -> int:
        if self.jobs is None or self.jobs <= 0:
            return os.cpu_count() or 1
        return self.jobs


def _quantile_ms(samples: list[float], q: float) -> float | None:
    """The ``q``-quantile of sorted wall-time samples, in
    milliseconds (``None`` with no samples yet)."""
    if not samples:
        return None
    if len(samples) == 1:
        return samples[0] * 1000.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[max(0, min(int(q * 100) - 1, 98))] * 1000.0


class CheckService:
    """The blocking core of the daemon: owns the warm state, executes
    validated requests.  The asyncio front end
    (:mod:`repro.server.app`) calls :meth:`check` on :attr:`pool`
    threads; everything here is therefore written to be shared."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config if config is not None else ServerConfig()
        if self.config.executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {self.config.executor!r} "
                "(expected 'thread' or 'process')"
            )
        # Force the prelude elaboration now: the daemon's first request
        # should already be warm — and in process mode the pool forks
        # *after* this point, so every worker inherits the warm
        # template, intern table, and seeded cache via copy-on-write.
        api._prelude_inferencer()
        self.disk = (
            open_store(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.cache = SolverCache(maxsize=65536)
        self.preloaded = self.disk.seed(self.cache) if self.disk else 0
        #: Daemon-lifetime aggregate (slicing counters land here
        #: directly via the shared context; per-request backend
        #: counters are merged in after each check).
        self.telemetry = SolverTelemetry()
        self.slicing = (
            SliceContext(self.telemetry) if self.config.slice_goals else None
        )
        self.workers = None
        if self.config.executor == "process":
            from repro.server.workers import ProcessWorkerPool

            self.workers = ProcessWorkerPool(self.config, self.cache).start()
        #: Thread mode: the checking workers.  Process mode: dispatcher
        #: threads, one blocking pipe round-trip each — sized like the
        #: pool so every forked worker can be kept busy.
        self.pool = ThreadPoolExecutor(
            max_workers=self.config.effective_jobs,
            thread_name_prefix="repro-serve",
        )
        self._lock = threading.Lock()
        #: Serializes absorb cycles against the persistent store.
        #: Distinct from ``_lock`` (the counter lock): persistence does
        #: disk I/O and must never be held while counters are updated,
        #: nor run concurrently with itself — two worker threads
        #: crossing the persist boundary together used to both run
        #: full absorb cycles at once.
        self._persist_lock = threading.Lock()
        self._started = time.monotonic()
        self._unsaved = 0
        self._unseeded = 0
        # -- request counters (under self._lock) -----------------------
        self.checks = 0
        self.batches = 0
        self.batch_items = 0
        self.rejected = 0
        self.check_errors = 0
        self.busy_seconds = 0.0
        #: Recent per-check wall times (seconds) for /stats quantiles.
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        #: Thread mode: per-worker-thread [requests, busy_seconds].
        self._thread_stats: dict[str, list] = {}

    # -- request execution -------------------------------------------------

    def check(self, request: CheckRequest) -> dict:
        """Execute one validated request; returns the JSON response.

        Raises :class:`repro.lang.errors.DMLError` for programs that
        fail to parse/elaborate (the app maps it to HTTP 422) — solver
        trouble never raises, by the fail-soft contract.  In process
        mode a crashed or wedged worker raises
        :class:`~repro.server.workers.WorkerError` (mapped to a
        contained HTTP 500); the daemon keeps serving either way.
        """
        if self.workers is not None:
            return self._check_in_worker(request)
        limits = admit_limits(request, self.config.caps)
        slice_goals = request.slice_goals and self.config.slice_goals
        telemetry = SolverTelemetry()
        started = time.perf_counter()
        try:
            report = api.check(
                request.source,
                request.name,
                backend=request.backend or self.config.backend,
                cache=self.cache,
                telemetry=telemetry,
                limits=limits,
                slice_goals=slice_goals,
                slicing=self.slicing if slice_goals else None,
            )
        except Exception:
            with self._lock:
                self.check_errors += 1
            raise
        wall = time.perf_counter() - started
        with self._lock:
            self.checks += 1
            self.busy_seconds += wall
            self.telemetry.merge(telemetry)
            self._latencies.append(wall)
            per = self._thread_stats.setdefault(
                threading.current_thread().name, [0, 0.0]
            )
            per[0] += 1
            per[1] += wall
        self._persist(final=False)
        return check_response(report, wall, limits)

    def _check_in_worker(self, request: CheckRequest) -> dict:
        """Process mode: ship one admission-clamped request to a
        pre-forked worker and account for the round-trip."""
        from repro.server.workers import WorkerError

        limits = admit_limits(request, self.config.caps)
        started = time.perf_counter()
        kind, payload, busy, delta = self.workers.submit(
            {
                "source": request.source,
                "name": request.name,
                "backend": request.backend,
                "max_steps": limits.max_steps,
                "goal_timeout": limits.goal_timeout,
                "slice_goals": request.slice_goals,
            }
        )
        wall = time.perf_counter() - started
        with self._lock:
            if kind == "ok":
                self.checks += 1
                self.busy_seconds += busy
                self._latencies.append(wall)
                if delta is not None:
                    self.telemetry.merge(SolverTelemetry(**delta))
            else:
                self.check_errors += 1
        if kind == "dml_error":
            raise RemoteCheckError(payload)
        if kind != "ok":  # "crash" (died/wedged) or "check_error"
            raise WorkerError(payload)
        self._maybe_reseed()
        return payload

    def _maybe_reseed(self) -> None:
        """Every ``_RESEED_EVERY`` process-mode checks, fold verdicts
        other writers persisted into the parent's cache, so future
        respawns fork warm.  Runs under the pool's fork lock: a fork
        racing the cache preloads could snapshot a held lock into the
        child."""
        if self.disk is None or self.workers is None:
            return
        with self._lock:
            self._unseeded += 1
            due = self._unseeded >= _RESEED_EVERY
            if due:
                self._unseeded = 0
        if due:
            with self._persist_lock, self.workers.fork_lock:
                self.disk.refresh(self.cache)

    def count_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_items += size

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    # -- persistence -------------------------------------------------------

    def _persist(self, final: bool) -> None:
        if self.disk is None:
            return
        with self._lock:
            self._unsaved += 1
            due = final or self._unsaved >= _PERSIST_EVERY
            if due:
                self._unsaved = 0
        if due:
            # The persist lock serializes the absorb cycle: the
            # due-decision above runs under the counter lock, but two
            # worker threads could both see `due` across a batch
            # boundary and would otherwise run full concurrent cycles.
            with self._persist_lock:
                self.disk.absorb(self.cache)

    def close(self) -> None:
        """Flush the persistent cache and stop the worker pool."""
        self.pool.shutdown(wait=True)
        if self.workers is not None:
            # Workers flush their own stores on exit; the parent's
            # cache holds nothing they don't already have.
            self.workers.stop()
        else:
            self._persist(final=True)
        if self.disk is not None:
            self.disk.close()

    # -- telemetry ---------------------------------------------------------

    def stats_json(self) -> dict:
        """The ``GET /stats`` body: daemon, cache, solver, and slicing
        telemetry accumulated since startup."""
        with self._lock:
            telemetry = SolverTelemetry()
            telemetry.merge(self.telemetry)
            checks, batches = self.checks, self.batches
            batch_items = self.batch_items
            rejected, errors = self.rejected, self.check_errors
            busy = self.busy_seconds
            samples = sorted(self._latencies)
            thread_rows = [
                {
                    "id": name,
                    "pid": os.getpid(),
                    "alive": True,
                    "requests": per[0],
                    "busy_seconds": per[1],
                    "respawns": 0,
                }
                for name, per in sorted(self._thread_stats.items())
            ]
        if self.workers is not None:
            worker_rows = self.workers.worker_stats()
            respawns = self.workers.respawn_total()
        else:
            worker_rows = thread_rows
            respawns = 0
        store = self.disk.stats() if self.disk is not None else None
        return {
            "version": PROTOCOL_VERSION,
            "backend": self.config.backend,
            "executor": self.config.executor,
            "jobs": self.config.effective_jobs,
            "uptime_seconds": time.monotonic() - self._started,
            "latency": {
                "samples": len(samples),
                "window": _LATENCY_WINDOW,
                "p50_ms": _quantile_ms(samples, 0.50),
                "p95_ms": _quantile_ms(samples, 0.95),
            },
            "workers": worker_rows,
            "respawns": respawns,
            "checks": checks,
            "batches": batches,
            "batch_items": batch_items,
            "rejected": rejected,
            "check_errors": errors,
            "busy_seconds": busy,
            "caps": {
                "max_steps": self.config.caps.max_steps,
                "goal_timeout": self.config.caps.goal_timeout,
            },
            "solver": {
                "queries": telemetry.queries,
                "unsat": telemetry.unsat,
                "cache_hits": telemetry.cache_hits,
                "cache_misses": telemetry.cache_misses,
                "cache_evictions": telemetry.cache_evictions,
                "decisions": dict(telemetry.decisions),
                "budget_exhausted": telemetry.budget_exhausted,
                "contained_crashes": telemetry.contained_crashes,
            },
            "slicing": {
                "enabled": self.config.slice_goals,
                "sliced_queries": telemetry.sliced_queries,
                "atoms_before": telemetry.atoms_before,
                "atoms_after": telemetry.atoms_after,
                "subsumption_hits": telemetry.subsumption_hits,
                "prefix_reuses": telemetry.prefix_reuses,
            },
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "preloaded": self.preloaded,
                "persistent": self.disk is not None,
                "persisted_solver_entries": (
                    store["solver_entries"] if store else 0
                ),
                "persisted_decl_entries": (
                    store["decl_entries"] if store else 0
                ),
                "corrupt": store["corrupt"] if store else False,
            },
            "store": store,
        }
