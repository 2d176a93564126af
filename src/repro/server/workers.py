"""The pre-forked process worker pool behind ``repro serve --executor
process``.

Thread mode shares one CPython interpreter, so the GIL serializes the
CPU-bound solving and a multi-core box answers ``/check-batch`` no
faster than a single core.  This pool sidesteps the GIL the same way
``check-corpus --executor process`` does, but without paying a cold
start per task: workers are **forked after the parent is warm** — the
prelude template elaborated, the intern table populated, and the
shared :class:`~repro.solver.portfolio.SolverCache` seeded from the
persistent store — so fork-time copy-on-write hands every worker a
hot interpreter for free.

Lifecycle and safety:

* **Dispatch** — one duplex pipe per worker; the parent's dispatcher
  threads (the service's executor) block on a round-trip each, so at
  most ``jobs`` checks are in flight and excess requests queue.
* **Stores** — a worker never touches the parent's sqlite handle
  (connections must not cross ``fork``); each opens its own WAL
  connection after the fork and absorbs its fresh verdicts
  periodically and at exit.  The parent periodically
  :meth:`~repro.driver.store.SqliteVerdictStore.refresh`-es its own
  cache so workers respawned later fork from a view that already
  contains their siblings' persisted verdicts.
* **Containment** — a worker that crashes (pipe EOF) or wedges past
  ``worker_timeout`` is killed, reaped, and respawned; the in-flight
  request fails with a contained error and the daemon keeps serving.
  Respawns fork from the *current* parent, so they come up as warm as
  the original pool.
* **Parity** — workers run the exact per-request pipeline of thread
  mode (admission-clamped limits, per-request telemetry, worker-local
  slice context); caches and slicing are verdict-preserving by the
  repo-wide invariant, so verdicts are byte-identical across
  executors (CI: ``verdict_parity.py --serve-executor-parity``).
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro import api
from repro.driver.store import open_store
from repro.lang.errors import DMLError
from repro.server.protocol import check_response
from repro.solver.budget import SolverLimits
from repro.solver.portfolio import SolverCache, SolverTelemetry
from repro.solver.slice import SliceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.server.sessions import ServerConfig

#: Worker-side persistence cadence (mirrors the thread-mode service).
_WORKER_PERSIST_EVERY = 64

#: Slicing counters accumulate in the worker's pool-lifetime telemetry
#: (the shared slice context writes there continuously); per-request
#: deltas of these fields ride back to the parent with each reply.
_SLICE_FIELDS = (
    "sliced_queries",
    "atoms_before",
    "atoms_after",
    "subsumption_hits",
    "prefix_reuses",
)


class WorkerError(RuntimeError):
    """The worker serving one request died or timed out; the request
    failed contained and the worker was respawned."""


def fork_available() -> bool:
    """Whether this platform can pre-fork warm workers at all."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(
    conn: "Connection",
    cache: SolverCache,
    backend_default: str,
    cache_dir: str | None,
    slice_goals: bool,
) -> None:
    """The forked child's request loop.

    Everything warm arrives via copy-on-write: the memoized prelude,
    the intern table, and ``cache`` (the parent's seeded solver cache
    object — in the child it is a private copy, mutated freely).  Only
    the persistent store is re-opened here: sqlite connections must
    not cross a ``fork``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    disk = open_store(cache_dir) if cache_dir is not None else None
    pool_telemetry = SolverTelemetry()
    slicing = SliceContext(pool_telemetry) if slice_goals else None
    unsaved = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "exit":
            break
        request = message[1]
        started = time.perf_counter()
        telemetry = SolverTelemetry()
        before = [getattr(pool_telemetry, name) for name in _SLICE_FIELDS]
        try:
            limits = SolverLimits(
                max_steps=request["max_steps"],
                goal_timeout=request["goal_timeout"],
            )
            wants_slicing = request["slice_goals"] and slice_goals
            report = api.check(
                request["source"],
                request["name"],
                backend=request["backend"] or backend_default,
                cache=cache,
                telemetry=telemetry,
                limits=limits,
                slice_goals=wants_slicing,
                slicing=slicing if wants_slicing else None,
            )
            busy = time.perf_counter() - started
            delta = asdict(telemetry)
            for name, prior in zip(_SLICE_FIELDS, before):
                delta[name] += getattr(pool_telemetry, name) - prior
            reply = ("ok", check_response(report, busy, limits), busy, delta)
            unsaved += 1
            if disk is not None and unsaved >= _WORKER_PERSIST_EVERY:
                disk.absorb(cache)
                unsaved = 0
        except DMLError as exc:
            reply = (
                "dml_error", exc.render(), time.perf_counter() - started, None
            )
        except Exception as exc:  # noqa: BLE001 - contained, like thread mode
            reply = (
                "check_error",
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
                None,
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    if disk is not None:
        if unsaved:
            disk.absorb(cache)
        disk.close()
    conn.close()


@dataclass
class _Worker:
    """Parent-side view of one pooled process."""

    wid: int
    process: multiprocessing.Process
    conn: "Connection"
    requests: int = 0
    busy_seconds: float = 0.0
    respawns: int = 0
    #: Serializes one dispatcher's round-trip on this worker's pipe.
    lock: threading.Lock = field(default_factory=threading.Lock)


class ProcessWorkerPool:
    """``jobs`` pre-forked, persistent checking workers.

    :meth:`submit` is blocking (call it from dispatcher threads); it
    leases an idle worker, runs one request round-trip on its pipe,
    and handles crash/timeout containment inline.  All forking — the
    initial pool and every respawn — happens under :attr:`fork_lock`,
    which the parent also holds while touching the shared solver cache
    (a fork racing a cache mutation could snapshot a held lock into
    the child and deadlock its first lookup).
    """

    def __init__(self, config: "ServerConfig", cache: SolverCache) -> None:
        if not fork_available():  # pragma: no cover - platform-specific
            raise RuntimeError(
                "--executor process requires the fork start method "
                "(unavailable on this platform); use --executor thread"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._config = config
        self._cache = cache
        self.jobs = config.effective_jobs
        self.worker_timeout = config.worker_timeout
        self.fork_lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._idle: queue.SimpleQueue[int] = queue.SimpleQueue()
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessWorkerPool":
        with self.fork_lock:
            for wid in range(self.jobs):
                self._workers[wid] = self._fork(wid, respawns=0)
                self._idle.put(wid)
        return self

    def _fork(self, wid: int, respawns: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._cache,
                self._config.backend,
                self._config.cache_dir,
                self._config.slice_goals,
            ),
            name=f"repro-serve-worker-{wid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(
            wid=wid, process=process, conn=parent_conn, respawns=respawns
        )

    def _respawn(self, worker: _Worker) -> None:
        """Kill, reap, and replace one worker (same slot, fresh fork
        from the current — possibly refreshed — parent)."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=10)
        try:
            worker.conn.close()
        except OSError:
            pass
        with self.fork_lock:
            replacement = self._fork(worker.wid, respawns=worker.respawns + 1)
            replacement.requests = worker.requests
            replacement.busy_seconds = worker.busy_seconds
            self._workers[worker.wid] = replacement

    def stop(self) -> None:
        self._stopped = True
        for worker in self._workers.values():
            try:
                worker.conn.send(("exit", None))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stragglers
                worker.process.kill()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def submit(self, request: dict) -> tuple[str, object, float, dict | None]:
        """One blocking request round-trip on an idle worker.

        Returns the worker's reply tuple ``(kind, payload, busy,
        telemetry_delta)``; a crashed or wedged worker yields a
        ``("crash", message, 0.0, None)`` reply after being respawned,
        so the caller can fail the request contained.
        """
        wid = self._idle.get()
        worker = self._workers[wid]
        try:
            with worker.lock:
                reply = self._roundtrip(worker, request)
            if reply[0] == "crash":
                self._respawn(worker)
            else:
                worker.requests += 1
                worker.busy_seconds += reply[2]
            return reply
        finally:
            self._idle.put(wid)

    def _roundtrip(
        self, worker: _Worker, request: dict
    ) -> tuple[str, object, float, dict | None]:
        try:
            worker.conn.send(("check", request))
            if self.worker_timeout is not None:
                if not worker.conn.poll(self.worker_timeout):
                    return (
                        "crash",
                        f"worker {worker.wid} (pid {worker.process.pid}) "
                        f"exceeded --worker-timeout "
                        f"{self.worker_timeout:g}s and was respawned",
                        0.0,
                        None,
                    )
            return worker.conn.recv()
        except (EOFError, BrokenPipeError, ConnectionError, OSError):
            return (
                "crash",
                f"worker {worker.wid} (pid {worker.process.pid}) died "
                "mid-request and was respawned",
                0.0,
                None,
            )

    # -- telemetry ---------------------------------------------------------

    def pids(self) -> list[int]:
        return [
            worker.process.pid
            for worker in self._workers.values()
            if worker.process.pid is not None
        ]

    def respawn_total(self) -> int:
        return sum(worker.respawns for worker in self._workers.values())

    def worker_stats(self) -> list[dict]:
        """Per-worker ``/stats`` rows (process mode)."""
        return [
            {
                "id": f"process-{worker.wid}",
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "requests": worker.requests,
                "busy_seconds": worker.busy_seconds,
                "respawns": worker.respawns,
            }
            for wid, worker in sorted(self._workers.items())
        ]
