"""The persistent verdict store (``.repro-cache/verdicts.sqlite``).

The driver, the corpus runner, and the serve daemon all share one
corpus of solved verdicts between processes through
:class:`SqliteVerdictStore`, one sqlite database in WAL mode.

Two layers are persisted, both keyed so that stale entries can never
be *wrongly* reused — at worst they are ignored and the solve falls
back to cold:

* **solver verdicts** — ``backend name × canonical goal key → unsat``.
  Canonical keys are invariant under variable renaming, so verdicts
  survive any edit that leaves a goal's shape unchanged.
* **declaration records** — per-declaration goal verdicts keyed by the
  prefix-chain content hash of :mod:`repro.driver.hashing`.

Concurrent writers (say a ``repro serve`` daemon and a ``repro
check-corpus`` run sharing ``.repro-cache/``) merge at **row**
granularity: every writer's ``INSERT OR IGNORE`` lands independently
under WAL journaling, so N processes absorbing disjoint verdict sets
always yield their exact union — safe across threads, processes, and
machines sharing a filesystem.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path

from repro.driver.hashing import SCHEMA_VERSION
from repro.solver.portfolio import SolverCache, decode_key, encode_key

#: A replayable goal verdict: (origin, proved, reason).
GoalRecord = tuple[str, bool, str]

DEFAULT_CACHE_DIR = ".repro-cache"
DB_FILENAME = "verdicts.sqlite"


class SqliteVerdictStore:
    """The verdict store: one sqlite database in WAL mode.

    Concurrency model: every mutation is row-granular (``INSERT OR
    IGNORE`` / per-key upsert), so concurrent writers interleave
    without destroying each other's rows — WAL journaling plus a busy
    timeout serialize the physical writes, and the renaming-invariant
    canonical keys make logical conflicts impossible (two writers can
    only ever agree about a key's verdict; the backends are
    deterministic functions of the key).

    Corruption and schema drift cold-start: a file that cannot be
    opened or has a different ``user_version`` is dropped and
    recreated empty (``corrupt`` set), so a bad cache costs time but
    never changes a verdict.

    Statistics attributes (monotone within one process, reset only by
    :meth:`clear`): ``loaded_solver`` / ``loaded_decls`` — entries
    found on disk at open time; ``corrupt`` — a file existed but could
    not be trusted; ``decl_hits`` / ``decl_misses`` —
    :meth:`decl_lookup` outcomes this process.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.path = self.root / DB_FILENAME
        self._lock = threading.Lock()
        self.loaded_solver = 0
        self.loaded_decls = 0
        self.corrupt = False
        self.decl_hits = 0
        self.decl_misses = 0
        #: Highest solver row id already seeded into a cache; rows above
        #: it are what :meth:`refresh` picks up incrementally.
        self._seed_id = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()
        with self._lock:
            self.loaded_solver = self._count("solver")
            self.loaded_decls = self._count("decls")

    # -- connection management ------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path),
            timeout=30.0,
            isolation_level=None,  # autocommit; explicit BEGIN for batches
            check_same_thread=False,  # guarded by self._lock
        )
        conn.execute("PRAGMA busy_timeout = 30000")
        conn.execute("PRAGMA journal_mode = WAL")
        conn.execute("PRAGMA synchronous = NORMAL")
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute("BEGIN IMMEDIATE")
        # AUTOINCREMENT ids are never reused, not even after a clear()
        # empties the table, so refresh()'s id watermark cannot skip
        # rows another connection writes after clearing.
        conn.execute(
            "CREATE TABLE IF NOT EXISTS solver ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " backend TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " verdict INTEGER NOT NULL,"
            " UNIQUE (backend, key))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS decls ("
            " key TEXT PRIMARY KEY,"
            " records TEXT NOT NULL)"
        )
        conn.execute(f"PRAGMA user_version = {int(SCHEMA_VERSION)}")
        conn.execute("COMMIT")

    def _open(self) -> sqlite3.Connection:
        try:
            conn = self._connect()
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            populated = conn.execute(
                "SELECT count(*) FROM sqlite_master"
            ).fetchone()[0]
            if populated and version != SCHEMA_VERSION:
                # Another schema generation's file: drop, never trust.
                conn.execute("BEGIN IMMEDIATE")
                conn.execute("DROP TABLE IF EXISTS solver")
                conn.execute("DROP TABLE IF EXISTS decls")
                conn.execute("COMMIT")
                self.corrupt = True
            self._init_schema(conn)
            return conn
        except sqlite3.DatabaseError:
            # Not a database (garbage bytes, torn write): cold-start.
            try:
                conn.close()
            except Exception:
                pass
            self.corrupt = True
            for suffix in ("", "-wal", "-shm"):
                try:
                    Path(str(self.path) + suffix).unlink()
                except OSError:
                    pass
            conn = self._connect()
            self._init_schema(conn)
            return conn

    # -- solver-verdict layer -------------------------------------------

    def seed(self, cache: SolverCache) -> int:
        """Preload an in-memory solver cache with the persisted
        verdicts; returns how many entries were installed."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, backend, key, verdict FROM solver"
            ).fetchall()
            if rows:
                self._seed_id = max(row[0] for row in rows)
        return self._preload_rows(cache, rows)

    def refresh(self, cache: SolverCache) -> int:
        """Incremental re-seed: only rows another writer appended since
        the last :meth:`seed`/:meth:`refresh` — typically another
        process's :meth:`absorb`.  The serve daemon's process-executor
        parent calls this periodically so workers respawned later fork
        from a view that includes verdicts their siblings already
        persisted.  Tracked by an id watermark: ``INSERT OR IGNORE``
        never rewrites existing rows, so new ids are exactly the new
        verdicts.  Returns how many entries were installed."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, backend, key, verdict FROM solver WHERE id > ?",
                (self._seed_id,),
            ).fetchall()
            if rows:
                self._seed_id = max(self._seed_id, max(row[0] for row in rows))
        return self._preload_rows(cache, rows)

    @staticmethod
    def _preload_rows(cache: SolverCache, rows: list) -> int:
        count = 0
        for _id, backend, text, verdict in rows:
            try:
                key = decode_key(text)
            except ValueError:
                continue  # a malformed row is dropped, never trusted
            cache.preload(backend, key, bool(verdict))
            count += 1
        return count

    def absorb(self, cache: SolverCache) -> int:
        """Fold an in-memory solver cache's verdicts into the store;
        returns how many entries are new."""
        added = 0
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                for backend, key, verdict in cache.entries():
                    cur = self._conn.execute(
                        "INSERT OR IGNORE INTO solver"
                        " (backend, key, verdict) VALUES (?, ?, ?)",
                        (backend, encode_key(key), int(verdict)),
                    )
                    added += cur.rowcount
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return added

    # -- declaration layer ----------------------------------------------

    def decl_lookup(self, key: str) -> list[GoalRecord] | None:
        """The replayable records for one declaration hash, or
        ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT records FROM decls WHERE key = ?", (key,)
            ).fetchone()
            records = _decode_records(row[0]) if row is not None else None
            if records is None:
                self.decl_misses += 1
            else:
                self.decl_hits += 1
            return records

    def decl_store(self, key: str, records: list[GoalRecord]) -> None:
        """Record one declaration's verdicts."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO decls (key, records) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET records = excluded.records",
                (key, _encode_records(records)),
            )

    def decl_entries(self) -> dict[str, list[GoalRecord]]:
        """Snapshot of all declaration records (for cross-process
        merging by the corpus driver)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, records FROM decls"
            ).fetchall()
        entries = {}
        for key, text in rows:
            records = _decode_records(text)
            if records is not None:
                entries[key] = records
        return entries

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """A no-op kept for callers that publish explicitly: every
        :meth:`absorb`/:meth:`decl_store` already committed its rows."""

    def clear(self) -> None:
        """Drop all entries and reset statistics to a cold start."""
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute("DELETE FROM solver")
            self._conn.execute("DELETE FROM decls")
            self._conn.execute("COMMIT")
            self.loaded_solver = 0
            self.loaded_decls = 0
            self.corrupt = False
            self.decl_hits = 0
            self.decl_misses = 0
            self._seed_id = 0

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- statistics ------------------------------------------------------

    def _count(self, table: str) -> int:
        return self._conn.execute(
            f"SELECT count(*) FROM {table}"  # noqa: S608 - fixed names
        ).fetchone()[0]

    @property
    def solver_entry_count(self) -> int:
        """Persisted solver verdicts (thread-safe)."""
        with self._lock:
            return self._count("solver")

    @property
    def decl_entry_count(self) -> int:
        """Persisted declaration records (thread-safe)."""
        with self._lock:
            return self._count("decls")

    def stats(self) -> dict:
        """Telemetry snapshot (the serve daemon's ``/stats`` ``store``
        object)."""
        return {
            "backend": "sqlite",
            "solver_entries": self.solver_entry_count,
            "decl_entries": self.decl_entry_count,
            "loaded_solver": self.loaded_solver,
            "loaded_decls": self.loaded_decls,
            "decl_hits": self.decl_hits,
            "decl_misses": self.decl_misses,
            "corrupt": self.corrupt,
        }


def _encode_records(records: list[GoalRecord]) -> str:
    return json.dumps(
        [list(record) for record in records], separators=(",", ":")
    )


def _decode_records(text: str) -> list[GoalRecord] | None:
    """Parse one decls row; ``None`` for anything malformed (the row
    is then treated as a miss)."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError):
        return None
    if not isinstance(data, list):
        return None
    records: list[GoalRecord] = []
    for record in data:
        if not (
            isinstance(record, list)
            and len(record) == 3
            and isinstance(record[0], str)
            and isinstance(record[1], bool)
            and isinstance(record[2], str)
        ):
            return None
        records.append((record[0], record[1], record[2]))
    return records


def open_store(
    root: str | Path = DEFAULT_CACHE_DIR, backend: str = "sqlite"
) -> SqliteVerdictStore:
    """Open the persistent verdict store at ``root``.

    ``backend`` must be ``"sqlite"``, the only store; any other name is
    a :class:`ValueError`.
    """
    if backend != "sqlite":
        raise ValueError(
            f"unknown store backend {backend!r} (expected 'sqlite')"
        )
    return SqliteVerdictStore(root)
