"""The on-disk verdict store file: round-trips, clearing, corruption,
and schema generations."""

import sqlite3

from repro.driver.hashing import SCHEMA_VERSION
from repro.driver.store import DB_FILENAME, open_store
from repro.indices.linear import Atom, LinComb
from repro.solver.portfolio import SolverCache, canonical_key, encode_key


def some_key():
    # x - 3 >= 0
    return canonical_key([Atom(">=", LinComb(coeffs=(("x", 1),), const=-3))])


def filled_memory_cache() -> SolverCache:
    cache = SolverCache()
    cache.store("fourier", some_key(), True)
    return cache


class TestRoundTrip:
    def test_solver_and_decl_layers_survive_a_reload(self, tmp_path):
        disk = open_store(tmp_path)
        assert disk.absorb(filled_memory_cache()) == 1
        disk.decl_store("abc123", [("sub#1", True, "")])
        disk.close()

        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 1
        assert fresh.loaded_decls == 1
        assert fresh.decl_lookup("abc123") == [("sub#1", True, "")]

        seeded = SolverCache()
        assert fresh.seed(seeded) == 1
        assert seeded.lookup("fourier", some_key()) is True
        # Seeding must not count as a hit in the seeded cache's stats.
        assert seeded.hits == 1  # the lookup just above, nothing else
        fresh.close()

    def test_absorb_counts_only_new_entries(self, tmp_path):
        disk = open_store(tmp_path)
        assert disk.absorb(filled_memory_cache()) == 1
        assert disk.absorb(filled_memory_cache()) == 0
        assert disk.solver_entry_count == 1
        disk.close()

    def test_missing_file_is_a_clean_cold_start(self, tmp_path):
        disk = open_store(tmp_path / "never-written")
        assert not disk.corrupt
        assert disk.loaded_solver == disk.loaded_decls == 0
        disk.close()

    def test_clear_resets_statistics(self, tmp_path):
        # Fill and reopen so every statistic is nonzero.
        disk = open_store(tmp_path)
        disk.absorb(filled_memory_cache())
        disk.decl_store("abc", [("sub#1", True, "")])
        disk.close()
        warmed = open_store(tmp_path)
        assert warmed.decl_lookup("abc") is not None  # one hit
        assert warmed.decl_lookup("missing") is None  # one miss
        assert warmed.loaded_solver == 1
        assert warmed.loaded_decls == 1
        assert warmed.decl_hits == 1
        assert warmed.decl_misses == 1

        warmed.clear()
        # Post-clear, telemetry must read like a cold start: no phantom
        # warm-load counts after `check-corpus --clear-cache`.
        assert warmed.loaded_solver == 0
        assert warmed.loaded_decls == 0
        assert warmed.decl_hits == 0
        assert warmed.decl_misses == 0
        assert warmed.corrupt is False
        assert warmed.solver_entry_count == 0
        assert warmed.decl_entry_count == 0
        warmed.close()

    def test_clear_resets_the_corrupt_flag(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        disk = open_store(tmp_path)
        assert disk.corrupt
        disk.clear()
        assert disk.corrupt is False
        disk.close()


def write_store(path, *, version: int, pre_change: bool = False) -> None:
    """A populated store file stamped ``version``.  ``pre_change``
    uses the layout before solver rows got never-reused ids (a
    ``(backend, key)`` primary key, plus hit-count columns)."""
    conn = sqlite3.connect(str(path))
    if pre_change:
        conn.execute(
            "CREATE TABLE solver (backend TEXT NOT NULL, key TEXT NOT NULL,"
            " verdict INTEGER NOT NULL, hits INTEGER NOT NULL DEFAULT 0,"
            " PRIMARY KEY (backend, key))"
        )
        conn.execute(
            "CREATE TABLE decls (key TEXT PRIMARY KEY,"
            " records TEXT NOT NULL, hits INTEGER NOT NULL DEFAULT 0)"
        )
    else:
        conn.execute(
            "CREATE TABLE solver (id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " backend TEXT NOT NULL, key TEXT NOT NULL,"
            " verdict INTEGER NOT NULL, UNIQUE (backend, key))"
        )
        conn.execute(
            "CREATE TABLE decls (key TEXT PRIMARY KEY, records TEXT NOT NULL)"
        )
    conn.execute(
        "INSERT INTO solver (backend, key, verdict) VALUES (?, ?, 1)",
        ("fourier", encode_key(some_key())),
    )
    conn.execute(
        "INSERT INTO decls (key, records) VALUES (?, ?)",
        ("abc", '[["sub#1",true,""]]'),
    )
    conn.execute(f"PRAGMA user_version = {version}")
    conn.commit()
    conn.close()


class TestCorruption:
    def test_garbage_bytes(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"\x00garbage, not a database")
        disk = open_store(tmp_path)
        assert disk.corrupt
        assert disk.loaded_solver == disk.loaded_decls == 0
        disk.close()

    def test_wrong_schema_version(self, tmp_path):
        # Another schema generation's populated file, and a file written
        # before the current layout (stamped with the previous version):
        # both open as a flagged cold start and seed nothing.
        for name, version, pre_change in [
            ("next", SCHEMA_VERSION + 1, False),
            ("pre-change", 1, True),
        ]:
            root = tmp_path / name
            root.mkdir()
            write_store(root / DB_FILENAME, version=version,
                        pre_change=pre_change)
            disk = open_store(root)
            assert disk.corrupt, name
            assert disk.loaded_solver == disk.loaded_decls == 0, name
            assert disk.seed(SolverCache()) == 0, name
            assert disk.decl_lookup("abc") is None, name
            disk.close()

    def test_malformed_canonical_key(self, tmp_path):
        disk = open_store(tmp_path)
        disk.absorb(filled_memory_cache())
        with disk._lock:
            disk._conn.execute(
                "INSERT INTO solver (backend, key, verdict)"
                " VALUES ('fourier', '[[1,2,3]]', 1)"
            )
        # The malformed row is dropped, never trusted.
        seeded = SolverCache()
        assert disk.seed(seeded) == 1
        assert len(seeded) == 1
        disk.close()

    def test_malformed_goal_record(self, tmp_path):
        disk = open_store(tmp_path)
        with disk._lock:
            disk._conn.execute(
                "INSERT INTO decls (key, records) VALUES ('abc', ?)",
                ('[["sub#1",true]]',),
            )
        assert disk.decl_lookup("abc") is None
        assert disk.decl_misses == 1
        assert disk.decl_entries() == {}
        disk.close()

    def test_corrupt_file_is_overwritten_on_save(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        disk = open_store(tmp_path)
        disk.absorb(filled_memory_cache())
        disk.decl_store("k", [("sub#1", True, "")])
        disk.close()
        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 1
        assert fresh.decl_lookup("k") == [("sub#1", True, "")]
        fresh.close()
