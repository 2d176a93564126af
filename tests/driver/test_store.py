"""The persistent verdict store shared between processes.

The load-bearing claims (the file-level round-trip, corruption, and
schema-generation rules live in ``test_cache.py``; the store contract
and the corrupt-file cold start are pinned again here at the
``open_store`` surface):

* **no lost updates** — N processes absorbing *disjoint* verdict sets
  into one store yield their exact union (row-merge under WAL);
* **refresh never skips rows** — a long-lived reader picks up every
  verdict another connection writes, even after that connection
  cleared the store;
* **no legacy import** — a leftover ``verdicts.json`` is ignored.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import driver
from repro.cli import main
from repro.driver.store import DB_FILENAME, open_store
from repro.indices.linear import Atom, LinComb
from repro.solver.portfolio import SolverCache, canonical_key


def key_for(i: int):
    # x - i >= 0: a distinct canonical key per i.
    return canonical_key([Atom(">=", LinComb(coeffs=(("x", 1),), const=-i))])


def cache_with(start: int, count: int) -> SolverCache:
    cache = SolverCache(maxsize=count + 1)
    for i in range(start, start + count):
        cache.store("fourier", key_for(i), True)
    return cache


@pytest.fixture(params=["sqlite"])
def backend(request):
    """Every backend name :func:`open_store` accepts."""
    return request.param


class TestInterfaceParity:
    """Every backend :func:`open_store` accepts honors the store
    contract; other names are rejected."""

    def test_only_the_sqlite_backend_opens(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(tmp_path, "json")

    def test_round_trip(self, tmp_path, backend):
        store = open_store(tmp_path, backend)
        assert store.stats()["backend"] == backend
        assert store.absorb(cache_with(0, 3)) == 3
        store.decl_store("abc", [("sub#1", True, "")])
        store.close()

        fresh = open_store(tmp_path, backend)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 3
        assert fresh.loaded_decls == 1
        assert fresh.decl_lookup("abc") == [("sub#1", True, "")]
        seeded = SolverCache()
        assert fresh.seed(seeded) == 3
        assert seeded.lookup("fourier", key_for(1)) is True
        fresh.close()

    def test_absorb_counts_only_new_entries(self, tmp_path, backend):
        store = open_store(tmp_path, backend)
        assert store.absorb(cache_with(0, 2)) == 2
        assert store.absorb(cache_with(0, 2)) == 0
        # Overlapping caches add only their unseen keys.
        assert store.absorb(cache_with(1, 3)) == 2
        assert store.solver_entry_count == 4
        store.close()

    def test_clear_is_a_cold_start(self, tmp_path, backend):
        store = open_store(tmp_path, backend)
        store.absorb(cache_with(0, 2))
        store.decl_store("k", [("sub#1", True, "")])
        store.clear()
        assert store.solver_entry_count == 0
        assert store.decl_entry_count == 0
        assert store.decl_lookup("k") is None
        store.close()
        reopened = open_store(tmp_path, backend)
        assert reopened.loaded_solver == 0
        assert reopened.loaded_decls == 0
        reopened.close()

    def test_stats_snapshot(self, tmp_path, backend):
        store = open_store(tmp_path, backend)
        store.absorb(cache_with(0, 2))
        store.decl_store("k", [("sub#1", True, "")])
        assert store.decl_lookup("k") is not None
        assert store.decl_lookup("missing") is None
        stats = store.stats()
        assert stats["backend"] == backend
        assert stats["solver_entries"] == 2
        assert stats["decl_entries"] == 1
        assert stats["decl_hits"] == 1
        assert stats["decl_misses"] == 1
        assert stats["corrupt"] is False
        store.close()

    def test_entry_count_properties_are_locked_reads(self, tmp_path, backend):
        # The counts are snapshots safe to read from a /stats thread
        # while a worker absorbs — exercised properly by the stress
        # test below; here just pin they exist.
        store = open_store(tmp_path, backend)
        assert store.solver_entry_count == 0
        assert store.decl_entry_count == 0
        store.close()


# ---------------------------------------------------------------------------
# Concurrent writers and readers sharing one store
# ---------------------------------------------------------------------------


def _absorb_worker(args: tuple[str, str, int, int, int]) -> int:
    """One writer process: absorb a disjoint slice in rounds, so
    concurrent writes genuinely interleave."""
    root, backend, start, count, rounds = args
    added = 0
    per_round = count // rounds
    store = open_store(root, backend)
    try:
        for r in range(rounds):
            added += store.absorb(
                cache_with(start + r * per_round, per_round)
            )
            store.decl_store(
                f"decl-{start}-{r}", [(f"sub#{start + r}", True, "")]
            )
    finally:
        store.close()
    return added


class TestConcurrentWriters:
    WRITERS = 4
    PER_WRITER = 48  # divisible by ROUNDS
    ROUNDS = 3

    def test_disjoint_absorbs_yield_the_exact_union(self, tmp_path, backend):
        """Daemon-style and corpus-style absorbers hammering one store
        lose zero verdicts."""
        tasks = [
            (str(tmp_path), backend, w * self.PER_WRITER,
             self.PER_WRITER, self.ROUNDS)
            for w in range(self.WRITERS)
        ]
        with ProcessPoolExecutor(max_workers=self.WRITERS) as pool:
            added = list(pool.map(_absorb_worker, tasks))
        assert sum(added) == self.WRITERS * self.PER_WRITER

        merged = open_store(tmp_path, backend)
        assert merged.solver_entry_count == self.WRITERS * self.PER_WRITER
        # Every verdict is present and correct, not merely counted.
        seeded = SolverCache(maxsize=2 * self.WRITERS * self.PER_WRITER)
        assert merged.seed(seeded) == self.WRITERS * self.PER_WRITER
        for i in range(self.WRITERS * self.PER_WRITER):
            assert seeded.lookup("fourier", key_for(i)) is True, i
        # Declaration records survived from every round of every writer.
        for w in range(self.WRITERS):
            for r in range(self.ROUNDS):
                start = w * self.PER_WRITER
                assert merged.decl_lookup(f"decl-{start}-{r}") == [
                    (f"sub#{start + r}", True, "")
                ]
        merged.close()

    def test_refresh_sees_every_row_written_after_another_clear(
        self, tmp_path
    ):
        """A daemon left running across `check-corpus --clear-cache`:
        the reader's id watermark must not hide rows written after the
        other connection emptied the table."""
        reader = open_store(tmp_path)
        reader.absorb(cache_with(0, 30))
        assert reader.seed(SolverCache(maxsize=64)) == 30

        writer = open_store(tmp_path)
        writer.clear()
        assert writer.absorb(cache_with(100, 39)) == 39
        writer.close()

        refreshed = SolverCache(maxsize=64)
        assert reader.refresh(refreshed) == 39
        for i in range(100, 139):
            assert refreshed.lookup("fourier", key_for(i)) is True, i
        assert reader.refresh(SolverCache()) == 0  # nothing new since
        reader.close()


# ---------------------------------------------------------------------------
# Corruption
# ---------------------------------------------------------------------------


class TestSqliteCorruption:
    def test_garbage_bytes_cold_start(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"\x00garbage, not a database")
        store = open_store(tmp_path)
        assert store.corrupt
        assert store.loaded_solver == store.loaded_decls == 0
        # The rebuilt store works and persists.
        assert store.absorb(cache_with(0, 2)) == 2
        store.decl_store("k", [("sub#1", True, "")])
        store.close()
        fresh = open_store(tmp_path)
        assert not fresh.corrupt
        assert fresh.loaded_solver == 2
        assert fresh.decl_lookup("k") == [("sub#1", True, "")]
        fresh.close()

    def test_malformed_decl_row_is_a_miss(self, tmp_path):
        store = open_store(tmp_path)
        with store._lock:
            store._conn.execute(
                "INSERT INTO decls (key, records) VALUES ('bad', '[[1,2]]')"
            )
        assert store.decl_lookup("bad") is None
        assert store.decl_misses == 1
        store.close()

    def test_corpus_flags_a_corrupt_sqlite_cache(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        report = driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.corrupt_cache
        assert report.all_ok
        assert report.store == "sqlite"
        # The cold run rebuilt a trusted store: the next run replays it.
        warm = driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path)
        )
        assert not warm.corrupt_cache
        assert warm.goals_replayed == warm.goals > 0


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------


class TestDriverIntegration:
    def test_leftover_verdicts_json_is_ignored(self, tmp_path, capsys):
        legacy = tmp_path / "verdicts.json"
        text = '{"version": 1, "solver": {}, "decls": {}}'
        legacy.write_text(text)
        mtime = legacy.stat().st_mtime_ns
        argv = ["check-corpus", "bsearch", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 verdict(s) preloaded" in out
        assert "corrupt" not in out
        assert legacy.read_text() == text
        assert legacy.stat().st_mtime_ns == mtime
        assert (tmp_path / DB_FILENAME).exists()

    def test_store_choice_shows_in_the_report(self, tmp_path):
        report = driver.check_corpus(
            ["dotprod"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.store == "sqlite"
        assert "store: sqlite" in report.render()

    def test_uncached_run_reports_no_store(self):
        report = driver.check_corpus(["dotprod"], jobs=1, cache_dir=None)
        assert report.store == "none"
