"""The checking driver: parity, incrementality, and fallback behavior."""

import sqlite3
from pathlib import Path

import pytest

from repro import api, driver, programs
from repro.driver.store import DB_FILENAME, SqliteVerdictStore, open_store

GUARDED = (
    "fun f(x) = 10 div x\n"
    "fun g(arr) = sub(arr, 0)\n"
    "where g <| {n:nat | n > 0} int array(n) -> int\n"
)

EDIT_BASE = (
    "fun f(a) = sub(a, 0)\n"
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a\n"
    "fun g(a) = sub(a, 1)\n"
    "where g <| {n:nat | n > 1} 'a array(n) -> 'a\n"
)


def sequential_verdicts(name: str):
    report = api.check(programs.load_source(name), f"{name}.dml")
    return [(r.goal.origin, r.proved, r.reason) for r in report.goal_results]


def store_keys(cache_dir):
    """The persisted solver ``(backend, key)`` pairs and decl keys."""
    with sqlite3.connect(str(Path(cache_dir, DB_FILENAME))) as conn:
        solver = set(conn.execute("SELECT backend, key FROM solver"))
        decls = {key for (key,) in conn.execute("SELECT key FROM decls")}
    return solver, decls


class TestParity:
    def test_parallel_matches_sequential_on_the_corpus(self):
        for name in programs.available():
            outcome = driver.check_program(
                programs.load_source(name), f"{name}.dml"
            )
            assert outcome.verdicts == sequential_verdicts(name), name

    def test_corpus_thread_executor_matches_sequential(self, tmp_path):
        """The default corpus run (forked workers, no thread pool) matches
        a sequential ``api.check`` on every program."""
        corpus = driver.check_corpus(jobs=4, cache_dir=str(tmp_path))
        assert corpus.all_ok
        for row in corpus.rows:
            assert row.verdicts == sequential_verdicts(row.program), row.program

    def test_corpus_process_executor_matches_thread(self, tmp_path):
        """Forked workers match the in-process run on the calling thread,
        and persist their own verdicts."""
        names = ["bsearch", "dotprod"]
        threaded = driver.check_corpus(names, jobs=1, cache_dir=None)
        forked = driver.check_corpus(
            names, jobs=2, executor="process", cache_dir=str(tmp_path)
        )
        assert threaded.jobs == 1
        assert forked.jobs == 2
        assert [r.verdicts for r in forked.rows] == [
            r.verdicts for r in threaded.rows
        ]
        # The workers persisted their verdicts.
        reopened = driver.open_store(tmp_path)
        assert reopened.loaded_solver > 0
        assert reopened.loaded_decls > 0

    def test_parent_merges_nothing_the_workers_stored(
        self, tmp_path, monkeypatch
    ):
        """Process workers write their own rows; the parent must not
        re-ship or re-store them (forked workers count into their own
        copies of ``calls``, not the parent's)."""
        calls = []
        for method in ("absorb", "decl_store"):
            original = getattr(SqliteVerdictStore, method)

            def counted(self, *args, _original=original, _name=method):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(SqliteVerdictStore, method, counted)
        names = ["bsearch", "dotprod", "kmp"]
        forked_dir = tmp_path / "forked"
        report = driver.check_corpus(names, jobs=2, cache_dir=str(forked_dir))
        assert report.all_ok
        assert calls == []

        sequential_dir = tmp_path / "sequential"
        driver.check_corpus(names, jobs=1, cache_dir=str(sequential_dir))
        assert store_keys(forked_dir) == store_keys(sequential_dir)


class TestIncrementality:
    def test_warm_rerun_replays_every_declaration(self, tmp_path):
        source = programs.load_source("bsearch")
        disk = open_store(tmp_path)
        cold = driver.check_program(source, "bsearch.dml", disk=disk)
        assert cold.driver.goals_replayed == 0
        assert cold.driver.decl_misses > 0

        warm_disk = open_store(tmp_path)  # re-read from disk: new process
        warm = driver.check_program(source, "bsearch.dml", disk=warm_disk)
        assert warm.verdicts == cold.verdicts
        assert warm.driver.goals_replayed == warm.driver.goals > 0
        assert warm.driver.decl_misses == 0
        assert warm.driver.preloaded > 0

    def test_editing_one_decl_invalidates_only_the_suffix(self, tmp_path):
        disk = open_store(tmp_path)
        driver.check_program(EDIT_BASE, "edit.dml", disk=disk)

        edited = EDIT_BASE.replace("sub(a, 1)", "sub(a, 0)")
        warm = driver.check_program(edited, "edit.dml", disk=open_store(tmp_path))
        # f is untouched (replayed); g was edited (re-solved).
        assert warm.driver.decl_hits == 1
        assert warm.driver.decl_misses == 1
        assert 0 < warm.driver.goals_replayed < warm.driver.goals
        assert all(proved for _, proved, _ in warm.verdicts)

    def test_renamed_variables_still_hit_the_solver_layer(self, tmp_path):
        disk = open_store(tmp_path)
        telemetry_cold = driver.check_program(
            EDIT_BASE, "edit.dml", disk=disk
        ).report.telemetry
        assert telemetry_cold.cache_misses > 0

        # Alpha-renaming changes every decl hash but no goal shape:
        # the decl layer misses, the canonical-key layer answers all.
        renamed = EDIT_BASE.replace("(a)", "(b)").replace("(a,", "(b,") \
                           .replace("sub(a,", "sub(b,")
        warm = driver.check_program(renamed, "edit.dml", disk=open_store(tmp_path))
        assert warm.driver.decl_hits == 0
        assert warm.driver.goals_replayed == 0
        telemetry = warm.report.telemetry
        assert telemetry.queries > 0
        assert telemetry.cache_misses == 0
        assert all(proved for _, proved, _ in warm.verdicts)


class TestFallback:
    def test_corrupted_cache_file_falls_back_to_cold(self, tmp_path):
        disk = open_store(tmp_path)
        driver.check_program(EDIT_BASE, "edit.dml", disk=disk)
        disk.close()
        (tmp_path / DB_FILENAME).write_bytes(b"\x00garbage, not a database")

        broken = open_store(tmp_path)
        assert broken.corrupt
        warm = driver.check_program(EDIT_BASE, "edit.dml", disk=broken)
        assert warm.driver.goals_replayed == 0
        assert warm.driver.preloaded == 0
        assert all(proved for _, proved, _ in warm.verdicts)
        # The cold solve rewrote a valid cache.
        assert open_store(tmp_path).loaded_solver > 0

    def test_corpus_flags_a_corrupt_cache(self, tmp_path):
        (tmp_path / DB_FILENAME).write_bytes(b"garbage")
        report = driver.check_corpus(
            ["bsearch"], jobs=1, cache_dir=str(tmp_path)
        )
        assert report.corrupt_cache
        assert report.all_ok
        assert report.store == "sqlite"

    def test_unknown_executor_rejected(self):
        for executor in ("fiber", "thread"):
            with pytest.raises(ValueError):
                driver.check_corpus(["bsearch"], executor=executor)

    def test_pool_is_capped_at_the_work(self):
        assert driver.check_corpus(["bsearch"], jobs=4).jobs == 1


class TestGuardGoals:
    def test_failed_guard_goal_reported_but_does_not_veto_elimination(self):
        outcome = driver.check_program(GUARDED, "guarded.dml")
        origins = {origin: proved for origin, proved, _ in outcome.verdicts}
        guard_failures = [
            origin
            for origin, proved in origins.items()
            if origin.startswith("guard:") and not proved
        ]
        assert guard_failures  # the unconstrained div keeps its check
        # ...while the proven subscript is still eliminated.
        assert any(site.startswith("sub#") for site in
                   outcome.report.eliminable_sites())
        assert outcome.verdicts == [
            (r.goal.origin, r.proved, r.reason)
            for r in api.check(GUARDED, "guarded.dml").goal_results
        ]

    def test_failed_guard_goal_survives_a_cached_rerun(self, tmp_path):
        disk = open_store(tmp_path)
        cold = driver.check_program(GUARDED, "guarded.dml", disk=disk)
        warm = driver.check_program(
            GUARDED, "guarded.dml", disk=open_store(tmp_path)
        )
        assert warm.verdicts == cold.verdicts
        assert warm.driver.goals_replayed == warm.driver.goals
        assert any(site.startswith("sub#") for site in
                   warm.report.eliminable_sites())
