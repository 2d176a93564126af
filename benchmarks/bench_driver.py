"""The incrementally-cached checking driver on the full corpus.

Three claims, each load-bearing for running the checker as a batch
service:

* **parity** — the driver's verdicts are byte-identical to the
  sequential ``api.check`` path, for every bundled program, at any
  worker count;
* **incrementality** — a warm re-run against the persisted
  ``.repro-cache`` answers at least 90% of its solver queries from the
  cache (in practice: all of them, because unchanged declarations
  replay without querying at all) and re-solves nothing;
* **cache payoff** — the table's cold→warm wall-clock ratio.  The
  cold parallel run may query the backend more than the sequential
  one: each worker process starts from the persisted verdicts only,
  while the sequential run shares one in-memory cache across programs.
"""

from __future__ import annotations

from repro import api, driver, programs
from repro.bench.harness import driver_table
from repro.bench.tables import render_driver

_CORPUS = programs.available()


def test_driver_matches_sequential_check(tmp_path):
    sequential = {}
    for program in _CORPUS:
        report = api.check(programs.load_source(program), f"{program}.dml")
        sequential[program] = [
            (r.goal.origin, r.proved, r.reason) for r in report.goal_results
        ]
    corpus = driver.check_corpus(jobs=4, cache_dir=str(tmp_path))
    assert corpus.all_ok
    for row in corpus.rows:
        assert row.verdicts == sequential[row.program], row.program


def test_warm_rerun_is_cached(tmp_path):
    cold = driver.check_corpus(jobs=4, cache_dir=str(tmp_path), clear=True)
    warm = driver.check_corpus(jobs=4, cache_dir=str(tmp_path))
    assert warm.all_ok
    # Verdicts survive the round-trip through the persisted cache.
    assert [r.verdicts for r in warm.rows] == [r.verdicts for r in cold.rows]
    # Every unchanged declaration replays without a backend query...
    assert warm.goals_replayed == warm.goals > 0
    # ...and what still queries (reachability probes) hits the cache.
    assert warm.queries > 0
    assert warm.hit_rate >= 0.90
    assert warm.preloaded > 0


def test_driver_table_prints():
    rows = driver_table(jobs=4)
    print()
    print(render_driver(rows))
    by_label = {row.label: row for row in rows}
    warm = by_label["parallel warm"]
    assert warm.replayed == warm.goals
    # The acceptance bar is >= 90% of warm queries answered from the
    # persisted cache; in practice it is ~100%, but exact equality is
    # not required.
    assert warm.queries > 0
    assert warm.cache_hits / warm.queries >= 0.90
