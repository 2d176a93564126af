"""CI smoke: cold and warm corpus runs produce identical verdicts.

The driver's persisted cache and the interned IR both promise to be
behaviour-invisible: whatever caching, hash-consing, or parallel
scheduling happens, the per-goal verdicts must be byte-identical
between a cold run (empty cache) and a warm replay, at any worker
count.  This script is the cheap end-to-end check of that promise.

``--slice-parity`` checks the goal-preprocessing layer's promise
instead: corpus verdicts with relevancy slicing and subsumption
enabled (the default) are byte-identical to a run with the layer off
(``slice_goals=False``, the ``--no-slice`` CLI flag), sequentially and
in parallel, at the default step budget.

``--fuzz-corpus`` scales the same promise up: a generated corpus
(``repro fuzz --corpus-scale``, ~10x the bundled one, with failing
goals in the mix by construction) driven through ``check-corpus
--dir`` must produce byte-identical verdicts at jobs=1 and jobs=4
(worker processes), with and without a verdict store.

``--serve-executor-parity`` checks the daemon's executor promise
(ISSUE 10): a ``repro serve`` daemon under ``--executor thread`` and
one under ``--executor process`` (pre-forked warm workers) answer
``/check``, buffered ``/check-batch``, and streamed NDJSON
``/check-batch`` with verdicts byte-identical to sequential
``api.check`` over the whole bundled corpus.
"""

from __future__ import annotations

import sys
import tempfile

from repro import driver


def verdicts(report):
    return [(row.program, row.verdicts) for row in report.rows]


def slice_parity() -> int:
    sliced = driver.check_corpus(jobs=1, cache_dir=None)
    plain = driver.check_corpus(jobs=1, cache_dir=None, slice_goals=False)
    sliced_par = driver.check_corpus(jobs=4, cache_dir=None)

    if not sliced.all_ok:
        print("sliced corpus run failed", file=sys.stderr)
        return 1
    if verdicts(plain) != verdicts(sliced):
        print("--no-slice verdicts diverged from sliced", file=sys.stderr)
        return 1
    if verdicts(sliced_par) != verdicts(sliced):
        print("parallel sliced verdicts diverged", file=sys.stderr)
        return 1
    if sliced.sliced_queries == 0 or sliced.atoms_after >= sliced.atoms_before:
        print("slicing layer did not engage", file=sys.stderr)
        return 1
    print(
        f"slice parity ok: {sliced.goals} goals, atoms "
        f"{sliced.atoms_before} -> {sliced.atoms_after}, "
        f"{sliced.subsumption_hits} subsumption hit(s), verdicts "
        f"identical with --no-slice"
    )
    return 0


def fuzz_corpus_parity() -> int:
    from repro.fuzz import emit_corpus

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-corpus") as tmp:
        corpus = f"{tmp}/corpus"
        paths = emit_corpus(corpus, 160, seed=0)
        seq = driver.check_corpus(jobs=1, cache_dir=None, source_dir=corpus)
        par = driver.check_corpus(jobs=4, cache_dir=None, source_dir=corpus)
        stored = driver.check_corpus(
            jobs=4, cache_dir=f"{tmp}/cache", source_dir=corpus
        )

    if len(seq.rows) != len(paths):
        print(
            f"driver checked {len(seq.rows)} of {len(paths)} generated "
            "programs",
            file=sys.stderr,
        )
        return 1
    if verdicts(par) != verdicts(seq):
        print("jobs=4 verdicts diverged from jobs=1 on the generated "
              "corpus", file=sys.stderr)
        return 1
    if verdicts(stored) != verdicts(seq):
        print("jobs=4 verdicts with a store diverged on the generated "
              "corpus", file=sys.stderr)
        return 1
    failing = sum(1 for row in seq.rows if not row.ok)
    if failing == 0:
        print(
            "generated corpus exercised no failing goals — the "
            "generator's non-eliminable sites are gone",
            file=sys.stderr,
        )
        return 1
    print(
        f"fuzz-corpus parity ok: {len(seq.rows)} generated programs, "
        f"{seq.goals} goals ({failing} program(s) with unproved sites "
        "by construction), verdicts identical at jobs=1 / jobs=4 / "
        "jobs=4 with a store"
    )
    return 0


def serve_executor_parity() -> int:
    from repro import api, programs
    from repro.server.app import ServeDaemon
    from repro.server.client import ServeClient
    from repro.server.sessions import CheckService, ServerConfig
    from repro.server.workers import fork_available

    names = programs.available()
    reference = {}
    for name in names:
        report = api.check(programs.load_source(name), f"{name}.dml")
        reference[name] = [
            [r.goal.origin, r.proved, r.reason] for r in report.goal_results
        ]
    payloads = [
        ServeClient.request_payload(programs.load_source(name), f"{name}.dml")
        for name in names
    ]

    executors = ["thread"]
    if fork_available():
        executors.append("process")
    else:
        print("fork unavailable: process executor skipped", file=sys.stderr)

    for executor in executors:
        service = CheckService(
            ServerConfig(cache_dir=None, executor=executor, jobs=2)
        )
        daemon = ServeDaemon(service, port=0).start_in_thread()
        try:
            client = ServeClient(daemon.port)
            for name in names:
                answer = client.check(
                    programs.load_source(name), f"{name}.dml"
                )
                if answer["verdicts"] != reference[name]:
                    print(
                        f"{executor} /check verdict drift on {name}",
                        file=sys.stderr,
                    )
                    return 1
            for label, stream in (("buffered", False), ("streamed", True)):
                results = client.check_batch(payloads, stream=stream)
                for name, result in zip(names, results):
                    if result["verdicts"] != reference[name]:
                        print(
                            f"{executor} {label} /check-batch verdict "
                            f"drift on {name}",
                            file=sys.stderr,
                        )
                        return 1
            stats = client.stats()
            if stats["executor"] != executor:
                print(
                    f"stats reports executor {stats['executor']!r}, "
                    f"expected {executor!r}",
                    file=sys.stderr,
                )
                return 1
            if stats["respawns"] != 0:
                print(
                    f"{executor} daemon respawned {stats['respawns']} "
                    "worker(s) during a clean corpus run",
                    file=sys.stderr,
                )
                return 1
        finally:
            daemon.stop()

    print(
        f"serve executor parity ok: {len(names)} programs x "
        f"{{{', '.join(executors)}}}, /check + buffered + streamed "
        "batches all match api.check"
    )
    return 0


def main() -> int:
    if "--slice-parity" in sys.argv[1:]:
        return slice_parity()
    if "--fuzz-corpus" in sys.argv[1:]:
        return fuzz_corpus_parity()
    if "--serve-executor-parity" in sys.argv[1:]:
        return serve_executor_parity()
    with tempfile.TemporaryDirectory(prefix="repro-parity") as tmp:
        cold = driver.check_corpus(jobs=1, cache_dir=tmp, clear=True)
        warm = driver.check_corpus(jobs=1, cache_dir=tmp)
        cold_par = driver.check_corpus(jobs=4, cache_dir=None)

    if not cold.all_ok:
        print("cold corpus run failed", file=sys.stderr)
        return 1
    if verdicts(warm) != verdicts(cold):
        print("warm verdicts diverged from cold", file=sys.stderr)
        return 1
    if verdicts(cold_par) != verdicts(cold):
        print("parallel verdicts diverged from sequential", file=sys.stderr)
        return 1
    if warm.hit_rate < 0.90:
        print(f"warm cache hit rate {warm.hit_rate:.2f} < 0.90", file=sys.stderr)
        return 1
    print(
        f"parity ok: {cold.goals} goals, warm hit rate {warm.hit_rate:.0%}, "
        f"jobs 1 == jobs 4"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
