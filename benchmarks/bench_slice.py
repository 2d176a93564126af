"""The goal-preprocessing layer on the full corpus.

Relevancy slicing and refuted-core subsumption
(``repro/solver/slice.py``) exist to make goals *smaller* and *more
alike* before the solver sees them.  This module
pins down three claims with numbers:

* **parity** — corpus verdicts are identical with the layer on and off
  (``slice_goals=False``), goal by goal, reason by reason;
* **shrinkage** — the per-case atom count drops substantially once
  hypothesis atoms disconnected from the conclusion are sliced away:
  the median sliced case carries well under half the original atoms;
* **payoff** — on a cold sequential corpus run the layer produces
  subsumption refutations, and the wall clock does not regress
  against the unsliced run.

Numbers for EXPERIMENTS.md come from ``test_slice_table_prints`` (and
the slicing section of ``python -m repro.bench``).
"""

from __future__ import annotations

import statistics

from repro import api, programs
from repro.bench.harness import slice_table
from repro.bench.tables import render_slice
from repro.solver import simplify
from repro.solver.slice import split_components


def _goal_case_sizes() -> tuple[list[int], list[int]]:
    """(atoms per case, conclusion-connected atoms per case) over every
    goal case of every corpus program."""
    before: list[int] = []
    after: list[int] = []
    for name in programs.available():
        report = api.check_corpus(name)
        assert report.all_proved, f"{name} failed to type-check"
        for result in report.goal_results:
            goal = result.goal
            for atoms, n_hyp in simplify.goal_cases(goal.hyps, goal.concl):
                seed_vars = set()
                for atom in atoms[n_hyp:]:
                    seed_vars |= atom.lhs.variables()
                sliced = split_components(atoms, seed_vars)
                before.append(len(atoms))
                after.append(sliced.relevant_atoms)
    return before, after


def test_corpus_verdicts_identical_with_and_without_slicing():
    for name in programs.available():
        sliced = api.check_corpus(name)
        plain = api.check_corpus(name, slice_goals=False)
        assert [
            (r.goal.origin, r.proved, r.reason) for r in sliced.goal_results
        ] == [
            (r.goal.origin, r.proved, r.reason) for r in plain.goal_results
        ], f"slicing changed a verdict in {name}"


def test_atoms_per_goal_distribution_shrinks():
    before, after = _goal_case_sizes()
    assert before, "corpus produced no goal cases"
    med_before = statistics.median(before)
    med_after = statistics.median(after)
    # The bundled corpus measures ~8 -> ~3 atoms at the median; the
    # floor just claims a real drop with headroom for corpus growth.
    assert med_after <= 0.6 * med_before, (
        f"median atoms/case {med_before} -> {med_after}: slicing lost its bite"
    )
    # Slicing never *adds* atoms to a case.
    assert all(a <= b for a, b in zip(after, before))
    print(
        f"\natoms per goal case over {len(before)} cases: "
        f"median {med_before} -> {med_after}, "
        f"mean {statistics.fmean(before):.1f} -> {statistics.fmean(after):.1f}, "
        f"max {max(before)} -> {max(after)}"
    )


def test_cold_corpus_exercises_subsumption():
    from repro import driver
    from repro.solver import portfolio

    api.reset_prelude_cache()
    portfolio.reset_global_state()
    report = driver.check_corpus(jobs=1, cache_dir=None, backend="fourier")
    assert report.all_ok
    assert report.sliced_queries > 0
    assert report.atoms_after < report.atoms_before
    assert report.subsumption_hits > 0


def test_slice_table_prints():
    print()
    print(render_slice(slice_table()))
