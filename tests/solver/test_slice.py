"""Property tests for the goal-preprocessing layer.

The contract (``repro/solver/slice.py`` module docstring, enforced
here and by the CI ``slice-parity`` job): at the default step budget,
relevancy slicing and refuted-core subsumption never change a
verdict.  The fuzz half of the file reuses the 600 boxed random
systems of ``test_differential.py`` and checks that routing a system
through :class:`SliceContext` — which decomposes it into
variable-connected components and queries them separately — returns
exactly the verdict of the monolithic backend call, backend by
backend, and that every verdict produced *with* cross-system
subsumption state is still confirmed by omega.  The unit half pins the
union-find decomposition, the budget charge per component probe, and
the cache-stats plumbing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, programs
from repro.indices.linear import Atom, LinComb
from repro.solver import backends, portfolio
from repro.solver.backends import Backend, get_backend
from repro.solver.budget import Budget, BudgetExhausted, use_budget
from repro.solver.slice import SliceContext, partition, split_components
from tests.solver.test_differential import SYSTEMS, omega_verdict


def lc(const=0, **coeffs):
    return LinComb(tuple(coeffs.items()), const)


def _query(context: SliceContext, backend: Backend, atoms) -> bool:
    """Route one system through the slicing layer, treating the last
    atom as the (negated) conclusion — the shape prove_goal produces."""
    return context.query(backend, atoms, len(atoms) - 1)


# ---------------------------------------------------------------------------
# Fuzz: verdict preservation on the differential corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fourier", "interval", "simplex", "omega"])
def test_sliced_query_matches_monolithic_backend(name):
    """Component decomposition is exact: a fresh SliceContext (no
    cross-system subsumption state) must reproduce the plain backend
    verdict on every system."""
    backend = get_backend(name)
    disagreements = []
    for i, atoms in enumerate(SYSTEMS):
        direct = backend.unsat(atoms)
        sliced = _query(SliceContext(), backend, atoms)
        if direct != sliced:
            disagreements.append((i, direct, sliced))
    assert not disagreements, (
        f"{name}: slicing changed {len(disagreements)} verdict(s), "
        f"first at system #{disagreements[0][0]}"
    )


def test_shared_context_verdicts_stay_sound():
    """With one SliceContext across all 600 systems, subsumption can
    answer from cores recorded by *other* systems.  Every True verdict
    must still be a genuine integer refutation (omega confirms), and
    subsumption must actually fire for the test to mean anything."""
    backend = get_backend("fourier")
    telemetry = portfolio.SolverTelemetry()
    context = SliceContext(telemetry)
    for i, atoms in enumerate(SYSTEMS):
        if _query(context, backend, atoms):
            confirmed = omega_verdict(atoms)
            assert confirmed is not False, (
                f"sliced fourier refuted system #{i} but omega found an "
                f"integer model: {[str(a) for a in atoms]}"
            )
    assert telemetry.subsumption_hits > 0
    assert telemetry.sliced_queries == len(SYSTEMS)
    assert telemetry.atoms_after <= telemetry.atoms_before


# ---------------------------------------------------------------------------
# Unit: the union-find decomposition
# ---------------------------------------------------------------------------


class TestSplitComponents:
    def test_disjoint_variables_split(self):
        atoms = [
            Atom(">=", lc(x=1)),          # x >= 0
            Atom(">=", lc(-1, y=1)),      # y - 1 >= 0
            Atom(">=", lc(x=1, z=1)),     # x + z >= 0 (joins x's group)
        ]
        sliced = split_components(atoms, {"x"})
        assert not sliced.refuted
        assert [[str(a.lhs) for a in c] for c in sliced.components] == [
            ["x", "x + z"],
            ["y - 1"],
        ]
        assert sliced.relevant_atoms == 2

    def test_seed_component_ordered_first(self):
        atoms = [Atom(">=", lc(y=1)), Atom(">=", lc(x=1))]
        sliced = split_components(atoms, {"x"})
        assert [str(c[0].lhs) for c in sliced.components] == ["x", "y"]
        assert sliced.relevant_atoms == 1

    def test_ground_false_atom_refutes(self):
        sliced = split_components([Atom(">=", lc(-1)), Atom(">=", lc(x=1))], set())
        assert sliced.refuted and sliced.components == []

    def test_ground_true_atom_dropped(self):
        sliced = split_components([Atom(">=", lc(3)), Atom(">=", lc(x=1))], set())
        assert not sliced.refuted
        assert [[str(a.lhs) for a in c] for c in sliced.components] == [["x"]]

    def test_equality_edges_connect(self):
        # x = y chains the two single-variable atoms into one component.
        atoms = [
            Atom(">=", lc(x=1)),
            Atom("=", lc(x=1, y=-1)),
            Atom(">=", lc(y=1)),
        ]
        sliced = split_components(atoms, {"y"})
        assert len(sliced.components) == 1
        assert sliced.relevant_atoms == 3


# ---------------------------------------------------------------------------
# Property: partition the hypothesis prefix, then extend
# ---------------------------------------------------------------------------

_atoms = st.builds(
    lambda rel, const, coeffs: Atom(rel, lc(const, **coeffs)),
    st.sampled_from([">=", "="]),
    st.integers(-2, 2),
    # Empty coefficient maps make ground atoms, true or false by const.
    st.dictionaries(
        st.sampled_from("abcdefgh"), st.integers(-2, 2).filter(bool),
        max_size=3,
    ),
)


def _reference_components(atoms, seed_vars):
    """Connected components grown to a fixpoint over atom indices —
    independent of the union-find under test.  ``None`` for a ground
    false atom; otherwise seed-connected components first, each group
    of the two in first-atom order, atoms in input order."""
    if any(not a.lhs.coeffs and a.is_trivially_false() for a in atoms):
        return None
    pending = [i for i, atom in enumerate(atoms) if atom.lhs.coeffs]
    components = []
    while pending:
        members = {pending[0]}
        while True:
            reach = set().union(*(atoms[i].variables() for i in members))
            grown = {i for i in pending if atoms[i].variables() & reach}
            if grown == members:
                break
            members = grown
        components.append(sorted(members))
        pending = [i for i in pending if i not in members]
    seeded = [
        c for c in components
        if any(atoms[i].variables() & seed_vars for i in c)
    ]
    ordered = seeded + [c for c in components if c not in seeded]
    return [[atoms[i] for i in c] for c in ordered]


@settings(max_examples=300, deadline=None)
@given(st.lists(_atoms, max_size=12), st.data())
def test_extending_a_prefix_partition_matches_split_components(atoms, data):
    split = data.draw(st.integers(0, len(atoms)))
    hyps, concl = atoms[:split], atoms[split:]
    seed_vars = set()
    for atom in concl:
        seed_vars |= atom.variables()

    whole = split_components(atoms, seed_vars)
    extended = partition(hyps).extend(concl)
    assert extended.refuted == whole.refuted
    assert extended.components == whole.components
    assert extended.relevant_atoms == whole.relevant_atoms

    reference = _reference_components(atoms, seed_vars)
    if reference is None:
        assert whole.refuted
    else:
        assert not whole.refuted
        assert whole.components == reference


def test_cold_corpus_work_counters_are_pinned():
    """The deterministic work of a cold check of the 14 paper programs,
    summed: goals, DNF cases, backend queries and every slicing
    counter.  Sharing hypothesis-side work across goals changes how
    fast these are produced, never how many."""
    totals = dict.fromkeys(
        ["goals", "cases", "queries", "unsat", "sliced_queries",
         "atoms_before", "atoms_after", "subsumption_hits"], 0,
    )
    for name in programs.available():
        telemetry = portfolio.SolverTelemetry()
        report = api.check(
            programs.load_source(name), f"{name}.dml", cache=None,
            telemetry=telemetry,
        )
        totals["goals"] += report.stats.goals
        totals["cases"] += report.stats.cases
        for field in list(totals)[2:]:
            totals[field] += getattr(telemetry, field)
    assert totals == {
        "goals": 505, "cases": 816, "queries": 539, "unsat": 366,
        "sliced_queries": 929, "atoms_before": 9242, "atoms_after": 6170,
        "subsumption_hits": 378,
    }


# ---------------------------------------------------------------------------
# Unit: subsumption and budget accounting
# ---------------------------------------------------------------------------


def counting_backend(answer: bool):
    calls = []

    def unsat(atoms):
        calls.append(list(atoms))
        return answer

    return Backend("counting-test", unsat), calls


def test_subsumed_component_skips_the_backend():
    unsat_atoms = [Atom(">=", lc(-1, x=1)), Atom(">=", lc(0, x=-1))]
    backend, calls = counting_backend(True)
    context = SliceContext(portfolio.SolverTelemetry())
    assert _query(context, backend, unsat_atoms)
    assert len(calls) == 1
    # A superset of the recorded core refutes with no backend call.
    superset = unsat_atoms + [Atom(">=", lc(x=1, w=1))]
    assert _query(context, backend, superset)
    assert len(calls) == 1
    assert context.telemetry.subsumption_hits == 1


def test_each_component_probe_charges_a_budget_step():
    # Three disjoint single-variable atoms -> three component probes.
    atoms = [Atom(">=", lc(x=1)), Atom(">=", lc(y=1)), Atom(">=", lc(z=1))]
    backend, _ = counting_backend(False)
    budget = Budget(max_steps=100)
    with use_budget(budget):
        assert not _query(SliceContext(), backend, atoms)
    assert budget.remaining == 97

    with use_budget(Budget(max_steps=2)):
        with pytest.raises(BudgetExhausted):
            _query(SliceContext(), backend, atoms)


def test_subsumption_probe_still_charges_when_it_hits():
    unsat_atoms = [Atom(">=", lc(-1, x=1)), Atom(">=", lc(0, x=-1))]
    backend, _ = counting_backend(True)
    context = SliceContext()
    assert _query(context, backend, unsat_atoms)
    budget = Budget(max_steps=10)
    with use_budget(budget):
        assert _query(context, backend, unsat_atoms)
    assert budget.remaining == 9


# ---------------------------------------------------------------------------
# Unit: cache-stats plumbing
# ---------------------------------------------------------------------------


def test_canonical_key_stats_reports_evictions():
    hits, misses, evictions = portfolio.canonical_key_stats()
    assert hits >= 0 and misses >= 0
    assert 0 <= evictions <= misses


def test_registry_has_no_leftover_test_backends():
    assert "counting-test" not in backends._REGISTRY
