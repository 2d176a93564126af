"""Goal preprocessing: relevancy slicing and subsumption.

:func:`repro.solver.simplify.prove_goal` historically shipped every
goal case to the backend as one monolithic conjunction — the full
hypothesis context plus the negated conclusion — even though most
hypotheses constrain variables the conclusion never mentions.  This
module sits between the case splitter and the (instrumented) backend,
so each case goes slice → subsume → backend:

1. **Relevancy slicing** (:func:`split_components`): the atoms of a
   case are partitioned into connected components of the variable
   dependency graph (union-find over each atom's variable set).  A
   conjunction over disjoint variable sets is unsatisfiable iff *some*
   component is — integer variable domains are non-empty, so a
   satisfying assignment for each component extends to the whole
   system — which makes querying the backend per component exact, not
   heuristic.  Components connected to the conclusion are queried
   first: they are the ones the negated conclusion can contradict, so
   the common case short-circuits after one small query.  Smaller atom
   sets also mean smaller canonical keys, so structurally identical
   sliced goals from different declarations collapse to one entry in
   the LRU *and* the driver's persistent cache.

2. **Subsumption** (:class:`SliceContext`): every refuted component is
   remembered as a *core* (a set of atoms shown jointly
   unsatisfiable).  Any later component whose atom set is a syntactic
   superset of a recorded core is unsatisfiable by monotonicity of
   conjunction — no backend call needed.  The check is purely
   syntactic on atoms, so it is sound across goals and declarations
   even though ``$``-prefixed definition variables are scoped per
   goal: an unsatisfiable atom set stays unsatisfiable under any
   reading of its free variables.

3. **Backend**: each remaining component goes to ``backend.unsat``.

Invariant (enforced by ``tests/solver/test_slice.py`` and the CI
``slice-parity`` job): at the default 2,000,000-step budget the layer
never changes a verdict — corpus verdicts are byte-identical with the
layer on and off (``--no-slice``).  Slicing is exact by the component
argument above; subsumption only converts would-be refutations the
backend *could* re-derive into cache hits.  Under a smaller
``--budget`` the layer changes which goals run out of steps
(with ``SolverLimits(max_steps=60)`` the corpus keeps 27 checks
sliced and 39 with ``--no-slice``).  That never affects soundness: a
goal that runs out keeps its run-time check.

Budget accounting stays honest: the subsumption probe for each
component charges one ambient :class:`~repro.solver.budget.Budget`
step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.indices.linear import Atom, LinVar
from repro.solver.backends import Backend
from repro.solver.budget import current_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solver.portfolio import SolverTelemetry


@dataclass
class SlicedSystem:
    """The component decomposition of one goal case.

    ``refuted`` — a ground atom was trivially false (the whole case is
    unsatisfiable without consulting any backend).  ``components`` are
    the variable-connected atom groups, conclusion-connected groups
    first (each group in input atom order).  ``relevant_atoms`` is the
    size of the conclusion-connected slice — what classic relevancy
    slicing would keep — and feeds the atoms-after-slice telemetry.
    """

    refuted: bool
    components: list[list[Atom]]
    relevant_atoms: int


def split_components(
    atoms: Sequence[Atom], seed_vars: set[LinVar]
) -> SlicedSystem:
    """Partition ``atoms`` into variable-connected components.

    Ground atoms participate in no component: a trivially false one
    refutes the whole system (``refuted=True``), a trivially true one
    is dropped.  Components containing any of ``seed_vars`` (the
    conclusion's variables) are ordered first; within that split,
    components appear in order of their first atom and keep their
    atoms in input order, so the decomposition is deterministic.
    """
    parent: dict[LinVar, LinVar] = {}

    def find(var: LinVar) -> LinVar:
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:
            parent[var], var = root, parent[var]
        return root

    var_atoms: list[tuple[Atom, LinVar]] = []
    for atom in atoms:
        avars = atom.lhs.variables()
        if not avars:
            if atom.is_trivially_false():
                return SlicedSystem(True, [], 0)
            continue  # trivially true ground atom
        first: LinVar | None = None
        for var in avars:
            if var not in parent:
                parent[var] = var
            if first is None:
                first = var
            else:
                root_a, root_b = find(first), find(var)
                if root_a != root_b:
                    parent[root_a] = root_b
        assert first is not None
        var_atoms.append((atom, first))

    groups: dict[LinVar, list[Atom]] = {}
    order: list[LinVar] = []
    for atom, var in var_atoms:
        root = find(var)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(atom)

    seed_roots = {find(var) for var in seed_vars if var in parent}
    components = [groups[root] for root in order if root in seed_roots]
    relevant = sum(len(component) for component in components)
    components += [groups[root] for root in order if root not in seed_roots]
    return SlicedSystem(False, components, relevant)


class SliceContext:
    """Per-run shared state for the goal-preprocessing layer.

    One instance is shared by every goal of a check (and by every
    worker thread of the parallel driver — all mutation happens under
    one lock, and the state is only ever *extended*, so concurrent
    readers can at worst miss a subsumption, never change a verdict).
    Process workers build their own instance.
    """

    #: Caps keep the shared dictionaries O(run size): recording stops
    #: silently once reached — only an optimization is lost.
    MAX_CORES = 1024
    MAX_CORE_ATOMS = 16

    def __init__(self, telemetry: "SolverTelemetry | None" = None) -> None:
        self.telemetry = telemetry
        self._lock = threading.Lock()
        #: Refuted cores anchored at their first atom: a candidate
        #: superset must contain every core atom, in particular the
        #: anchor, so lookup only scans cores anchored at the
        #: candidate's own atoms.
        self._cores: dict[Atom, list[frozenset[Atom]]] = {}
        self._core_count = 0

    # -- the main entry point -----------------------------------------

    def query(
        self, backend: Backend, atoms: Sequence[Atom], n_hyp: int
    ) -> bool:
        """Refute one goal case (``True`` iff unsatisfiable).

        ``atoms[:n_hyp]`` originate from the hypotheses, the rest from
        the negated conclusion — the split drives the relevancy seed.
        """
        seed_vars: set[LinVar] = set()
        for atom in atoms[n_hyp:]:
            seed_vars |= atom.lhs.variables()
        sliced = split_components(atoms, seed_vars)
        if self.telemetry is not None:
            with self._lock:
                self.telemetry.sliced_queries += 1
                self.telemetry.atoms_before += len(atoms)
                self.telemetry.atoms_after += sliced.relevant_atoms
        if sliced.refuted:
            return True

        budget = current_budget()
        for component in sliced.components:
            if budget is not None:
                budget.spend()  # the subsumption probe is real work
            component_set = frozenset(component)
            if self._subsumed(component, component_set):
                if self.telemetry is not None:
                    with self._lock:
                        self.telemetry.subsumption_hits += 1
                return True
            if backend.unsat(component):
                self._record_core(component, component_set)
                return True
        return False

    # -- subsumption ---------------------------------------------------

    def _subsumed(
        self, component: list[Atom], component_set: frozenset[Atom]
    ) -> bool:
        with self._lock:
            for atom in component:
                for core in self._cores.get(atom, ()):
                    if core <= component_set:
                        return True
        return False

    def _record_core(
        self, component: list[Atom], component_set: frozenset[Atom]
    ) -> None:
        if len(component_set) > self.MAX_CORE_ATOMS:
            return
        with self._lock:
            if self._core_count >= self.MAX_CORES:
                return
            anchored = self._cores.setdefault(component[0], [])
            if component_set not in anchored:
                anchored.append(component_set)
                self._core_count += 1
