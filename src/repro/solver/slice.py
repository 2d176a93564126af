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

   Goals in one declaration share their hypotheses, so the partition
   is built in two steps.  :func:`partition` groups the hypothesis
   atoms of a case once, and every goal with those hypotheses reuses
   that :class:`Partition`.  :meth:`Partition.extend` then adds one
   goal's negated-conclusion atoms: it merges only the hypothesis
   groups those atoms touch and reuses the rest as they are.  The
   result equals :func:`split_components` on the whole case.  The
   partitions live in the per-check hypothesis table of
   :func:`repro.solver.simplify.hypothesis_context`, reached through
   the check's :class:`~repro.indices.terms.EvarStore`.  They never hang
   off :class:`SliceContext`, which a daemon keeps for its whole life.

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

import itertools
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



class Partition:
    """The variable-connected groups of a hypothesis atom prefix.

    ``groups`` are in order of their first atom, each keeping its atoms
    in input order; ``positions`` holds the matching input positions
    (needed only when :meth:`extend` merges groups); ``var_group`` maps
    every variable to the index of its group.  ``refuted`` — some
    ground atom is trivially false.  Immutable once built, so one
    partition serves every goal that shares the prefix.
    """

    __slots__ = ("refuted", "groups", "positions", "var_group")

    def __init__(
        self,
        refuted: bool,
        groups: list[list[Atom]],
        positions: list[list[int]],
        var_group: dict[LinVar, int],
    ) -> None:
        self.refuted = refuted
        self.groups = groups
        self.positions = positions
        self.var_group = var_group

    def extend(self, concl: Sequence[Atom]) -> SlicedSystem:
        """The decomposition of ``prefix + concl``, seeded by the
        variables of ``concl`` (the negated conclusion's atoms).

        Only the groups the conclusion atoms touch are merged (a
        union-find over group indices); every untouched group is reused
        as it is.  The result equals
        ``split_components(prefix + concl, vars(concl))``.
        """
        if self.refuted:
            return SlicedSystem(True, [], 0)
        var_group = self.var_group
        base = len(self.groups)
        # Union-find nodes: hypothesis group g is node g, conclusion
        # atom i is node base + i.
        parent: dict[int, int] = {}

        def find(node: int) -> int:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:
                parent[node], node = root, parent[node]
            return root

        fresh_vars: dict[LinVar, int] = {}
        seeded: list[tuple[int, Atom]] = []
        for i, atom in enumerate(concl):
            coeffs = atom.lhs.coeffs
            if not coeffs:
                if atom.is_trivially_false():
                    return SlicedSystem(True, [], 0)
                continue  # trivially true ground atom
            node = base + i
            parent[node] = node
            for var, _ in coeffs:
                other = var_group.get(var)
                if other is None:
                    other = fresh_vars.get(var)
                    if other is None:
                        fresh_vars[var] = node
                        continue
                elif other not in parent:
                    parent[other] = other
                root_a, root_b = find(node), find(other)
                if root_a != root_b:
                    parent[root_a] = root_b
            seeded.append((node, atom))

        # Conclusion-connected components in order of first atom: those
        # holding hypothesis groups first (by their lowest group, the
        # groups being in first-atom order), then conclusion-only ones.
        merged: dict[int, tuple[list[int], list[Atom]]] = {}
        for group in sorted(node for node in parent if node < base):
            root = find(group)
            if root in merged:
                merged[root][0].append(group)
            else:
                merged[root] = ([group], [])
        for node, atom in seeded:
            root = find(node)
            if root not in merged:
                merged[root] = ([], [])
            merged[root][1].append(atom)

        components: list[list[Atom]] = []
        for groups, tail in merged.values():
            if not groups:
                components.append(tail)
            elif len(groups) == 1:
                components.append(self.groups[groups[0]] + tail)
            else:
                ordered = sorted(itertools.chain.from_iterable(
                    zip(self.positions[g], self.groups[g]) for g in groups
                ))
                components.append([atom for _, atom in ordered] + tail)
        relevant = sum(len(component) for component in components)
        components += [
            group for g, group in enumerate(self.groups) if g not in parent
        ]
        return SlicedSystem(False, components, relevant)


def partition(atoms: Sequence[Atom]) -> Partition:
    """Partition ``atoms`` into variable-connected groups (union-find
    over each atom's variable set).

    Ground atoms join no group: a trivially false one refutes the whole
    system, a trivially true one is dropped.
    """
    parent: dict[LinVar, LinVar] = {}

    def find(var: LinVar) -> LinVar:
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:
            parent[var], var = root, parent[var]
        return root

    var_atoms: list[tuple[int, Atom, LinVar]] = []
    for position, atom in enumerate(atoms):
        coeffs = atom.lhs.coeffs
        if not coeffs:
            if atom.is_trivially_false():
                return Partition(True, [], [], {})
            continue  # trivially true ground atom
        first = coeffs[0][0]
        if first not in parent:
            parent[first] = first
        for var, _ in coeffs[1:]:
            if var not in parent:
                parent[var] = var
            root_a, root_b = find(first), find(var)
            if root_a != root_b:
                parent[root_a] = root_b
        var_atoms.append((position, atom, first))

    index: dict[LinVar, int] = {}
    groups: list[list[Atom]] = []
    positions: list[list[int]] = []
    for position, atom, var in var_atoms:
        root = find(var)
        g = index.get(root)
        if g is None:
            g = index[root] = len(groups)
            groups.append([])
            positions.append([])
        groups[g].append(atom)
        positions[g].append(position)
    var_group = {var: index[find(var)] for var in parent}
    return Partition(False, groups, positions, var_group)


def split_components(
    atoms: Sequence[Atom], seed_vars: set[LinVar]
) -> SlicedSystem:
    """Partition ``atoms`` into variable-connected components.

    Components containing any of ``seed_vars`` (the conclusion's
    variables) are ordered first; within that split, components appear
    in order of their first atom and keep their atoms in input order,
    so the decomposition is deterministic.  The whole-system view of
    :func:`partition`; goals take the incremental route instead
    (:meth:`Partition.extend` on a shared hypothesis partition).
    """
    part = partition(atoms)
    if part.refuted:
        return SlicedSystem(True, [], 0)
    seeds = {part.var_group[var] for var in seed_vars if var in part.var_group}
    components = [group for g, group in enumerate(part.groups) if g in seeds]
    relevant = sum(len(component) for component in components)
    components += [
        group for g, group in enumerate(part.groups) if g not in seeds
    ]
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
        Goals skip this entry point: they keep one :class:`Partition`
        per hypothesis case and call :meth:`refute` directly.
        """
        sliced = partition(atoms[:n_hyp]).extend(atoms[n_hyp:])
        return self.refute(backend, sliced, len(atoms))

    def refute(
        self, backend: Backend, sliced: SlicedSystem, n_atoms: int
    ) -> bool:
        """Refute one decomposed goal case of ``n_atoms`` atoms: subsume
        or query its components, conclusion-connected ones first."""
        if self.telemetry is not None:
            with self._lock:
                self.telemetry.sliced_queries += 1
                self.telemetry.atoms_before += n_atoms
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
