"""Constraint simplification and goal proving (Sections 3.1-3.2).

This module bridges the constraint *language* (quantified implications
over boolean index terms) and the decision *backends* (conjunctions of
linear atoms):

1. :func:`extract_goals` flattens a constraint tree into a list of
   :class:`Goal` — each a universally quantified implication
   ``forall vars. hyps ==> concl`` — substituting fresh existential
   variables for ``exists`` binders.
2. :func:`solve_evars` eliminates existential variables by
   scope-checked equational solving, the step Section 3.1 reports as
   "crucial in practice".
3. :func:`prove_goal` negates the conclusion, eliminates ``div``,
   ``mod``, ``min``, ``max``, ``abs`` and ``sgn`` via fresh variables
   with defining constraints, splits disjunctions (and ``<>``) into
   cases, and asks a backend to refute every case.

Everything fails *closed*: any goal that cannot be put in linear form
or whose cases cannot all be refuted is reported unproved, and the
corresponding run-time check is kept.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solver.portfolio import SolverCache, SolverTelemetry

from repro.indices import terms
from repro.indices.constraints import (
    CAnd,
    CExists,
    CForall,
    CImpl,
    CProp,
    CTrue,
    Constraint,
)
from repro.indices.linear import (
    Atom,
    LinComb,
    NonLinearIndex,
    UnsupportedIndex,
    atoms_of_cmp,
    linearize,
)
from repro.indices.sorts import Sort
from repro.indices.terms import (
    And,
    BConst,
    BinOp,
    Cmp,
    EVar,
    EvarStore,
    IConst,
    IVar,
    IndexTerm,
    Not,
    Or,
    UnOp,
)
from repro.lang.source import DUMMY_SPAN, Span
from repro.solver.backends import Backend, get_backend
from repro.solver.budget import (
    DEFAULT_LIMITS,
    Budget,
    BudgetExhausted,
    SolverLimits,
    current_budget,
    use_budget,
)
from repro.solver.slice import Partition, SliceContext, partition


@dataclass
class Goal:
    """``forall rigid. hyps ==> concl`` with provenance."""

    rigid: dict[str, Sort]
    hyps: list[IndexTerm]
    concl: IndexTerm
    origin: str = ""
    span: Span = DUMMY_SPAN

    def __str__(self) -> str:
        quant = "".join(
            f"forall {name}:{sort}. " for name, sort in self.rigid.items()
        )
        if self.hyps:
            hyp_text = " /\\ ".join(str(h) for h in self.hyps)
            return f"{quant}({hyp_text}) ==> {self.concl}"
        return f"{quant}{self.concl}"


@dataclass
class GoalResult:
    goal: Goal
    proved: bool
    reason: str = ""
    cases: int = 0
    elapsed: float = 0.0
    #: The goal degraded to 'unknown' because its work budget or
    #: deadline ran out (fail-soft: the run-time check is kept).
    budget_exhausted: bool = False
    #: A backend raised and the crash was contained to this goal.
    crashed: bool = False


@dataclass
class SolveStats:
    """Aggregate statistics for one program (feeds Table 1)."""

    goals: int = 0
    proved: int = 0
    failed: int = 0
    cases: int = 0
    evars_created: int = 0
    evars_solved: int = 0
    solve_seconds: float = 0.0
    #: Goals that degraded to 'unknown' on budget/deadline exhaustion.
    budget_exhausted: int = 0
    #: Goals whose backend crash was contained (reported unproved).
    contained_crashes: int = 0

    def add(self, result: GoalResult) -> None:
        """Count one goal's result."""
        self.goals += 1
        self.cases += result.cases
        self.solve_seconds += result.elapsed
        if result.proved:
            self.proved += 1
        else:
            self.failed += 1
        self.budget_exhausted += result.budget_exhausted
        self.contained_crashes += result.crashed


class UnsupportedGoal(Exception):
    """The goal cannot be reduced to linear integer arithmetic."""


# ---------------------------------------------------------------------------
# Goal extraction
# ---------------------------------------------------------------------------


def extract_goals(constraint: Constraint, store: EvarStore) -> list[Goal]:
    """Flatten a constraint tree into proof goals.

    ``exists`` binders are replaced by fresh evars scoped to the rigid
    variables currently in scope, with the binder sort's membership
    constraint recorded as an extra proof obligation on the witness.
    """
    goals: list[Goal] = []

    def walk(
        node: Constraint,
        rigid: dict[str, Sort],
        hyps: tuple[IndexTerm, ...],
        subst_map: dict[str, IndexTerm],
    ) -> None:
        if isinstance(node, CTrue):
            return
        if isinstance(node, CProp):
            prop = terms.subst(node.prop, subst_map)
            goals.append(
                Goal(dict(rigid), list(hyps), prop, node.origin, node.span)
            )
            return
        if isinstance(node, CAnd):
            walk(node.left, rigid, hyps, subst_map)
            walk(node.right, rigid, hyps, subst_map)
            return
        if isinstance(node, CImpl):
            hyp = terms.subst(node.hyp, subst_map)
            walk(node.body, rigid, hyps + (hyp,), subst_map)
            return
        if isinstance(node, CForall):
            name = node.var
            if name in rigid or name in subst_map:
                # alpha-rename to avoid shadowing.
                fresh = _fresh_name(name, set(rigid) | set(subst_map))
                inner_subst = dict(subst_map)
                inner_subst[name] = IVar(fresh)
                name = fresh
            else:
                inner_subst = dict(subst_map)
            new_rigid = dict(rigid)
            new_rigid[name] = node.sort
            membership = node.sort.constraint_on(IVar(name))
            new_hyps = hyps
            if not (isinstance(membership, BConst) and membership.value):
                new_hyps = hyps + (membership,)
            walk(node.body, new_rigid, new_hyps, inner_subst)
            return
        if isinstance(node, CExists):
            evar = store.fresh(node.var, set(rigid))
            inner_subst = dict(subst_map)
            inner_subst[node.var] = evar
            membership = node.sort.constraint_on(evar)
            if not (isinstance(membership, BConst) and membership.value):
                goals.append(
                    Goal(dict(rigid), list(hyps), membership, "witness sort", DUMMY_SPAN)
                )
            walk(node.body, rigid, hyps, inner_subst)
            return
        raise AssertionError(f"unknown constraint node {node!r}")

    walk(constraint, {}, (), {})
    return goals


def _fresh_name(base: str, taken: set[str]) -> str:
    for i in itertools.count(1):
        candidate = f"{base}'{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Existential variable elimination (Section 3.1)
# ---------------------------------------------------------------------------


def _equational_solution(
    prop: IndexTerm, store: EvarStore
) -> tuple[EVar, IndexTerm] | None:
    """If ``prop`` is an equality determining an unsolved evar with a
    unit coefficient, return ``(evar, witness)``."""
    if not (isinstance(prop, Cmp) and prop.op == "="):
        return None
    try:
        lhs = linearize(store.resolve(prop.left)) - linearize(
            store.resolve(prop.right)
        )
    except (NonLinearIndex, UnsupportedIndex):
        return None
    for var, coeff in lhs.coeffs:
        if isinstance(var, EVar) and not store.is_solved(var) and abs(coeff) == 1:
            rest = lhs.drop(var).scale(-coeff)
            witness = _lincomb_to_term(rest)
            if var not in terms.free_evars(witness):
                return var, witness
    return None


def _lincomb_to_term(lin: LinComb) -> IndexTerm:
    result: IndexTerm = IConst(lin.const)
    for var, coeff in lin.coeffs:
        base: IndexTerm = IVar(var) if isinstance(var, str) else var
        result = terms.iadd(result, terms.imul(IConst(coeff), base))
    return result


def solve_evars(goals: list[Goal], store: EvarStore) -> int:
    """Repeatedly mine goals for evar-determining equalities.

    Conclusions are preferred over hypotheses (solving a conclusion
    makes the goal trivial; solving from a hypothesis instantiates the
    evar with the only value under which the hypothesis can hold).
    Returns the number of evars solved.
    """
    solved = 0
    progress = True
    while progress:
        progress = False
        for goal in goals:
            candidates = [goal.concl] + goal.hyps
            for prop in candidates:
                resolved = store.resolve(prop)
                if not store.unsolved_in(resolved):
                    continue
                solution = _equational_solution(resolved, store)
                if solution is not None and store.solve(*solution):
                    solved += 1
                    progress = True
    return solved


# ---------------------------------------------------------------------------
# Operator elimination: div / mod / min / max / abs / sgn
# ---------------------------------------------------------------------------


class _Definitions:
    """Fresh-variable definitions introduced while flattening a goal."""

    def __init__(
        self, counter: int = 0, cache: dict[IndexTerm, IVar] | None = None
    ) -> None:
        self.counter = counter
        self.props: list[IndexTerm] = []
        self.cache: dict[IndexTerm, IVar] = {} if cache is None else cache

    def fresh(self, hint: str) -> IVar:
        self.counter += 1
        return IVar(f"${hint}{self.counter}")


_ELIM_BINOPS = frozenset({"div", "mod", "min", "max"})
_ELIM_UNOPS = frozenset({"abs", "sgn"})


def _needs_elimination(term: IndexTerm) -> bool:
    """Does any subterm carry an operator :func:`_eliminate_ops` must
    rewrite?  Memoized on the interned node (``_elim`` slot) — goal
    hypotheses repeat across the goals of a declaration and across
    programs sharing the prelude, so the common all-linear case reduces
    to one slot read instead of a full traversal."""
    try:
        return term._elim  # type: ignore[attr-defined]
    except AttributeError:
        pass
    if isinstance(term, BinOp) and term.op in _ELIM_BINOPS:
        result = True
    elif isinstance(term, UnOp) and term.op in _ELIM_UNOPS:
        result = True
    else:
        result = any(_needs_elimination(kid) for kid in terms.children(term))
    object.__setattr__(term, "_elim", result)
    return result


def _eliminate_ops(term: IndexTerm, defs: _Definitions) -> IndexTerm:
    """Rewrite eliminable integer operators to fresh variables, adding
    their defining constraints to ``defs.props``."""
    if not _needs_elimination(term):
        return term

    def rewrite(node: IndexTerm) -> IndexTerm | None:
        if isinstance(node, BinOp) and node.op in {"div", "mod"}:
            return _define_divmod(node, defs)
        if isinstance(node, BinOp) and node.op in {"min", "max"}:
            return _define_minmax(node, defs)
        if isinstance(node, UnOp) and node.op == "abs":
            return _define_abs(node, defs)
        if isinstance(node, UnOp) and node.op == "sgn":
            return _define_sgn(node, defs)
        return None

    return terms.transform(term, rewrite)


def _define_divmod(node: BinOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        quotient = defs.cache[node]
    else:
        divisor = node.right
        if not isinstance(divisor, IConst) or divisor.value == 0:
            raise UnsupportedGoal(
                f"cannot linearize {node.op} with non-constant divisor: {node}"
            )
        c = divisor.value
        key = BinOp("div", node.left, node.right)
        if key in defs.cache:
            quotient = defs.cache[key]
        else:
            quotient = defs.fresh("q")
            defs.cache[key] = quotient
            numerator = node.left
            if c > 0:
                # c*q <= numerator <= c*q + c - 1  (floor division)
                defs.props.append(terms.cmp("<=", terms.imul(IConst(c), quotient), numerator))
                defs.props.append(
                    terms.cmp(
                        "<=",
                        numerator,
                        terms.iadd(terms.imul(IConst(c), quotient), IConst(c - 1)),
                    )
                )
            else:
                # floor with negative divisor: c*q >= numerator >= c*q + c + 1
                defs.props.append(terms.cmp(">=", terms.imul(IConst(c), quotient), numerator))
                defs.props.append(
                    terms.cmp(
                        ">=",
                        numerator,
                        terms.iadd(terms.imul(IConst(c), quotient), IConst(c + 1)),
                    )
                )
        defs.cache[node] = quotient
    if node.op == "div":
        return quotient
    # mod(i, c) = i - c * div(i, c)
    assert isinstance(node.right, IConst)
    return terms.isub(node.left, terms.imul(node.right, quotient))


def _define_minmax(node: BinOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("m")
    defs.cache[node] = var
    rel = "<=" if node.op == "min" else ">="
    defs.props.append(terms.cmp(rel, var, node.left))
    defs.props.append(terms.cmp(rel, var, node.right))
    defs.props.append(
        terms.bor(
            terms.cmp("=", var, node.left),
            terms.cmp("=", var, node.right),
        )
    )
    return var


def _define_abs(node: UnOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("v")
    defs.cache[node] = var
    defs.props.append(terms.cmp(">=", var, node.arg))
    defs.props.append(terms.cmp(">=", var, terms.ineg(node.arg)))
    defs.props.append(
        terms.bor(
            terms.cmp("=", var, node.arg),
            terms.cmp("=", var, terms.ineg(node.arg)),
        )
    )
    return var


def _define_sgn(node: UnOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("s")
    defs.cache[node] = var
    arg = node.arg
    defs.props.append(
        terms.bor(
            terms.bor(
                terms.band(terms.cmp(">", arg, terms.ZERO), terms.cmp("=", var, terms.ONE)),
                terms.band(terms.cmp("=", arg, terms.ZERO), terms.cmp("=", var, terms.ZERO)),
            ),
            terms.band(terms.cmp("<", arg, terms.ZERO), terms.cmp("=", var, IConst(-1))),
        )
    )
    return var


# ---------------------------------------------------------------------------
# Case splitting and backend dispatch
# ---------------------------------------------------------------------------

#: A literal is a comparison, a (possibly negated) boolean variable, or
#: a boolean constant.
_MAX_CASES = 4096


def _split_cases(formula: IndexTerm) -> tuple[tuple[IndexTerm, ...], ...]:
    """DNF of a boolean index term, as a tuple of literal tuples.

    Memoized on the interned node (``_dnf`` slot) — the same goal
    formula recurs whenever a prelude obligation is re-proved for
    another program, and subformulas recur within one program's case
    splits.  A ``UnsupportedGoal`` (case explosion) is cached as its
    message and re-raised afresh: a cached exception object would keep
    its traceback's frames, and everything they reference, alive for
    as long as the node lives."""
    try:
        cached = formula._dnf  # type: ignore[attr-defined]
    except AttributeError:
        pass
    else:
        if isinstance(cached, str):
            raise UnsupportedGoal(cached)
        return cached
    try:
        result = _split_cases_uncached(formula)
    except UnsupportedGoal as exc:
        object.__setattr__(formula, "_dnf", str(exc))
        raise
    object.__setattr__(formula, "_dnf", result)
    return result


def _split_cases_uncached(formula: IndexTerm) -> tuple[tuple[IndexTerm, ...], ...]:
    if isinstance(formula, And):
        budget = current_budget()
        result = []
        for left in _split_cases(formula.left):
            for right in _split_cases(formula.right):
                # Each conjunction of sub-cases is a unit of DNF work;
                # exhaustion propagates uncached (a bigger budget may
                # finish this split), unlike the structural case cap.
                if budget is not None:
                    budget.spend()
                result.append(left + right)
                if len(result) > _MAX_CASES:
                    raise UnsupportedGoal("case explosion during DNF split")
        return tuple(result)
    if isinstance(formula, Or):
        return _split_cases(formula.left) + _split_cases(formula.right)
    if isinstance(formula, Not):
        inner = formula.arg
        if isinstance(inner, (IVar, EVar)):
            return ((formula,),)  # negated boolean variable literal
        return _split_cases(_negate(inner))
    return ((formula,),)


def _negate(formula: IndexTerm) -> IndexTerm:
    if isinstance(formula, And):
        return Or(_negate(formula.left), _negate(formula.right))
    if isinstance(formula, Or):
        return And(_negate(formula.left), _negate(formula.right))
    if isinstance(formula, Not):
        return formula.arg
    if isinstance(formula, Cmp):
        return Cmp(terms.CMP_NEGATION[formula.op], formula.left, formula.right)
    if isinstance(formula, BConst):
        return BConst(not formula.value)
    # boolean variable
    return Not(formula)


_NO_BOOLS: frozenset[IndexTerm] = frozenset()


def _convert_literals(
    literals: "tuple[IndexTerm, ...] | list[IndexTerm]",
    pos: frozenset[IndexTerm] = _NO_BOOLS,
    neg: frozenset[IndexTerm] = _NO_BOOLS,
) -> tuple[frozenset[IndexTerm], frozenset[IndexTerm], list[list[list[Atom]]]] | None:
    """Convert one DNF case's literals, in order, to the boolean
    literals they assert and one list of atom-conjunction choices per
    comparison (``<>`` offers two).

    ``pos``/``neg`` are boolean variables already asserted true/false
    by the other half of the case: a hypothesis ``b`` and a conclusion
    case ``~b`` must still refute the case propositionally.  Returns
    ``None`` when the case is propositionally unsatisfiable
    (conflicting boolean literals or a ``false`` constant).
    """
    choices: list[list[list[Atom]]] = []
    for literal in literals:
        if isinstance(literal, BConst):
            if not literal.value:
                return None
        elif isinstance(literal, (IVar, EVar)):
            if literal in neg:
                return None
            pos = pos | {literal}
        elif isinstance(literal, Not):
            if literal.arg in pos:
                return None
            neg = neg | {literal.arg}
        elif isinstance(literal, Cmp):
            try:
                choices.append(atoms_of_cmp(literal))
            except (NonLinearIndex, UnsupportedIndex) as exc:
                raise UnsupportedGoal(str(exc)) from exc
        else:
            raise UnsupportedGoal(f"unsupported literal in goal: {literal}")
    return pos, neg, choices


def _product_charge(
    size: int, choices: list[list[list[Atom]]]
) -> tuple[int, int | None]:
    """Budget steps for extending ``size`` partial atom conjunctions by
    the Cartesian product over ``choices``, one stage per choice list
    and one step per element built, plus the final size.  The size is
    ``None`` when a stage exceeds :data:`_MAX_CASES`; the charge then
    stops at the element that broke the cap."""
    charge = 0
    for alternatives in choices:
        size *= len(alternatives)
        if size > _MAX_CASES:
            return charge + _MAX_CASES + 1, None
        charge += size
    return charge, size


def _product(choices: list[list[list[Atom]]]) -> list[list[Atom]]:
    """The Cartesian product over ``choices``, earlier choices varying
    slowest."""
    result: list[list[Atom]] = [[]]
    for alternatives in choices:
        result = [base + choice for base in result for choice in alternatives]
    return result


def _case_to_atom_sets(
    literals: "tuple[IndexTerm, ...] | list[IndexTerm]",
) -> list[list[Atom]] | None:
    """Convert one DNF case into conjunctions of linear atoms.

    Returns ``None`` when the case is propositionally unsatisfiable
    (conflicting boolean literals or a ``false`` constant).  ``<>``
    comparisons fan out into further sub-cases, hence a list of sets.
    """
    converted = _convert_literals(literals)
    if converted is None:
        return None
    choices = converted[2]
    charge, size = _product_charge(1, choices)
    budget = current_budget()
    if budget is not None and charge:
        budget.spend(charge)
    if size is None:
        raise UnsupportedGoal("case explosion from disequalities")
    return _product(choices)


class _HypothesisCase:
    """The hypothesis half of one goal case: one DNF case of the
    flattened hypotheses, converted once and shared by every goal whose
    hypotheses produced it.

    A conversion error is kept (as ``error``) rather than raised: the
    unshared path raises it only once the case is paired with a
    conclusion case, after that pair's budget step.  ``size``/``charge``
    are the atom-choice product's size (``None`` past the case cap) and
    step charge; :meth:`elements` materializes the product, each
    element with its :class:`~repro.solver.slice.Partition`, on first
    use.
    """

    __slots__ = (
        "refuted", "error", "pos", "neg", "choices", "size", "charge",
        "_elements",
    )

    def __init__(self, literals: tuple[IndexTerm, ...]) -> None:
        self.refuted = False
        self.error: str | None = None
        self.pos = self.neg = _NO_BOOLS
        self.choices: list[list[list[Atom]]] = []
        try:
            converted = _convert_literals(literals)
        except UnsupportedGoal as exc:
            self.error = str(exc)
        else:
            if converted is None:
                self.refuted = True
            else:
                self.pos, self.neg, self.choices = converted
        self.charge, self.size = _product_charge(1, self.choices)
        self._elements: list[tuple[list[Atom], Partition]] | None = None

    def elements(self) -> list[tuple[list[Atom], Partition]]:
        """``(atoms, partition)`` per product element."""
        if self._elements is None:
            self._elements = [
                (atoms, partition(atoms)) for atoms in _product(self.choices)
            ]
        return self._elements


def _boolean_subterms(roots: tuple[IndexTerm, ...]) -> set[IndexTerm]:
    """Every ``/\\``/``\\/``/``~`` node and boolean leaf reachable
    through the boolean structure of ``roots``."""
    seen: set[IndexTerm] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Not):
            stack.append(node.arg)
    return seen


def _split_charge(
    node: IndexTerm, memoized: set[IndexTerm], seen: set[IndexTerm]
) -> int:
    """The budget steps :func:`_split_cases` spends on ``node`` when
    exactly the nodes in ``memoized`` (and those in ``seen``, split
    earlier in the same pass) already carry a DNF memo.  Every DNF in
    reach must be memoized already (call after splitting ``node``), and
    no budget may be installed."""
    if node in memoized or node in seen:
        return 0
    seen.add(node)
    if isinstance(node, And):
        return (
            _split_charge(node.left, memoized, seen)
            + _split_charge(node.right, memoized, seen)
            + len(_split_cases(node.left)) * len(_split_cases(node.right))
        )
    if isinstance(node, Or):
        return _split_charge(node.left, memoized, seen) + _split_charge(
            node.right, memoized, seen
        )
    if isinstance(node, Not) and not isinstance(node.arg, (IVar, EVar)):
        return _split_charge(_negate(node.arg), memoized, seen)
    return 0


class HypothesisContext:
    """The hypothesis-side work of every goal whose resolved hypotheses
    (rigid-variable memberships appended) are ``hyps``.

    Each attribute is a pure function of ``hyps``: the unsolved evars
    left in them, the operator-definition state after flattening them
    (fresh-variable counter and cache, which a goal's conclusion
    continues), and the hypothesis DNF as :class:`_HypothesisCase`
    halves.  So one context serves every goal of a check that shares
    the hypotheses.  Fields are filled lazily, at the point the unshared
    pipeline would compute them, so budget charges and failure modes
    stay where they were.
    """

    __slots__ = ("hyps", "leftover", "_defs", "_cases", "_repeat_charge")

    def __init__(self, hyps: tuple[IndexTerm, ...]) -> None:
        self.hyps = hyps
        leftover: set[EVar] = set()
        for hyp in hyps:
            leftover |= terms.free_evars(hyp)  # resolved: all unsolved
        self.leftover = leftover
        self._defs: tuple[int, dict[IndexTerm, IVar]] | None = None
        self._cases: list[_HypothesisCase] | None = None
        self._repeat_charge = 0

    def _flatten(self) -> list[IndexTerm]:
        """Eliminate operators from the hypotheses: the flattened
        hypotheses followed by the definitions they introduced."""
        defs = _Definitions()
        parts = [_eliminate_ops(h, defs) for h in self.hyps]
        if self._defs is None:
            self._defs = (defs.counter, defs.cache)
        return parts + defs.props

    def definitions(
        self,
    ) -> tuple[list[IndexTerm] | None, int, dict[IndexTerm, IVar]]:
        """The flattened hypothesis conjuncts — ``None`` once the
        definition state is cached, since they are not kept (see
        :meth:`split`) — and the definition counter and cache a goal's
        conclusion continues from (the cache is shared: copy it before
        extending it)."""
        parts = None
        if self._defs is None:
            parts = self._flatten()
        counter, cache = self._defs
        return parts, counter, cache

    def split(self, parts: list[IndexTerm] | None) -> list[_HypothesisCase]:
        """The hypothesis DNF cases, charging the ambient budget what
        splitting the hypothesis conjunction costs.

        The first build splits for real.  The conjunction chain and
        any flattened conjunct that is not itself a hypothesis are
        fresh nodes, rebuilt by every goal that splits them; later
        goals pay the same charge, computed once, without rebuilding.
        Neither is kept, so other contexts' first splits see the same
        DNF memos they would without this one.
        """
        cases = self._cases
        if cases is not None:
            budget = current_budget()
            if budget is not None and self._repeat_charge:
                budget.spend(self._repeat_charge)
            return cases
        if parts is None:
            parts = self._flatten()
        formula = terms.conj(parts)
        dnf = _split_cases(formula)
        with use_budget(None):
            self._repeat_charge = _split_charge(
                formula, _boolean_subterms(self.hyps), set()
            )
        cases = [_HypothesisCase(literals) for literals in dnf]
        self._cases = cases
        return cases


def hypothesis_context(goal: Goal, store: EvarStore) -> HypothesisContext:
    """The :class:`HypothesisContext` of ``goal`` in ``store``'s
    per-check hypothesis table.

    The key is the goal's resolved hypotheses with the sort
    memberships of its rigid variables appended (the extraction pass
    includes them already; appending them again, duplicates being
    harmless, makes hand-built goals self-contained).

    A key that holds a compound formula (``/\\``, ``\\/``, ``~``) built
    for this goal alone — a hypothesis rewritten by evar resolution,
    or a membership the goal does not list — gets a private context
    instead: the table would keep that formula, and with it its DNF
    memo, alive past the goal, making later goals' splits cheaper
    than the budget accounts for.  The membership memo skips compound
    memberships for the same reason.
    """
    resolve = store.resolve
    hyps = [resolve(h) for h in goal.hyps]
    shared = all(
        resolved is hyp or not _is_compound(resolved)
        for resolved, hyp in zip(hyps, goal.hyps)
    )
    memberships = store.memberships
    for name_sort in goal.rigid.items():
        membership = memberships.get(name_sort)
        if membership is None:
            name, sort = name_sort
            membership = sort.constraint_on(terms.IVar(name))
            if not _is_compound(membership):
                memberships[name_sort] = membership
        if not (isinstance(membership, BConst) and membership.value):
            hyps.append(membership)
            if shared and _is_compound(membership):
                shared = any(membership is hyp for hyp in goal.hyps)
    key = tuple(hyps)
    if not shared:
        return HypothesisContext(key)
    table = store.hypotheses
    context = table.get(key)
    if context is None:
        context = table.setdefault(key, HypothesisContext(key))
    return context


def _is_compound(formula: IndexTerm) -> bool:
    return isinstance(formula, (And, Or)) or (
        isinstance(formula, Not) and not isinstance(formula.arg, (IVar, EVar))
    )


def goal_slices(context: HypothesisContext, concl: IndexTerm):
    """Yield ``(partition, concl_atoms, n_atoms)`` per DNF case of
    ``hyps /\\ ~concl`` (``hyps`` being ``context.hyps``), where
    ``partition`` is the :class:`~repro.solver.slice.Partition` of the
    case's hypothesis atoms, ``concl_atoms`` the atoms from the negated
    conclusion (and the operator definitions it introduced), and
    ``n_atoms`` the size of the whole case — what the slicing layer
    needs.

    Only the conclusion half is computed here: the hypothesis cases,
    their atom products and partitions come from ``context``.  The
    cases, their order and every budget charge coincide with
    :func:`goal_atom_sets` split into hypothesis and conclusion
    conjunctions: ``conj`` is a left fold, so their product is the
    full formula's DNF in lexicographic (hypothesis, conclusion)
    order.  Each (hypothesis case, conclusion case) pair charges one
    step, then the combined atom-choice product one step per element,
    before its first case is yielded.
    """
    hyp_parts, counter, cache = context.definitions()
    concl_props: list[IndexTerm] = []
    if _needs_elimination(concl):
        defs = _Definitions(counter, dict(cache))
        concl = _eliminate_ops(concl, defs)
        concl_props = defs.props
    concl_formula = terms.conj(concl_props + [_negate(concl)])
    hyp_cases = context.split(hyp_parts)
    concl_cases = _split_cases(concl_formula)
    # The unsliced path caps the materialized DNF of the full formula;
    # case counts only grow along the conj fold, so it raises exactly
    # when the final product exceeds the cap — reproduce that here even
    # though the product is streamed, to keep failure modes identical.
    if len(hyp_cases) * len(concl_cases) > _MAX_CASES:
        raise UnsupportedGoal("case explosion during DNF split")
    budget = current_budget()
    for hyp_case in hyp_cases:
        for concl_literals in concl_cases:
            if budget is not None:
                budget.spend()
            if hyp_case.refuted:
                continue  # propositionally refuted
            if hyp_case.error is not None:
                raise UnsupportedGoal(hyp_case.error)
            converted = _convert_literals(
                concl_literals, hyp_case.pos, hyp_case.neg
            )
            if converted is None:
                continue  # propositionally refuted
            choices = converted[2]
            charge, size = hyp_case.charge, hyp_case.size
            if size is not None:
                extra, size = _product_charge(size, choices)
                charge += extra
            if budget is not None and charge:
                budget.spend(charge)
            if size is None:
                raise UnsupportedGoal("case explosion from disequalities")
            concl_product = _product(choices)
            for hyp_atoms, part in hyp_case.elements():
                n_hyp = len(hyp_atoms)
                for concl_atoms in concl_product:
                    yield part, concl_atoms, n_hyp + len(concl_atoms)


def prove_goal(
    goal: Goal,
    store: EvarStore,
    backend: Backend | None = None,
    stats: SolveStats | None = None,
    cache: "SolverCache | None" = None,
    telemetry: "SolverTelemetry | None" = None,
    limits: SolverLimits | None = None,
    slicing: SliceContext | None = None,
) -> GoalResult:
    """Attempt to discharge one goal; never raises.

    ``cache``/``telemetry`` (see :mod:`repro.solver.portfolio`) wrap
    the backend with memoization on canonical goal keys and query
    accounting.  Callers that already hold an instrumented backend —
    :func:`repro.api.check` builds one per run — pass neither.

    ``slicing`` (see :mod:`repro.solver.slice`) routes every case
    through the preprocessing layer — slice, then subsume, then the
    backend — which sits *above* the backend's memoization, so the
    cache sees the sliced (smaller, more shareable) canonical keys.
    ``None`` is the ``--no-slice`` escape hatch.

    On the sliced path the hypothesis half of the goal comes from the
    per-check hypothesis table in ``store`` (see
    :func:`hypothesis_context`): goals with the same resolved
    hypotheses share one flattening, one hypothesis DNF, one atom
    conversion and one :class:`~repro.solver.slice.Partition` per
    hypothesis case, built by the first of them.  This goal computes
    only its conclusion half (:func:`goal_slices`), then extends the
    shared partition with the conclusion atoms.  Verdicts, case counts
    and budget charges are those of the unshared pipeline.

    ``limits`` is the goal's resource envelope (defaults to
    :data:`~repro.solver.budget.DEFAULT_LIMITS`): a fresh
    :class:`~repro.solver.budget.Budget` is installed as the ambient
    budget for every backend call this goal triggers.  Exhaustion
    degrades to an unproved goal with a recorded reason (check kept),
    and any backend exception — including ``RecursionError`` — is
    contained to this goal.  The one exception that always propagates
    is :class:`~repro.solver.portfolio.BackendDisagreement`: a
    soundness violation is a bug, never a degradation.
    """
    backend = backend or get_backend()
    if cache is not None or telemetry is not None:
        from repro.solver.portfolio import instrument

        backend = instrument(backend, telemetry, cache)
    budget = Budget.start(limits if limits is not None else DEFAULT_LIMITS)
    started = time.perf_counter()

    def finish(
        proved: bool,
        reason: str = "",
        cases: int = 0,
        *,
        budget_exhausted: bool = False,
        crashed: bool = False,
    ) -> GoalResult:
        result = GoalResult(
            goal, proved, reason, cases, time.perf_counter() - started,
            budget_exhausted=budget_exhausted, crashed=crashed,
        )
        if stats is not None:
            stats.add(result)
        return result

    context = hypothesis_context(goal, store)
    concl = store.resolve(goal.concl)
    leftover = context.leftover | terms.free_evars(concl)
    if leftover:
        names = ", ".join(sorted(str(e) for e in leftover))
        return finish(False, f"unresolved existential variable(s): {names}")

    if isinstance(concl, BConst) and concl.value:
        return finish(True, "trivial", 0)

    total_atom_sets = 0
    try:
        with use_budget(budget):
            if slicing is not None:
                cases = goal_slices(context, concl)
            else:
                cases = goal_atom_sets(list(context.hyps), concl)
            for case in cases:
                total_atom_sets += 1
                if slicing is not None:
                    part, concl_atoms, n_atoms = case
                    verdict = slicing.refute(
                        backend, part.extend(concl_atoms), n_atoms
                    )
                else:
                    verdict = backend.unsat(case)
                if not verdict:
                    if budget.exhausted:
                        # The backend caught the exhaustion internally
                        # and answered 'unknown'; surface the real
                        # reason instead of "could not refute".
                        return finish(
                            False,
                            f"solver budget exhausted "
                            f"({budget.describe()})",
                            total_atom_sets,
                            budget_exhausted=True,
                        )
                    return finish(
                        False,
                        f"backend {backend.name} could not refute a case",
                        total_atom_sets,
                    )
                budget.checkpoint()  # poll the deadline between cases
        return finish(True, "", total_atom_sets)
    except UnsupportedGoal as exc:
        return finish(False, str(exc), total_atom_sets)
    except BudgetExhausted:
        return finish(
            False,
            f"solver budget exhausted ({budget.describe()})",
            total_atom_sets,
            budget_exhausted=True,
        )
    except Exception as exc:
        from repro.solver.portfolio import BackendDisagreement

        if isinstance(exc, BackendDisagreement):
            raise  # a soundness violation must never be swallowed
        return finish(
            False,
            f"solver crashed; check kept "
            f"({type(exc).__name__}: {exc})",
            total_atom_sets,
            crashed=True,
        )


def goal_atom_sets(hyps: list[IndexTerm], concl: IndexTerm):
    """Yield the atom conjunctions whose joint refutation proves
    ``hyps ==> concl`` — i.e. the DNF cases of ``hyps /\\ ~concl``
    after div/mod/min/max/abs/sgn elimination.

    Raises :class:`UnsupportedGoal` on nonlinearity or inexpressible
    operators.  Shared by :func:`prove_goal` (``--no-slice`` path) and
    the counterexample search in :mod:`repro.solver.diagnose`.  It
    splits the whole formula at once and shares nothing across goals;
    the sliced path (:func:`goal_slices`) yields the same atom
    conjunctions in the same order, each split into a shared
    hypothesis partition and the goal's own conclusion atoms.
    """
    defs = _Definitions()
    flat_hyps = [_eliminate_ops(h, defs) for h in hyps]
    flat_concl = _eliminate_ops(concl, defs)
    formula = terms.conj(flat_hyps + defs.props + [_negate(flat_concl)])
    for literals in _split_cases(formula):
        atom_sets = _case_to_atom_sets(literals)
        if atom_sets is None:
            continue  # propositionally refuted
        yield from atom_sets


def prove_all(
    constraint: Constraint,
    store: EvarStore,
    backend: Backend | None = None,
    stats: SolveStats | None = None,
    limits: SolverLimits | None = None,
    slicing: SliceContext | None = None,
) -> list[GoalResult]:
    """The full Section 3 pipeline for one constraint tree.

    ``slicing`` is shared across all goals, so refuted cores from one
    goal accelerate the next.
    """
    goals = extract_goals(constraint, store)
    solved = solve_evars(goals, store)
    if stats is not None:
        stats.evars_solved += solved
    return [
        prove_goal(goal, store, backend, stats, limits=limits, slicing=slicing)
        for goal in goals
    ]
