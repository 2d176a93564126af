"""Tests for constraint simplification: goal extraction, existential
elimination, operator elimination, and case splitting."""


import pytest

from repro import api, programs
from repro.indices import constraints as cs
from repro.indices import terms
from repro.indices.sorts import BOOL, INT, NAT
from repro.indices.terms import EvarStore, IConst, IVar
from repro.solver import budget as budget_module
from repro.solver.backends import get_backend
from repro.solver.budget import SolverLimits
from repro.solver.simplify import (
    Goal,
    SolveStats,
    UnsupportedGoal,
    _split_cases,
    extract_goals,
    hypothesis_context,
    prove_all,
    prove_goal,
    solve_evars,
)
from repro.solver.slice import SliceContext

FOURIER = get_backend("fourier")


def lt(a, b):
    return terms.cmp("<", a, b)


def eq(a, b):
    return terms.cmp("=", a, b)


class TestExtractGoals:
    def test_single_prop(self):
        store = EvarStore()
        goals = extract_goals(cs.CProp(lt(IConst(0), IConst(1))), store)
        assert len(goals) == 1
        assert goals[0].hyps == []

    def test_true_produces_nothing(self):
        assert extract_goals(cs.TRUE, EvarStore()) == []

    def test_conjunction_splits(self):
        c = cs.cand(cs.CProp(terms.TRUE), cs.CProp(lt(IVar("a"), IVar("b"))))
        goals = extract_goals(c, EvarStore())
        assert len(goals) == 2

    def test_forall_adds_sort_hypothesis(self):
        c = cs.CForall("n", NAT, cs.CProp(lt(IConst(-1), IVar("n"))))
        (goal,) = extract_goals(c, EvarStore())
        assert goal.rigid == {"n": NAT}
        assert [str(h) for h in goal.hyps] == ["n >= 0"]

    def test_plain_int_sort_adds_no_hypothesis(self):
        c = cs.CForall("n", INT, cs.CProp(terms.TRUE))
        (goal,) = extract_goals(c, EvarStore())
        assert goal.hyps == []

    def test_implication_hypothesis(self):
        c = cs.CImpl(lt(IVar("i"), IVar("n")), cs.CProp(terms.TRUE))
        (goal,) = extract_goals(c, EvarStore())
        assert [str(h) for h in goal.hyps] == ["i < n"]

    def test_nested_scoping(self):
        c = cs.CForall(
            "n", NAT,
            cs.CImpl(
                lt(IConst(0), IVar("n")),
                cs.cand(
                    cs.CProp(lt(IConst(0), IVar("n"))),
                    cs.CForall("m", NAT, cs.CProp(lt(IVar("m"), IVar("n")))),
                ),
            ),
        )
        goals = extract_goals(c, EvarStore())
        assert len(goals) == 2
        assert list(goals[0].rigid) == ["n"]
        assert list(goals[1].rigid) == ["n", "m"]

    def test_shadowed_forall_renamed(self):
        inner = cs.CForall("n", INT, cs.CProp(eq(IVar("n"), IVar("n"))))
        c = cs.CForall("n", INT, cs.cand(cs.CProp(eq(IVar("n"), IConst(0))), inner))
        goals = extract_goals(c, EvarStore())
        names = set(goals[1].rigid)
        assert len(names) == 2  # inner n renamed apart

    def test_exists_becomes_evar(self):
        store = EvarStore()
        c = cs.CExists("k", NAT, cs.CProp(eq(IVar("k"), IConst(3))))
        goals = extract_goals(c, store)
        # membership goal (k >= 0) plus the body goal
        assert len(goals) == 2
        assert store.created_count == 1


class TestSolveEvars:
    def test_solves_from_conclusion_equality(self):
        store = EvarStore()
        ev = store.fresh("M", {"n"})
        goal = Goal({"n": NAT}, [], eq(ev, IVar("n")))
        assert solve_evars([goal], store) == 1
        assert store.resolve(ev) == IVar("n")

    def test_solves_from_hypothesis(self):
        store = EvarStore()
        ev = store.fresh("M", {"n"})
        goal = Goal({"n": NAT}, [eq(ev, terms.iadd(IVar("n"), IConst(1)))],
                    terms.TRUE)
        assert solve_evars([goal], store) == 1

    def test_solves_chains(self):
        store = EvarStore()
        a = store.fresh("A", {"n"})
        b = store.fresh("B", {"n"})
        goals = [
            Goal({"n": NAT}, [], eq(a, b)),
            Goal({"n": NAT}, [], eq(b, IVar("n"))),
        ]
        solved = solve_evars(goals, store)
        assert solved == 2
        assert store.resolve(a) == IVar("n")

    def test_scope_violation_blocks(self):
        store = EvarStore()
        ev = store.fresh("M", set())  # empty scope
        goal = Goal({"n": NAT}, [], eq(ev, IVar("n")))
        assert solve_evars([goal], store) == 0

    def test_unit_coefficient_isolation(self):
        # 2*M = n cannot solve M (non-unit), M + n = 0 can.
        store = EvarStore()
        ev = store.fresh("M", {"n"})
        hard = Goal({"n": INT}, [], eq(terms.imul(IConst(2), ev), IVar("n")))
        assert solve_evars([hard], store) == 0
        easy = Goal({"n": INT}, [], eq(terms.iadd(ev, IVar("n")), IConst(0)))
        assert solve_evars([easy], store) == 1
        assert str(store.resolve(ev)) == "-1*n" or "n" in str(store.resolve(ev))


class TestProveGoal:
    def prove(self, goal):
        return prove_goal(goal, EvarStore(), FOURIER)

    def test_trivial(self):
        assert self.prove(Goal({}, [], terms.TRUE)).proved

    def test_simple_arith(self):
        goal = Goal({"n": NAT}, [], terms.cmp(">=", IVar("n"), IConst(0)))
        assert self.prove(goal).proved

    def test_uses_hypotheses(self):
        goal = Goal(
            {"i": INT, "n": INT},
            [lt(IVar("i"), IVar("n")), terms.cmp(">=", IVar("i"), IConst(0))],
            lt(IConst(-1), IVar("n")),
        )
        assert self.prove(goal).proved

    def test_unprovable(self):
        goal = Goal({"i": INT}, [], terms.cmp(">=", IVar("i"), IConst(0)))
        result = self.prove(goal)
        assert not result.proved
        assert "fourier" in result.reason

    def test_contradictory_hypotheses_prove_anything(self):
        goal = Goal(
            {"i": INT},
            [lt(IVar("i"), IConst(0)), terms.cmp(">", IVar("i"), IConst(0))],
            eq(IConst(1), IConst(2)),
        )
        assert self.prove(goal).proved

    def test_false_conclusion(self):
        goal = Goal({}, [], terms.FALSE)
        assert not self.prove(goal).proved

    def test_boolean_variable_hypothesis(self):
        # b /\ ~b is contradictory propositionally.
        goal = Goal({"b": BOOL}, [IVar("b"), terms.bnot(IVar("b"))],
                    terms.FALSE)
        assert self.prove(goal).proved

    def test_boolean_conclusion_variable(self):
        goal = Goal({"b": BOOL}, [IVar("b")], IVar("b"))
        assert self.prove(goal).proved

    def test_disjunctive_hypothesis_case_split(self):
        # (i = 0 \/ i = 1) ==> i < 2
        hyp = terms.bor(eq(IVar("i"), IConst(0)), eq(IVar("i"), IConst(1)))
        goal = Goal({"i": INT}, [hyp], lt(IVar("i"), IConst(2)))
        assert self.prove(goal).proved

    def test_conjunction_conclusion(self):
        concl = terms.band(
            terms.cmp(">=", IVar("n"), IConst(0)),
            lt(IVar("n"), terms.iadd(IVar("n"), IConst(1))),
        )
        goal = Goal({"n": NAT}, [], concl)
        assert self.prove(goal).proved

    def test_disequality_conclusion(self):
        goal = Goal({"n": NAT}, [],
                    terms.cmp("<>", IVar("n"), IConst(-5)))
        assert self.prove(goal).proved

    def test_unsolved_evar_fails_closed(self):
        store = EvarStore()
        ev = store.fresh("M", set())
        goal = Goal({}, [], terms.cmp(">=", ev, IConst(0)))
        result = prove_goal(goal, store, FOURIER)
        assert not result.proved
        assert "existential" in result.reason


class TestOperatorElimination:
    def prove(self, rigid, hyps, concl):
        return prove_goal(Goal(rigid, hyps, concl), EvarStore(), FOURIER)

    def test_div_floor_bounds(self):
        # 0 <= n div 2 <= n for n >= 0.
        half = terms.BinOp("div", IVar("n"), IConst(2))
        assert self.prove(
            {"n": NAT}, [],
            terms.band(
                terms.cmp("<=", IConst(0), half),
                terms.cmp("<=", half, IVar("n")),
            ),
        ).proved

    def test_div_negative_divisor(self):
        # n div -2 <= 0 for n >= 0.
        q = terms.BinOp("div", IVar("n"), IConst(-2))
        assert self.prove(
            {"n": NAT}, [], terms.cmp("<=", q, IConst(0))
        ).proved

    def test_div_nonconstant_divisor_unsupported(self):
        q = terms.BinOp("div", IVar("n"), IVar("m"))
        result = self.prove({"n": NAT, "m": NAT}, [],
                            terms.cmp("<=", IConst(0), q))
        assert not result.proved
        assert "divisor" in result.reason

    def test_mod_bounds(self):
        r = terms.BinOp("mod", IVar("n"), IConst(8))
        assert self.prove(
            {"n": INT}, [],
            terms.band(terms.cmp("<=", IConst(0), r), lt(r, IConst(8))),
        ).proved

    def test_min_max(self):
        m = terms.imin(IVar("a"), IVar("b"))
        assert self.prove(
            {"a": INT, "b": INT}, [],
            terms.band(terms.cmp("<=", m, IVar("a")),
                       terms.cmp("<=", m, IVar("b"))),
        ).proved
        x = terms.imax(IVar("a"), IVar("b"))
        assert self.prove(
            {"a": INT, "b": INT}, [], terms.cmp(">=", x, IVar("a"))
        ).proved

    def test_min_is_one_of(self):
        m = terms.imin(IVar("a"), IVar("b"))
        assert self.prove(
            {"a": INT, "b": INT}, [],
            terms.bor(eq(m, IVar("a")), eq(m, IVar("b"))),
        ).proved

    def test_abs(self):
        a = terms.iabs(IVar("x"))
        assert self.prove({"x": INT}, [], terms.cmp(">=", a, IConst(0))).proved
        assert self.prove({"x": INT}, [], terms.cmp(">=", a, IVar("x"))).proved
        assert not self.prove({"x": INT}, [], eq(a, IVar("x"))).proved

    def test_sgn(self):
        s = terms.isgn(IVar("x"))
        assert self.prove(
            {"x": INT}, [],
            terms.band(terms.cmp("<=", IConst(-1), s),
                       terms.cmp("<=", s, IConst(1))),
        ).proved

    def test_sgn_relates_to_sign(self):
        s = terms.isgn(IVar("x"))
        assert self.prove(
            {"x": INT}, [terms.cmp(">", IVar("x"), IConst(0))],
            eq(s, IConst(1)),
        ).proved

    def test_nested_div(self):
        # (n div 2) div 2 = n div 4 is NOT generally refutable, but
        # quarter <= half <= n holds for n >= 0.
        half = terms.BinOp("div", IVar("n"), IConst(2))
        quarter = terms.BinOp("div", half, IConst(2))
        assert self.prove(
            {"n": NAT}, [], terms.cmp("<=", quarter, IVar("n"))
        ).proved

    def test_nonlinear_reported(self):
        prod = terms.BinOp("*", IVar("a"), IVar("b"))
        result = self.prove({"a": INT, "b": INT}, [],
                            terms.cmp(">=", prod, IConst(0)))
        assert not result.proved


class TestSharedHypotheses:
    """Goals of one check with the same hypotheses share one hypothesis
    context; sharing must not change what a goal proves or spends."""

    I, N = IVar("i"), IVar("n")
    HYPS = [
        terms.bor(lt(I, N), eq(I, terms.BinOp("min", N, IConst(7)))),
        terms.cmp("<>", I, IConst(3)),
        terms.cmp(">=", I, IConst(0)),
    ]
    RIGID = {"i": INT, "n": NAT}

    @pytest.fixture
    def spent(self, monkeypatch):
        """Steps each goal's budget spent, in proof order."""
        budgets = []
        start = budget_module.Budget.start.__func__

        def recording(cls, limits=None):
            budgets.append(start(cls, limits))
            return budgets[-1]

        monkeypatch.setattr(
            budget_module.Budget, "start", classmethod(recording)
        )
        return lambda: [1_000_000 - b.remaining for b in budgets]

    def run(self, store, concl, limits=SolverLimits(max_steps=1_000_000)):
        goal = Goal(dict(self.RIGID), list(self.HYPS), concl)
        return prove_goal(
            goal, store, FOURIER, limits=limits, slicing=SliceContext()
        )

    def test_goals_share_one_context(self):
        store = EvarStore()
        first = Goal(dict(self.RIGID), list(self.HYPS), lt(self.I, IConst(9)))
        second = Goal(dict(self.RIGID), list(self.HYPS), lt(self.I, self.N))
        assert hypothesis_context(first, store) is hypothesis_context(
            second, store
        )
        assert len(store.hypotheses) == 1
        # A snapshot shares the table; a new check starts empty.
        assert store.snapshot().hypotheses is store.hypotheses
        assert EvarStore().hypotheses == {}

    def test_a_finished_check_releases_its_table(self):
        report = api.check(
            programs.load_source("bsearch"), "bsearch.dml", cache=None
        )
        assert report.stats.proved == report.stats.goals > 0
        assert report.elab.store.hypotheses == {}
        assert report.elab.store.memberships == {}

    def test_second_goal_proves_and_spends_as_if_alone(self, spent):
        concl = terms.cmp(
            "<", terms.BinOp("max", self.I, IConst(0)), terms.iadd(self.N, IConst(8))
        )
        shared = EvarStore()
        self.run(shared, lt(self.I, IConst(100)))
        after_first = self.run(shared, concl)
        alone = self.run(EvarStore(), concl)
        assert after_first.proved and alone.proved
        assert after_first.cases == alone.cases
        steps = spent()
        assert steps[1] == steps[2] > 0

    def test_case_explosion_memo_keeps_no_frames_alive(self):
        wide = terms.FALSE
        for k in range(65):
            wide = terms.bor(wide, eq(self.I, IConst(k)))
        formula = terms.band(wide, terms.bor(wide, lt(self.N, self.I)))
        for _ in range(20):
            with pytest.raises(UnsupportedGoal) as exc:
                _split_cases(formula)
        depth, tb = 0, exc.value.__traceback__
        while tb is not None:
            depth, tb = depth + 1, tb.tb_next
        assert depth <= 3
        assert "case explosion" in str(exc.value)


class TestProveAll:
    def test_stats_accumulate(self):
        store = EvarStore()
        c = cs.conj([
            cs.CForall("n", NAT, cs.CProp(terms.cmp(">=", IVar("n"), IConst(0)))),
            cs.CProp(lt(IConst(0), IConst(1))),
        ])
        stats = SolveStats()
        results = prove_all(c, store, FOURIER, stats)
        assert stats.goals == 2 and stats.proved == 2
        assert all(r.proved for r in results)

    def test_goal_str_rendering(self):
        goal = Goal({"n": NAT}, [lt(IVar("i"), IVar("n"))],
                    terms.cmp(">=", IVar("n"), IConst(0)))
        text = str(goal)
        assert "forall n" in text and "==>" in text
