"""Property-based differential testing of the execution engines.

Random well-typed programs are generated as source text, then run
through (a) the instrumented interpreter and (b) the Python code
generator — in every compilation dialect.  All must agree
with each other — and, for the arithmetic fragment, with a direct
Python evaluation of the same expression tree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.compile.dialects import dialect_names, get_dialect
from repro.compile.pycodegen import compile_program
from repro.eval.interp import Interpreter

DIALECTS = dialect_names()


# -- expression generator ----------------------------------------------------
#
# Generates pairs (source_text, python_fn) denoting the same function
# of one integer argument.  Division/modulo use guarded constant
# divisors so both semantics are total and SML-compatible (Python //
# and % agree with SML div/mod).


def _atom():
    return st.one_of(
        st.integers(-20, 20).map(lambda k: (str(k) if k >= 0 else f"(~{-k})",
                                            lambda x, _k=k: _k)),
        st.just(("x", lambda x: x)),
    )


def _combine(op, left, right):
    ls, lf = left
    rs, rf = right
    if op == "+":
        return (f"({ls} + {rs})", lambda x: lf(x) + rf(x))
    if op == "-":
        return (f"({ls} - {rs})", lambda x: lf(x) - rf(x))
    if op == "*":
        return (f"({ls} * {rs})", lambda x: lf(x) * rf(x))
    raise AssertionError(op)


def _divmod_node(child, divisor, use_div):
    cs_, cf = child
    if use_div:
        return (f"({cs_} div {divisor})", lambda x: cf(x) // divisor)
    return (f"({cs_} mod {divisor})", lambda x: cf(x) % divisor)


def _if_node(cond_l, cond_r, then, els):
    ls, lf = cond_l
    rs, rf = cond_r
    ts, tf = then
    es, ef = els
    return (
        f"(if {ls} < {rs} then {ts} else {es})",
        lambda x: tf(x) if lf(x) < rf(x) else ef(x),
    )


def _let_node(bound, body_op, other):
    bs, bf = bound
    os_, of = other
    # let val y = bound in y OP other end -- y shadows nothing.
    src = f"(let val y = {bs} in (y {body_op} {os_}) end)"
    if body_op == "+":
        return (src, lambda x: bf(x) + of(x))
    return (src, lambda x: bf(x) * of(x))


def _min_max_abs(node, which):
    s, f = node
    if which == "abs":
        return (f"abs({s})", lambda x: abs(f(x)))
    if which == "min":
        return (f"min({s}, 3)", lambda x: min(f(x), 3))
    return (f"max({s}, 3)", lambda x: max(f(x), 3))


def exprs(depth=3):
    if depth == 0:
        return _atom()
    sub = exprs(depth - 1)
    return st.one_of(
        _atom(),
        st.tuples(st.sampled_from("+-*"), sub, sub).map(
            lambda t: _combine(*t)
        ),
        st.tuples(sub, st.sampled_from([2, 3, 5, 7]), st.booleans()).map(
            lambda t: _divmod_node(*t)
        ),
        st.tuples(sub, sub, sub, sub).map(lambda t: _if_node(*t)),
        st.tuples(sub, st.sampled_from("+*"), sub).map(
            lambda t: _let_node(*t)
        ),
        st.tuples(sub, st.sampled_from(["abs", "min", "max"])).map(
            lambda t: _min_max_abs(*t)
        ),
    )


@pytest.mark.parametrize("dialect_name", DIALECTS)
@given(exprs(), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_engines_agree_with_reference(dialect_name, expr, arg):
    source_expr, reference = expr
    source = f"fun f(x) = {source_expr}"
    report = api.check(source, "<prop>")
    interp = Interpreter(report.program, report.eliminable_sites(),
                         env=report.env)
    module = compile_program(
        report.program, report.env, report.eliminable_sites(), "prop",
        dialect=dialect_name,
    )
    expected = reference(arg)
    assert interp.call("f", arg) == expected
    assert module.run("f", arg) == expected


@pytest.mark.parametrize("dialect_name", DIALECTS)
@given(st.lists(st.integers(-1000, 1000), max_size=30))
@settings(max_examples=30, deadline=None)
def test_sort_engines_agree(dialect_name, data):
    report = api.check_corpus("quicksort")
    dialect = get_dialect(dialect_name)
    interp = Interpreter(report.program, report.eliminable_sites(),
                         env=report.env)
    module = compile_program(
        report.program, report.env, report.eliminable_sites(), "qs",
        dialect=dialect_name,
    )
    a = list(data)
    buf = dialect.adapt_value(list(data))
    interp.call("quicksort", a)
    module.call("quicksort", buf)
    assert a == dialect.extract_value(buf) == sorted(data)


@pytest.mark.parametrize("dialect_name", DIALECTS)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40),
       st.lists(st.integers(0, 3), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_kmp_matches_python_find(dialect_name, text, pattern):
    report = api.check_corpus("kmp")
    module = compile_program(
        report.program, report.env, report.eliminable_sites(), "kmp",
        dialect=dialect_name,
    )
    expected = -1
    for i in range(len(text) - len(pattern) + 1):
        if text[i:i + len(pattern)] == pattern:
            expected = i
            break
    assert module.run("kmpMatch", (text, pattern)) == expected
