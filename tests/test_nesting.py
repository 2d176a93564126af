"""Deeply nested input is the user's fault: it must end in a located
``DMLError`` (CLI exit 2, daemon HTTP 422), never a ``RecursionError``
traceback.  The front end is recursive descent, so each of its three
per-declaration loops (parse, ML inference, elaboration) turns a
``RecursionError`` into :class:`NestingTooDeep` carrying the
declaration's span.  The daemon side of the contract lives in
``tests/server`` next to the other 422 tests."""

import inspect
import sys

import pytest

from repro import api, programs
from repro.cli import main
from repro.core.elaborate import elaborate_program
from repro.core.ml_infer import MLInferencer
from repro.lang.errors import DMLError, NestingTooDeep
from repro.lang.parser import parse_program

PRELUDE = "val ok = 1\n"
#: A flat sum: parses, but ML inference recurses once per ``+``.
DEEP_SUM = "val x = " + " + ".join(["1"] * 250) + "\n"
#: Nested parentheses: the parser recurses about ten frames per level.
DEEP_PARENS = "val y = " + "(" * 120 + "1" + ")" * 120 + "\n"


@pytest.mark.parametrize("deep", [DEEP_SUM, DEEP_PARENS], ids=["sum", "parens"])
class TestDeepInput:
    def test_check_raises_a_located_dml_error(self, deep):
        source = PRELUDE + deep
        with pytest.raises(NestingTooDeep) as exc:
            api.check(source, "deep.dml")
        assert isinstance(exc.value, DMLError)
        assert exc.value.message == "nesting too deep"
        # The span points into the offending declaration, not the
        # well-formed one before it.
        assert exc.value.span.start == len(PRELUDE)
        assert exc.value.span.end > exc.value.span.start

    def test_cli_prints_a_diagnostic(self, deep, tmp_path, capsys):
        path = tmp_path / "deep.dml"
        path.write_text(deep)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nesting too deep" in err
        assert "Traceback" not in err


def test_parser_reports_the_declaration():
    with pytest.raises(NestingTooDeep) as exc:
        parse_program(PRELUDE + DEEP_PARENS)
    assert exc.value.span.start == len(PRELUDE)


def _prelude_inferencer() -> MLInferencer:
    inferencer = MLInferencer()
    inferencer.infer_program(parse_program(programs.prelude_source()))
    return inferencer


def test_inference_reports_the_declaration():
    program = parse_program(PRELUDE + DEEP_SUM)
    with pytest.raises(NestingTooDeep) as exc:
        _prelude_inferencer().infer_program(program)
    assert exc.value.span == program.decls[1].span


def test_elaboration_reports_the_declaration():
    # Infer at the normal limit, then elaborate under a lower one, so
    # the overflow is elaboration's wherever the test runner's own
    # stack depth puts the two phases' natural thresholds.
    source = PRELUDE + "val z = " + " + ".join(["1"] * 100) + "\n"
    inferred = _prelude_inferencer().infer_program(parse_program(source))
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        with pytest.raises(NestingTooDeep) as exc:
            elaborate_program(inferred.program, inferred.env)
    finally:
        sys.setrecursionlimit(limit)
    assert exc.value.span == inferred.program.decls[1].span
