"""Replay of minimized fuzzer findings.

Every ``tests/corpus/fuzz_regressions/*.dml`` is a shrunk repro of a
bug this PR (or a future fuzzing run) fixed; the differential oracle
re-runs each one across every dialect and demands full
agreement.  Dropping a file here without the fix regressing is the
only way these ever go green-to-red."""

from pathlib import Path

import pytest

from repro import api
from repro.fuzz.oracle import run_differential

CORPUS = Path(__file__).parent.parent / "corpus" / "fuzz_regressions"
PROGRAMS = sorted(CORPUS.glob("*.dml"))


def test_corpus_is_seeded():
    assert {p.stem for p in PROGRAMS} >= {
        "packed_overflow", "numpy_wrap", "empty_array",
        "pi_hyp_leak", "nth_negative",
    }


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_replay(path):
    result = run_differential(path.read_text(), name=path.stem)
    assert result.ok, result.render()


class TestPiHypLeak:
    """The elaborator soundness bug the fuzzer's first 500-iteration
    run caught: hypotheses from checking a lambda against a dependent
    Pi parameter (``tabulate(0, fn j => j)`` introduces ``i >= 0,
    i < 0``) leaked into the constraints of *subsequent* declarations,
    making false obligations vacuously provable."""

    def test_oob_update_after_tabulate_stays_checked(self):
        source = (CORPUS / "pi_hyp_leak.dml").read_text()
        report = api.check(source, "pi_hyp_leak")
        assert not report.all_proved
        assert report.structural_ok is False or report.sites
        # The out-of-bounds update site must NOT be eliminable.
        assert not report.eliminable_sites()

    def test_interp_raises_bounds_error(self):
        source = (CORPUS / "pi_hyp_leak.dml").read_text()
        result = run_differential(source, name="pi_hyp_leak")
        assert result.outcomes["interp-checked"].error == "BoundsError"


class TestNthNegative:
    def test_compiled_nth_rejects_negative_index(self):
        source = (CORPUS / "nth_negative.dml").read_text()
        result = run_differential(source, name="nth_negative")
        # Reference semantics: walking past nil raises TagError; the
        # compiled _nth_checked must not wrap around Python-style.
        for engine, outcome in result.outcomes.items():
            assert outcome.error == "TagError", (engine, outcome)
