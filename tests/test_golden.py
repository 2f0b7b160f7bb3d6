"""Fits on the seeded corpus of golden_corpus.py reproduce their recorded moves.

The fixture pins, per case, every step's (kind, object, index, promotion),
the termination reason, the final pattern and the final loss.
"""

import json

import pytest

from mtgreedy import fit, verify_trace

from golden_corpus import FIXTURE, cases, summarize

RECORDED = json.loads(FIXTURE.read_text())
CASES = cases()


def test_fixture_covers_the_corpus():
    assert [name for name, _, _ in CASES] == list(RECORDED)


@pytest.mark.parametrize("name, problem, config", CASES, ids=[c[0] for c in CASES])
def test_fit_reproduces_recorded_outcome(name, problem, config):
    report = fit(problem, config)
    got, want = summarize(report), RECORDED[name]
    assert got["steps"] == want["steps"]
    assert got["termination"] == want["termination"]
    assert (got["singletons"], got["rows"]) == (want["singletons"], want["rows"])
    assert got["final_loss"] == pytest.approx(want["final_loss"], rel=1e-9, abs=1e-25)
    verify_trace(problem, config, report)
