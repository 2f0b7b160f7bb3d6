"""Fits on the seeded corpus of golden_corpus.py reproduce their recorded moves.

The fixture pins, per case, every step's (kind, object, index, promotion),
the termination reason, the final pattern and the final loss.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from mtgreedy import check_step_records, fit, loss, verify_trace

from golden_corpus import FIXTURE, cases, matches, merge, render, summarize

RECORDED = json.loads(FIXTURE.read_text())
CASES = cases()


def test_fixture_covers_the_corpus():
    assert [name for name, _, _ in CASES] == list(RECORDED)


@pytest.mark.parametrize("name, problem, config", CASES, ids=[c[0] for c in CASES])
def test_fit_reproduces_recorded_outcome(name, problem, config):
    report = fit(problem, config)
    got, want = summarize(report), RECORDED[name]
    assert matches(got, want), (got, want)
    verify_trace(problem, config, report)


def test_recorder_keeps_matching_entries_and_writes_the_rest():
    want = RECORDED["planted_1"]
    near = dict(want, final_loss=want["final_loss"] * (1.0 + 1e-12))
    moved = dict(want, steps=want["steps"][:-1])
    stopped = dict(want, termination="max-steps")
    drifted = dict(want, final_loss=want["final_loss"] * (1.0 + 1e-6))
    fitted = {"near": near, "moved": moved, "stopped": stopped, "drifted": drifted, "new": want}
    recorded = {name: want for name in ("gone", "near", "moved", "stopped", "drifted")}
    entries, written = merge(recorded, fitted)
    assert list(entries) == list(fitted)
    assert entries["near"] is want
    assert all(entries[name] is fitted[name] for name in written)
    assert written == ["moved", "stopped", "drifted", "new"]


def test_rendering_the_fixture_reproduces_its_bytes():
    """So the recorder leaves a fixture whose entries all match unchanged."""
    assert render(RECORDED) == FIXTURE.read_text()


def test_ledger_pairing_is_checked_by_step_index():
    _, problem, config = next(c for c in CASES if c[0] == "planted_1")
    report = fit(problem, config)
    k, s = next((k, s) for k, s in enumerate(report.steps) if s.kind == "backward")
    wrong = s.popped_step - 1 if s.popped_step else s.popped_step + 1
    bad = list(report.steps)
    bad[k] = replace(s, popped_step=wrong)
    tampered = replace(report, steps=tuple(bad))
    with pytest.raises(AssertionError, match=f"step {k}: pops step {wrong}"):
        check_step_records(tampered, config, loss(problem, np.zeros((problem.p, problem.r))))
    with pytest.raises(AssertionError, match=f"step {k}: pops step {wrong}"):
        verify_trace(problem, config, tampered)
