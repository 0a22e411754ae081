import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repsim import ReputationType
from repsim.reputation import (
    ReputationLedger,
    combined_reputation,
    responsiveness,
    truthfulness,
)

L, E, B = ReputationType.LINEAR, ReputationType.EXPONENTIAL, ReputationType.BOINC


def ledger(select=0, reply=0, audited=0, correct=0, streak=0):
    return ReputationLedger(select, reply, audited, correct, streak)


# Valid ledger histories: per round (replied?, audit outcome in {None, True, False}).
rounds = st.lists(
    st.tuples(st.booleans(), st.sampled_from([None, True, False])),
    max_size=60,
)


def replay(history) -> ReputationLedger:
    led = ReputationLedger()
    for replied, audit in history:
        led.record_selection()
        if replied:
            led.record_reply()
            if audit is not None:
                led.record_audit_outcome(audit)
    return led


class TestResponsiveness:
    def test_fresh_worker(self):
        assert responsiveness(ledger()) == 1.0

    def test_partial_responder(self):
        assert responsiveness(ledger(select=4, reply=2)) == 0.6

    def test_fully_responsive(self):
        assert responsiveness(ledger(select=10, reply=10)) == 1.0


class TestTruthfulness:
    def test_linear(self):
        assert truthfulness(ledger(audited=4, correct=3), L) == 0.8

    def test_exponential(self):
        assert truthfulness(ledger(audited=5, correct=3), E, epsilon=0.5) == 0.25

    def test_boinc_below_and_at_threshold(self):
        assert truthfulness(ledger(audited=9, correct=9, streak=9), B) == 0.0
        assert truthfulness(ledger(audited=10, correct=10, streak=10), B) == 0.9

    def test_fresh_ledger_all_types(self):
        fresh = ledger()
        assert truthfulness(fresh, L) == 1.0
        assert truthfulness(fresh, E, epsilon=0.5) == 1.0
        assert truthfulness(fresh, B) == 0.0


class TestCombined:
    def test_fresh_linear(self):
        assert combined_reputation(ledger(), L) == 1.0

    def test_fresh_boinc(self):
        assert combined_reputation(ledger(), B) == 0.0

    def test_product_of_factors(self):
        led = ledger(select=4, reply=2, audited=4, correct=3)
        assert combined_reputation(led, L) == pytest.approx(0.48, abs=1e-12)


class TestRecordOps:
    def test_selection_increments_only_select(self):
        led = ledger()
        led.record_selection()
        assert led == ledger(select=1)
        led = ledger(select=7, reply=3, audited=2, correct=2, streak=2)
        led.record_selection()
        assert led == ledger(select=8, reply=3, audited=2, correct=2, streak=2)

    def test_reply_updates_responsiveness(self):
        led = ledger(select=1)
        assert responsiveness(led) == 0.5
        led.record_reply()
        assert led == ledger(select=1, reply=1)
        assert responsiveness(led) == 1.0

    def test_truthful_audit(self):
        led = ledger(select=1, reply=1)
        led.record_audit_outcome(True)
        assert (led.audit_reply_select_count, led.correct_audit_count, led.streak) == (1, 1, 1)

    def test_streak_crosses_boinc_threshold(self):
        led = ledger(select=9, reply=9, audited=9, correct=9, streak=9)
        assert truthfulness(led, B) == 0.0
        led.record_audit_outcome(True)
        assert truthfulness(led, B) == 0.9

    def test_caught_cheating_resets_streak(self):
        led = ledger(select=30, reply=30, audited=25, correct=23, streak=23)
        led.record_audit_outcome(False)
        assert led.streak == 0
        assert led.correct_audit_count == 23
        assert led.audit_reply_select_count == 26


@given(rounds)
def test_counter_inequalities_preserved(history):
    led = replay(history)
    assert led.reply_select_count <= led.select_count
    assert led.audit_reply_select_count <= led.reply_select_count
    assert led.correct_audit_count <= led.audit_reply_select_count
    assert led.streak <= led.correct_audit_count


@given(rounds)
def test_reputations_bounded(history):
    led = replay(history)
    assert 0.0 < responsiveness(led) <= 1.0
    for rep_type in (L, E, B):
        assert 0.0 <= truthfulness(led, rep_type, epsilon=0.5) <= 1.0
        assert 0.0 <= combined_reputation(led, rep_type, epsilon=0.5) <= 1.0


@given(rounds)
def test_linear_monotonicity(history):
    led = replay(history)
    before = truthfulness(led, L)
    honest = replace(led)
    honest.record_audit_outcome(True)
    assert truthfulness(honest, L) >= before
    caught = replace(led)
    caught.record_audit_outcome(False)
    assert truthfulness(caught, L) <= before


@given(rounds, st.floats(min_value=0.05, max_value=0.95))
def test_exponential_depends_only_on_catch_count(history, epsilon):
    led = replay(history)
    catches = sum(
        1 for replied, audit in history if replied and audit is False
    )
    assert truthfulness(led, E, epsilon) == epsilon ** catches
    # one more catch strictly decreases it, however many honest audits intervene
    led.record_audit_outcome(True)
    led.record_audit_outcome(True)
    intermediate = truthfulness(led, E, epsilon)
    assert intermediate == epsilon ** catches
    led.record_audit_outcome(False)
    assert truthfulness(led, E, epsilon) < intermediate


@given(rounds)
def test_boinc_threshold(history):
    led = replay(history)
    score = truthfulness(led, B)
    if led.streak < 10:
        assert score == 0.0
    else:
        assert score == 1.0 - 1.0 / led.streak
        assert 0.9 <= score < 1.0


def test_boinc_strictly_increasing_beyond_threshold():
    scores = [truthfulness(ledger(audited=s, correct=s, streak=s), B) for s in range(10, 200)]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    assert scores[-1] < 1.0
    assert math.isclose(scores[-1], 1 - 1 / 199)
