import math

import pytest
from hypothesis import given, strategies as st

from repsim import (
    MechanismParams,
    PayoffParams,
    ReputationType,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
)
from repsim.master import RunState, play
from repsim.model import make_stream
from repsim.reputation import responsiveness, truthfulness

L, E, B = ReputationType.LINEAR, ReputationType.EXPONENTIAL, ReputationType.BOINC
A, M = WorkerType.ALTRUISTIC, WorkerType.MALICIOUS
COLUMNS = ("selections", "replies", "audits", "honest", "streak")


def truth(rep_type, audited=0, correct=0, streak=0, epsilon=0.5):
    return truthfulness(rep_type, audited, correct, streak, epsilon)


def one_worker(worker_type=A, rep_type=L, epsilon=0.5, counters=(0, 0, 0, 0, 0)):
    """Run state of a pool of one worker that is selected every round,
    with its (selections, replies, audits, honest, streak) preset."""
    config = ScenarioConfig(
        workers=(WorkerSpec(0, worker_type),),
        payoffs=PayoffParams(),
        mechanism=MechanismParams(
            pool_size_N=1, select_n=1, reputation_type=rep_type,
            exponential_base_epsilon=epsilon, selection_policy=SelectionPolicy.FIXED_RANDOM,
        ),
    )
    state = RunState(config, make_stream(0))
    for column, value in zip(COLUMNS, counters):
        getattr(state, column)[0] = value
    return state


def counters(state):
    return tuple(getattr(state, column)[0] for column in COLUMNS)


def play_round(state, replied=True, audited=True):
    """One round of ``play`` with its draws forced: the worker
    replies iff ``replied`` and the master audits iff ``audited``."""
    state.availability[0] = 1.0 if replied else 0.0
    state.audit_prob = 1.0 if audited else 0.0
    return next(play(state, make_stream(1)))


# Valid histories: per round (replied?, audit outcome in {None, True, False}).
rounds = st.lists(
    st.tuples(st.booleans(), st.sampled_from([None, True, False])),
    max_size=60,
)


def replay(history, rep_type=L, epsilon=0.5):
    """Feed a history to one worker through the round engine: the worker's
    pinned cheat probability is 0 for an honest audit and 1 for a caught
    cheat, and an audit outcome is only counted for a reply."""
    state = one_worker(rep_type=rep_type, epsilon=epsilon)
    for replied, audit in history:
        state.cheat_prob[0] = 1.0 if audit is False else 0.0
        play_round(state, replied=replied, audited=audit is not None)
    return state


class TestResponsiveness:
    def test_fresh_worker(self):
        assert responsiveness(0, 0) == 1.0

    def test_partial_responder(self):
        assert responsiveness(2, 4) == 0.6

    def test_fully_responsive(self):
        assert responsiveness(10, 10) == 1.0


class TestTruthfulness:
    def test_linear(self):
        assert truth(L, audited=4, correct=3) == 0.8

    def test_exponential(self):
        assert truth(E, audited=5, correct=3, epsilon=0.5) == 0.25

    def test_boinc_below_and_at_threshold(self):
        assert truth(B, audited=9, correct=9, streak=9) == 0.0
        assert truth(B, audited=10, correct=10, streak=10) == 0.9

    def test_fresh_counters_all_types(self):
        assert truth(L) == 1.0
        assert truth(E, epsilon=0.5) == 1.0
        assert truth(B) == 0.0


class TestCombined:
    """Selection ranks the product of the two factors."""

    def test_fresh_linear(self):
        state = one_worker(rep_type=L)
        assert state.resp[0] * state.truth[0] == 1.0

    def test_fresh_boinc(self):
        state = one_worker(rep_type=B)
        assert state.resp[0] * state.truth[0] == 0.0

    def test_product_of_factors(self):
        assert responsiveness(2, 4) * truth(L, audited=4, correct=3) == pytest.approx(
            0.48, abs=1e-12
        )


class TestRecordOps:
    def test_selection_increments_only_select(self):
        state = one_worker()
        play_round(state, replied=False)
        assert counters(state) == (1, 0, 0, 0, 0)
        state = one_worker(counters=(7, 3, 2, 2, 2))
        play_round(state, replied=False)
        assert counters(state) == (8, 3, 2, 2, 2)

    def test_reply_updates_responsiveness(self):
        state = one_worker()
        play_round(state, replied=False)
        assert state.resp[0] == 0.5
        state = one_worker()
        play_round(state, replied=True, audited=False)
        assert counters(state) == (1, 1, 0, 0, 0)
        assert state.resp[0] == 1.0

    def test_truthful_audit(self):
        state = one_worker()
        play_round(state)
        assert (state.audits[0], state.honest[0], state.streak[0]) == (1, 1, 1)

    def test_streak_crosses_boinc_threshold(self):
        state = one_worker(rep_type=B, counters=(9, 9, 9, 9, 9))
        assert state.truth[0] == 0.0
        play_round(state)
        assert state.truth[0] == 0.9

    def test_caught_cheating_resets_streak(self):
        state = one_worker(M, counters=(30, 30, 25, 23, 23))
        play_round(state)
        assert state.streak[0] == 0
        assert state.honest[0] == 23
        assert state.audits[0] == 26


@given(rounds)
def test_counter_inequalities_preserved(history):
    state = replay(history)
    selections, replies, audits, honest, streak = counters(state)
    assert replies <= selections
    assert audits <= replies
    assert honest <= audits
    assert streak <= honest
    # the cached factors equal the reputation functions of the counters,
    # and the ranking key is their negated product
    assert state.resp[0] == responsiveness(replies, selections)
    assert state.truth[0] == truth(L, audits, honest, streak)
    assert state.rank_key[0] == -(state.resp[0] * state.truth[0])


@given(rounds)
def test_reputations_bounded(history):
    selections, replies, audits, honest, streak = counters(replay(history))
    rho_rs = responsiveness(replies, selections)
    assert 0.0 < rho_rs <= 1.0
    for rep_type in (L, E, B):
        score = truth(rep_type, audits, honest, streak, epsilon=0.5)
        assert 0.0 <= score <= 1.0
        assert 0.0 <= rho_rs * score <= 1.0


@given(rounds)
def test_linear_monotonicity(history):
    before = replay(history).truth[0]
    assert replay(history + [(True, True)]).truth[0] >= before
    assert replay(history + [(True, False)]).truth[0] <= before


@given(rounds, st.floats(min_value=0.05, max_value=0.95))
def test_exponential_depends_only_on_catch_count(history, epsilon):
    state = replay(history, E, epsilon)
    catches = sum(
        1 for replied, audit in history if replied and audit is False
    )
    assert state.truth[0] == epsilon ** catches
    # one more catch strictly decreases it, however many honest audits intervene
    history = history + [(True, True), (True, True)]
    intermediate = replay(history, E, epsilon).truth[0]
    assert intermediate == epsilon ** catches
    assert replay(history + [(True, False)], E, epsilon).truth[0] < intermediate


@given(rounds)
def test_boinc_threshold(history):
    state = replay(history, B)
    score, streak = state.truth[0], state.streak[0]
    if streak < 10:
        assert score == 0.0
    else:
        assert score == 1.0 - 1.0 / streak
        assert 0.9 <= score < 1.0


def test_boinc_strictly_increasing_beyond_threshold():
    scores = [truth(B, audited=s, correct=s, streak=s) for s in range(10, 200)]
    assert all(b > a for a, b in zip(scores, scores[1:]))
    assert scores[-1] < 1.0
    assert math.isclose(scores[-1], 1 - 1 / 199)
