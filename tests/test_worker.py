import numpy as np
import pytest
from hypothesis import given, strategies as st

from repsim import (
    PayoffParams,
    ReplyValue,
    WorkerSpec,
    WorkerType,
)
from repsim.model import make_stream
from repsim.worker import WorkerState

PAYOFFS = PayoffParams(punishment_WPc=0.0, task_cost_WCt=0.1, reward_WBy=1.0)
ALPHA = 0.1


def rational(cheat_prob=0.5, availability=1.0, aspiration=0.1):
    spec = WorkerSpec(0, WorkerType.RATIONAL, availability=availability,
                      aspiration=aspiration, initial_cheat_prob=cheat_prob)
    return WorkerState.from_spec(spec)


def fixed(worker_type, availability=1.0):
    return WorkerState.from_spec(WorkerSpec(0, worker_type, availability=availability))


class TestAvailability:
    def test_always_available(self):
        rng = make_stream(1)
        w = fixed(WorkerType.ALTRUISTIC, availability=1.0)
        assert all(w.draw_availability(rng) for _ in range(1000))

    def test_half_available_mean(self):
        # binomial: 10000 draws at d=0.5, mean within +/-0.02 (~4 sigma)
        rng = make_stream(2)
        w = fixed(WorkerType.ALTRUISTIC, availability=0.5)
        mean = np.mean([w.draw_availability(rng) for _ in range(10_000)])
        assert 0.48 <= mean <= 0.52

    def test_distinct_workers_draw_independently(self):
        rng = make_stream(3)
        a = fixed(WorkerType.ALTRUISTIC, availability=0.5)
        b = fixed(WorkerType.ALTRUISTIC, availability=0.5)
        draws = np.array(
            [(a.draw_availability(rng), b.draw_availability(rng)) for _ in range(10_000)],
            dtype=float,
        )
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.05


class TestProduceReply:
    def test_malicious_always_wrong(self):
        rng = make_stream(4)
        w = fixed(WorkerType.MALICIOUS)
        for _ in range(100):
            reply = w.produce_reply(rng)
            assert reply.value is ReplyValue.WRONG and reply.was_cheat

    def test_altruistic_always_correct(self):
        rng = make_stream(5)
        w = fixed(WorkerType.ALTRUISTIC)
        for _ in range(100):
            reply = w.produce_reply(rng)
            assert reply.value is ReplyValue.CORRECT and not reply.was_cheat

    def test_rational_with_zero_cheat_prob(self):
        rng = make_stream(6)
        w = rational(cheat_prob=0.0)
        for _ in range(100):
            assert w.produce_reply(rng).value is ReplyValue.CORRECT

    def test_wrong_iff_cheat(self):
        rng = make_stream(7)
        w = rational(cheat_prob=0.5)
        for _ in range(200):
            reply = w.produce_reply(rng)
            assert (reply.value is ReplyValue.WRONG) == reply.was_cheat

    def test_initial_cheat_prob_by_type(self):
        assert fixed(WorkerType.MALICIOUS).cheat_prob == 1.0
        assert fixed(WorkerType.ALTRUISTIC).cheat_prob == 0.0
        assert rational(cheat_prob=0.25).cheat_prob == 0.25


class TestUpdateCheatProb:
    def test_unaudited_cheater_in_majority(self):
        w = rational(0.5)
        w.update_cheat_prob(payoff=1.0, did_cheat=True, payoffs=PAYOFFS, alpha_w=ALPHA)
        assert w.cheat_prob == pytest.approx(0.59, abs=1e-12)

    def test_honest_rewarded(self):
        w = rational(0.5)
        w.update_cheat_prob(payoff=1.0, did_cheat=False, payoffs=PAYOFFS, alpha_w=ALPHA)
        assert w.cheat_prob == pytest.approx(0.42, abs=1e-12)

    def test_audited_cheater_no_punishment(self):
        w = rational(0.5)
        w.update_cheat_prob(payoff=0.0, did_cheat=True, payoffs=PAYOFFS, alpha_w=ALPHA)
        assert w.cheat_prob == pytest.approx(0.49, abs=1e-12)

    def test_lower_clamp(self):
        w = rational(0.01)
        w.update_cheat_prob(payoff=1.0, did_cheat=False, payoffs=PAYOFFS, alpha_w=ALPHA)
        assert w.cheat_prob == 0.0

    def test_honest_rewarded_step_is_008(self):
        w = rational(0.5)
        w.update_cheat_prob(1.0, False, PAYOFFS, ALPHA)
        assert w.cheat_prob == pytest.approx(0.5 - 0.08, abs=1e-12)

    def test_punished_cheat_decreases_when_fine_plus_aspiration_positive(self):
        payoffs = PayoffParams(punishment_WPc=0.5, task_cost_WCt=0.1, reward_WBy=1.0)
        w = rational(0.5)
        w.update_cheat_prob(payoff=-0.5, did_cheat=True, payoffs=payoffs, alpha_w=ALPHA)
        assert w.cheat_prob == pytest.approx(0.5 + ALPHA * (-0.5 - 0.1), abs=1e-12)
        assert w.cheat_prob < 0.5


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(
        st.tuples(st.floats(min_value=-5.0, max_value=5.0), st.booleans()),
        max_size=50,
    ),
)
def test_cheat_prob_stays_clamped(p0, events):
    w = rational(p0)
    for payoff, did_cheat in events:
        w.update_cheat_prob(payoff, did_cheat, PAYOFFS, ALPHA)
        assert 0.0 <= w.cheat_prob <= 1.0


def test_deterministic_given_seed():
    spec = WorkerSpec(3, WorkerType.RATIONAL, availability=0.7, initial_cheat_prob=0.5)
    results = []
    for _ in range(2):
        rng = make_stream(42)
        w = WorkerState.from_spec(spec)
        trail = []
        for _ in range(50):
            if w.draw_availability(rng):
                reply = w.produce_reply(rng)
                w.update_cheat_prob(1.0, reply.was_cheat, PAYOFFS, ALPHA)
                trail.append((reply.value, w.cheat_prob))
        results.append(trail)
    assert results[0] == results[1]
