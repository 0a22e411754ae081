import numpy as np
import pytest
from hypothesis import given, strategies as st

from repsim import (
    MechanismParams,
    PayoffParams,
    ScenarioConfig,
    SelectionPolicy,
    WorkerSpec,
    WorkerType,
)
from repsim.master import RunState, play
from repsim.model import ReplyValue, make_stream
from repsim.master import initial_cheat_prob, update_cheat_prob

PAYOFFS = PayoffParams(punishment_WPc=0.0, task_cost_WCt=0.1, reward_WBy=1.0)
ALPHA = 0.1


def updated(p0, payoff, did_cheat, payoffs=PAYOFFS):
    """Cheat probability of a rational worker (aspiration 0.1) after one step."""
    return update_cheat_prob(p0, payoff, did_cheat, 0.1, payoffs.task_cost_WCt, ALPHA)


def pool(*specs):
    """Run state over the given worker specs, all selected every round."""
    config = ScenarioConfig(
        workers=specs,
        payoffs=PAYOFFS,
        mechanism=MechanismParams(
            pool_size_N=len(specs), select_n=len(specs),
            selection_policy=SelectionPolicy.FIXED_RANDOM,
        ),
    )
    return RunState(config)


def fixed(worker_type, availability=1.0, count=1):
    return pool(*(WorkerSpec(i, worker_type, availability=availability) for i in range(count)))


def rational(cheat_prob=0.5, availability=1.0):
    return pool(WorkerSpec(0, WorkerType.RATIONAL, availability=availability,
                           initial_cheat_prob=cheat_prob))


def replies_of(state, rng, rounds):
    """Per round of ``play``, the responders and whether each cheated."""
    return [(tuple(responders), cheats)
            for _, (_, _, _, responders, cheats, _) in zip(range(rounds), play(state, rng))]


def cheats_of(state, rng, rounds):
    """Per round, whether worker 0 cheated (all workers always available)."""
    return [cheats[0] for _, cheats in replies_of(state, rng, rounds)]


class TestAvailability:
    def test_always_available(self):
        rng = make_stream(1)
        state = fixed(WorkerType.ALTRUISTIC, availability=1.0)
        assert all(responders == (0,) for responders, _ in replies_of(state, rng, 1000))

    def test_half_available_mean(self):
        # binomial: 10000 draws at d=0.5, mean within +/-0.02 (~4 sigma)
        rng = make_stream(2)
        state = fixed(WorkerType.ALTRUISTIC, availability=0.5)
        mean = np.mean([bool(responders) for responders, _ in replies_of(state, rng, 10_000)])
        assert 0.48 <= mean <= 0.52

    def test_distinct_workers_draw_independently(self):
        rng = make_stream(3)
        state = fixed(WorkerType.ALTRUISTIC, availability=0.5, count=2)
        draws = np.array(
            [[i in responders for i in (0, 1)] for responders, _ in replies_of(state, rng, 10_000)],
            dtype=float,
        )
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 0.05


class TestReplies:
    def test_malicious_always_wrong(self):
        assert all(cheats_of(fixed(WorkerType.MALICIOUS), make_stream(4), 100))

    def test_altruistic_always_correct(self):
        assert not any(cheats_of(fixed(WorkerType.ALTRUISTIC), make_stream(5), 100))

    def test_rational_with_zero_cheat_prob(self):
        assert not any(cheats_of(rational(cheat_prob=0.0), make_stream(6), 100))

    def test_wrong_iff_cheat(self):
        # an unaudited round's accepted value is WRONG exactly when its
        # accepted group is the workers that cheated
        rng = make_stream(7)
        state = pool(*(WorkerSpec(i, WorkerType.RATIONAL, initial_cheat_prob=0.5)
                       for i in range(5)))
        state.audit_prob = 0.0  # every round unaudited
        seen = set()
        for _ in range(200):
            state.cheat_prob[:] = [0.5] * 5  # undo the last round's learning
            _, accepted, _, responders, cheats, payoffs = next(play(state, rng))
            group = [i for i, p in zip(responders, payoffs) if p == PAYOFFS.reward_WBy]
            cheated = {i for i, c in zip(responders, cheats) if c}
            assert (accepted is ReplyValue.WRONG) == (set(group) == cheated)
            seen.add(accepted)
        assert seen == {ReplyValue.CORRECT, ReplyValue.WRONG}

    def test_initial_cheat_prob_by_type(self):
        assert initial_cheat_prob(WorkerSpec(0, WorkerType.MALICIOUS)) == 1.0
        assert initial_cheat_prob(WorkerSpec(0, WorkerType.ALTRUISTIC)) == 0.0
        assert rational(cheat_prob=0.25).cheat_prob == [0.25]


class TestUpdateCheatProb:
    def test_unaudited_cheater_in_majority(self):
        assert updated(0.5, payoff=1.0, did_cheat=True) == pytest.approx(0.59, abs=1e-12)

    def test_honest_rewarded(self):
        assert updated(0.5, payoff=1.0, did_cheat=False) == pytest.approx(0.42, abs=1e-12)

    def test_audited_cheater_no_punishment(self):
        assert updated(0.5, payoff=0.0, did_cheat=True) == pytest.approx(0.49, abs=1e-12)

    def test_lower_clamp(self):
        assert updated(0.01, payoff=1.0, did_cheat=False) == 0.0

    def test_honest_rewarded_step_is_008(self):
        assert updated(0.5, 1.0, False) == pytest.approx(0.5 - 0.08, abs=1e-12)

    def test_punished_cheat_decreases_when_fine_plus_aspiration_positive(self):
        payoffs = PayoffParams(punishment_WPc=0.5, task_cost_WCt=0.1, reward_WBy=1.0)
        p = updated(0.5, payoff=-0.5, did_cheat=True, payoffs=payoffs)
        assert p == pytest.approx(0.5 + ALPHA * (-0.5 - 0.1), abs=1e-12)
        assert p < 0.5


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(
        st.tuples(st.floats(min_value=-5.0, max_value=5.0), st.booleans()),
        max_size=50,
    ),
)
def test_cheat_prob_stays_clamped(p0, events):
    p = p0
    for payoff, did_cheat in events:
        p = updated(p, payoff, did_cheat)
        assert 0.0 <= p <= 1.0


def test_deterministic_given_seed():
    spec = WorkerSpec(3, WorkerType.RATIONAL, availability=0.7, initial_cheat_prob=0.5)
    results = []
    for _ in range(2):
        rng = make_stream(42)
        state = pool(*(WorkerSpec(i, WorkerType.ALTRUISTIC) for i in range(3)), spec)
        trail = []
        for _, (audited, _, _, responders, cheats, _) in zip(range(50), play(state, rng)):
            if 3 in responders:
                caught = audited and cheats[responders.index(3)]
                trail.append((caught, state.cheat_prob[3]))
        results.append(trail)
    assert results[0] == results[1]
    assert results[0]
