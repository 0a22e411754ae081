"""The simulator against the model's own mathematics: laws that hold for any
correct random stream, so a change to the stream is judged against them and
not only against the old engine."""

import math
from dataclasses import replace

import numpy as np
import pytest

from equivalence import kolmogorov_sf
from repsim import ReplyValue, WorkerType, run_batch, run_single
from repsim.master import truthfulness
from repsim.scenarios import build_scenario, make_config

SEEDS = 2000
ALPHA = 0.001
CRITICAL = 1.9495  # P(K > 1.9495) = 0.001 for the Kolmogorov limit law K


def convergence_cdf(audit_probs, size=4000):
    """CDF, at rounds 0 .. size - 1, of a sum of independent geometric waits
    on {1, 2, ...} with the given success probabilities."""
    rounds = np.arange(size)
    pmf = np.zeros(size)
    pmf[0] = 1.0
    for p in audit_probs:
        wait = np.where(rounds >= 1, p * (1 - p) ** np.maximum(rounds - 1, 0), 0.0)
        pmf = np.convolve(pmf, wait)[:size]
    return np.cumsum(pmf)


@pytest.mark.parametrize("pa_init, audits", [(0.5, 10), (1.0, 20)])
@pytest.mark.parametrize("reputation", ["linear"])  # EXPONENTIAL: the test below
def test_s1_convergence_round_follows_its_exact_law(reputation, pa_init, audits):
    # In S1 (nine always-available altruists) every audit finds only honest
    # replies, so under LINEAR or EXPONENTIAL it moves the audit probability
    # by -alpha_m * tau = -0.05 (C2's audit count). The convergence round is
    # then a sum of geometric waits with p_k = pa_init - 0.05 k, k < audits.
    # (BOINC's zero-truthfulness cold start escalates instead.)
    #
    # A discrete one-sample KS test against that exact CDF, at level ALPHA
    # per case with the asymptotic critical value, which is conservative for
    # a discrete law (Conover, 1972). Power against every audit probability
    # being 10 % low (a biased audit draw), by the DKW inequality
    # P(sup |F_n - G| > e) <= 2 exp(-2 n e^2) (Massart, 1990): at least
    # 1 - 2 exp(-2 n (delta - CRITICAL / sqrt(n))^2), asserted below.
    law = convergence_cdf([pa_init - 0.05 * k for k in range(audits)])
    biased = convergence_cdf([0.9 * (pa_init - 0.05 * k) for k in range(audits)])
    critical_d = CRITICAL / math.sqrt(SEEDS)
    delta = np.abs(law - biased).max()
    assert 1 - 2 * math.exp(-2 * SEEDS * (delta - critical_d) ** 2) > 0.999

    config = build_scenario("S1", reputation_type=reputation, audit_prob_initial=pa_init,
                            num_instantiations=SEEDS, post_convergence_horizon=1)
    rounds = np.sort([m.convergence_round for m in run_batch(config).runs])
    empirical = np.searchsorted(rounds, np.arange(len(law)), side="right") / SEEDS
    d = np.abs(empirical - law).max()
    assert kolmogorov_sf(math.sqrt(SEEDS) * d) >= ALPHA, d


@pytest.mark.parametrize("pa_init", [0.5, 1.0])
def test_s1_batch_under_exponential_equals_linear(pa_init):
    # With only honest replies audited, LINEAR's (honest + 1) / (audits + 1)
    # and EXPONENTIAL's epsilon ** (audits - honest) both stay 1, so every
    # rank key stays -1.0 and both types take the same draws: an S1 batch is
    # the same round for round under either, and the exact law above, run
    # under LINEAR, holds for EXPONENTIAL without playing its seeds again.
    linear, exponential = (
        run_batch(build_scenario("S1", reputation_type=reputation, audit_prob_initial=pa_init,
                                 num_instantiations=200, post_convergence_horizon=1),
                  keep_records=True)
        for reputation in ("linear", "exponential")
    )
    assert exponential.runs == linear.runs
    assert exponential.records == linear.records


def binomial_cdf(n, p, upto):
    """P(X <= k) for k = 0 .. upto, X ~ Binomial(n, p), each term from math.comb."""
    cdf, total = [], 0.0
    for k in range(upto + 1):
        total += math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))
        cdf.append(total)
    return cdf


@pytest.mark.parametrize("preset", ["S1", "S3"])
def test_post_convergence_audits_follow_their_exact_law(preset):
    """After convergence on a Theorem-1 preset under LINEAR, every round is
    played at ``audit_prob_min`` (asserted: an audit that caught a truthful
    enough cheater would lift it), and each round's audit is a fresh
    Bernoulli(audit_prob_min) draw, so the audited count of the N = 20 x 2000
    post-convergence rounds is exactly Binomial(N, 0.01).

    Two-sided, equal-tailed exact test at level ALPHA: with the binomial CDF
    from math.comb, the count must lie in [336, 467], whose tails hold
    0.00044 and 0.00046. Its power against an audit rate of 0.0125 (a floor
    25 % high) is 0.929, asserted below.
    """
    runs, horizon = 20, 2000
    config = build_scenario(preset, reputation_type="linear", num_instantiations=runs,
                            post_convergence_horizon=horizon)
    p_min = config.mechanism.audit_prob_min
    n = runs * horizon
    upto = round(2 * n * p_min)  # far past both tails
    null = binomial_cdf(n, p_min, upto)
    lo = next(k for k, c in enumerate(null) if c > ALPHA / 2)  # reject below lo
    hi = next(k for k, c in enumerate(null) if 1 - c <= ALPHA / 2)  # reject above hi
    assert (lo, hi) == (336, 467)
    assert null[lo - 1] + 1 - null[hi] <= ALPHA
    alternative = binomial_cdf(n, 0.0125, upto)
    assert alternative[lo - 1] + 1 - alternative[hi] > 0.92

    after = []  # (audit probability played with, audited) of each post-convergence round
    for k in range(runs):
        rounds = []
        _, metrics = run_single(config, config.seed_for(k), keep_records=False,
                                observer=lambda record: rounds.append(
                                    (record.audit_prob_before, record.outcome.audited)))
        after += rounds[metrics.convergence_round:]
    assert len(after) == n
    assert all(audit_prob == p_min for audit_prob, _ in after)
    audited = sum(audited for _, audited in after)
    assert lo <= audited <= hi, audited


@pytest.mark.parametrize("preset, reputation", [
    ("S1", "boinc"), ("S2", "boinc"), ("S3", "linear"), ("S5", "exponential"),
    ("p9-r4m5", "linear"), ("p99-r1m8", "boinc"),
])
def test_audit_controller_follows_its_law_on_held_truthfulness(preset, reputation):
    """Every audited round moves the audit probability by the paper's law,
    alpha_m (S_F / S_R - tau) clamped to [audit_prob_min, 1], and a zero S_R
    escalates it by exactly alpha_m (capped at 1); an unaudited round keeps
    it. S_R and S_F are the truthfulness that the responders and the caught
    cheaters held when the task was assigned, added left to right in id
    order. The held values are tracked from the records alone: every worker
    starts at the fresh truthfulness, and a round's snapshots give the
    selected workers' values at its end. Whatever the stream, this holds
    round for round."""
    config = build_scenario(preset, reputation_type=reputation, num_instantiations=20,
                            post_convergence_horizon=200)
    params = config.mechanism
    alpha_m, tau, p_min = (params.master_learning_rate_alpha_m, params.tolerance_tau,
                           params.audit_prob_min)
    fresh = truthfulness(params.reputation_type, 0, 0, 0, params.exponential_base_epsilon)
    audited = escalated = 0
    for records in run_batch(config, keep_records=True).records:
        held = [fresh] * params.pool_size_N
        for record in records:
            outcome, before = record.outcome, record.audit_prob_before
            if outcome.audited:
                s_f = s_r = 0.0
                for i in outcome.responders:
                    s_r += held[i]
                    if i in outcome.cheaters_caught:
                        s_f += held[i]
                if s_r == 0.0:
                    law = min(1.0, before + alpha_m)
                    escalated += 1
                else:
                    law = min(1.0, max(p_min, before + alpha_m * (s_f / s_r - tau)))
                audited += 1
            else:
                law = before
            assert record.audit_prob_after == law, (record.round_index, before)
            for snapshot in record.snapshots:
                held[snapshot.id] = snapshot.rho_tr
    assert audited > 0
    assert escalated > 0 or reputation != "boinc"  # fresh BOINC scores are zero


def test_vote_tie_break_follows_its_exact_law():
    """One altruist and one malicious worker, both always available and
    both selected every round, under BOINC with the audit probability held
    at its floor of 1e-12: no round is audited (asserted), so both keep
    truthfulness 0 and every round's vote is a tie of two zero-weight groups.
    Each tie is broken by a fresh draw, so WRONG's wins over the 3 000
    rounds of one run (converged at round 1, horizon 2 999) are exactly
    Binomial(3000, 1/2).

    Two-sided, equal-tailed exact test at level ALPHA, the tails summed in
    integers from math.comb: WRONG must win 1 410 to 1 590 times. Its power
    against a tie break that favours WRONG with probability 0.55 is 0.985,
    asserted below.
    """
    n = 3000
    config = make_config([(1, WorkerType.ALTRUISTIC, 1.0), (1, WorkerType.MALICIOUS, 1.0)],
                         reputation_type="boinc", select_n=2, audit_prob_initial=1e-12,
                         post_convergence_horizon=n - 1)
    config = replace(config, mechanism=replace(config.mechanism, audit_prob_min=1e-12))
    # reject below lo, the least k with P(X <= k) > ALPHA / 2, counted in
    # outcomes of n fair draws
    limit, tail, lo = 2**n // round(2 / ALPHA), 0, 0
    while (tail := tail + math.comb(n, lo)) <= limit:
        lo += 1
    hi = n - lo  # the law is symmetric
    assert (lo, hi) == (1410, 1590)
    # P(lo <= X <= hi) when WRONG wins a tie with probability 11/20
    accept = sum(math.comb(n, k) * 11**k * 9 ** (n - k) for k in range(lo, hi + 1))
    assert 1 - accept / 20**n > 0.98

    records, metrics = run_single(config, 7)
    assert metrics.convergence_round == 1 and len(records) == n
    for record in records:
        assert not record.outcome.audited and record.outcome.responders == (0, 1)
        assert [s.rho_tr for s in record.snapshots] == [0.0, 0.0]
    wins = sum(record.outcome.accepted_value is ReplyValue.WRONG for record in records)
    assert lo <= wins <= hi, wins


def theorem_2b_config(d, runs):
    """Theorem 2(b)'s smallest case: one always-available altruist (id 0)
    and one altruist available with probability ``d`` (id 1), one selected
    per round, under BOINC."""
    return make_config([(1, WorkerType.ALTRUISTIC, 1.0), (1, WorkerType.ALTRUISTIC, d)],
                       reputation_type="boinc", select_n=1, num_instantiations=runs)


def test_theorem_2b_run_violates_when_the_partial_worker_first_gains_truthfulness():
    """Both altruists start with BOINC truthfulness 0, so both rank at -0.0
    and every ranking is a fair tie until one has ten honest audits in a row.
    That worker's rank key is then negative for ever, and the other is never
    selected again. When it is the partial worker, its missed replies leave
    rounds empty after convergence; when it is the always-available one,
    every round is answered correctly. So a run violates eventual
    correctness exactly when the first worker with positive truthfulness, as
    read from the records, is id 1. Both outcomes occur among the seeds."""
    batch = run_batch(theorem_2b_config(0.9, 300), keep_records=True)
    firsts = []
    for records, metrics in zip(batch.records, batch.runs):
        first = next(s.id for record in records for s in record.snapshots if s.rho_tr > 0)
        assert metrics.eventual_correctness_violated == (first == 1), metrics.seed
        firsts.append(first)
    assert set(firsts) == {0, 1}


def race_law(a, b):
    """P(Binomial(19, q) >= 10) for q = a / (a + b), as integers (num, den):
    the chance that the partial worker is first to ten streak points when
    each point is its own with probability q."""
    num = sum(math.comb(19, k) * a**k * b ** (19 - k) for k in range(10, 20))
    return num, (a + b) ** 19


def test_theorem_2b_violating_count_follows_its_exact_law():
    """In the race above, each round selects one of the two fairly, and an
    audited reply adds one to its sender's streak. The audit draw does not
    depend on who was selected, and only the partial worker can fail to
    reply, so each point is the partial worker's with probability
    q = d / (1 + d), independently, and it wins the race to ten when at least
    10 of the first 19 points are its own. With d = 0.9 (q = 9/19), each run
    violates with probability p = P(Binomial(19, 9/19) >= 10) = 0.408, and
    the violating count over 400 seeds is exactly Binomial(400, p) (but for
    the chance, 0.9 ** 500 < 1e-22, that a winning partial worker answers all
    500 rounds of the horizon).

    Two-sided, equal-tailed exact test at level ALPHA, the tails summed in
    integers from math.comb: the count must lie in [131, 196]. Its power
    against a selection tie break that favours worker 0 with probability
    0.55 (q = 0.405 / 0.955, p = 0.25) is 0.9997, asserted below.
    """
    n = 400

    def terms(num, den):  # P(X = k) * den ** n for k = 0 .. n, X ~ Binomial(n, num / den)
        return [math.comb(n, k) * num**k * (den - num) ** (n - k) for k in range(n + 1)], den**n

    law, total = terms(*race_law(9, 10))
    limit = total // round(2 / ALPHA)
    tail, lo = 0, 0  # reject below lo, the least k with P(X <= k) > ALPHA / 2
    while (tail := tail + law[lo]) <= limit:
        lo += 1
    tail, hi = 0, n  # reject above hi, the greatest k with P(X >= k) > ALPHA / 2
    while (tail := tail + law[hi]) <= limit:
        hi -= 1
    assert (lo, hi) == (131, 196)
    alternative, total = terms(*race_law(81, 110))
    assert 1 - sum(alternative[lo:hi + 1]) / total > 0.9996

    violating = run_batch(theorem_2b_config(0.9, n)).aggregate.violated_count
    assert lo <= violating <= hi, violating
