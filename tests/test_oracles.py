"""The simulator against the model's own mathematics: laws that hold for any
correct random stream, so a change to the stream is judged against them and
not only against the old engine."""

import math

import numpy as np
import pytest

from equivalence import kolmogorov_sf
from repsim import run_batch, run_single
from repsim.scenarios import build_scenario

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
