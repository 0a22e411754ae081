"""The simulator against the model's own mathematics: laws that hold for any
correct random stream, so a change to the stream is judged against them and
not only against the old engine."""

import math

import numpy as np
import pytest

from equivalence import kolmogorov_sf
from repsim import run_batch
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
@pytest.mark.parametrize("reputation", ["linear", "exponential"])
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
