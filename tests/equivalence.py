"""Whether two engines' runs of one config follow the same law, for a change
to the random stream: the runs are compared as samples, not value by value.

``ks_2samp`` is the two-sample Kolmogorov-Smirnov test with its asymptotic
p-value, which is conservative on discrete data such as round counts
(Conover, 1972). ``count_test`` is Fisher's exact test on two violation
counts, computed on integers.
"""

import math

import numpy as np


def kolmogorov_sf(x):
    """P(K > x) for the Kolmogorov distribution, the limit law of sqrt(n) D."""
    if x <= 0.0:
        return 1.0
    k = np.arange(1, 21)
    if x < 1.0:  # the theta-function form, which converges fast for small x
        cdf = math.sqrt(2 * math.pi) / x * np.exp(-((2 * k - 1) * math.pi / x) ** 2 / 8).sum()
        return float(1.0 - cdf)
    return float(2 * ((-1.0) ** (k - 1) * np.exp(-2 * (k * x) ** 2)).sum())


def ks_2samp(a, b):
    """The two-sample KS statistic D and its asymptotic p-value."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    d = float(np.abs(cdf_a - cdf_b).max())
    return d, kolmogorov_sf(math.sqrt(len(a) * len(b) / (len(a) + len(b))) * d)


def count_test(k1, n1, k2, n2):
    """Fisher's exact two-sided p-value for k1 events in n1 trials against k2
    in n2: the hypergeometric mass of every split of the k1 + k2 events no
    more likely than the observed one."""
    k = k1 + k2
    observed = math.comb(n1, k1) * math.comb(n2, k2)
    splits = (math.comb(n1, x) * math.comb(n2, k - x) for x in range(max(0, k - n2), min(k, n1) + 1))
    return sum(s for s in splits if s <= observed) / math.comb(n1 + n2, k)


def compare(runs_a, runs_b):
    """p-values of the KS tests on the converged runs' convergence round and
    audits to convergence, and of the exact test on the violation counts."""
    pvalues = {}
    for attr in ("convergence_round", "audits_to_convergence"):
        samples = [[getattr(m, attr) for m in runs if not m.not_converged] for runs in (runs_a, runs_b)]
        pvalues[attr] = ks_2samp(*samples)[1]
    violated = [sum(m.eventual_correctness_violated for m in runs) for runs in (runs_a, runs_b)]
    pvalues["violations"] = count_test(violated[0], len(runs_a), violated[1], len(runs_b))
    return pvalues
