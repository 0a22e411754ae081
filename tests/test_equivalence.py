import math

import numpy as np
import pytest

from equivalence import compare, count_test, kolmogorov_sf, ks_2samp
from repsim import RunMetrics


def test_kolmogorov_sf_known_values():
    # the 5 %, 1 % and 0.1 % critical values of the Kolmogorov distribution
    for x, tail in ((1.3581, 0.05), (1.6276, 0.01), (1.9495, 0.001)):
        assert kolmogorov_sf(x) == pytest.approx(tail, rel=1e-3)
    assert kolmogorov_sf(0.0) == 1.0
    # the two series agree where they switch
    assert kolmogorov_sf(1.0 - 1e-12) == pytest.approx(kolmogorov_sf(1.0), abs=1e-9)


def test_ks_2samp_extremes_and_same_law():
    assert ks_2samp([1, 2, 3], [3, 2, 1]) == (0.0, 1.0)
    d, p = ks_2samp(np.arange(100), np.arange(100, 200))
    assert d == 1.0 and p < 1e-20
    rng = np.random.default_rng(0)
    a, b = rng.geometric(0.05, 2000), rng.geometric(0.05, 2000)
    assert ks_2samp(a, b)[1] > 0.01
    assert ks_2samp(a, rng.geometric(0.04, 2000))[1] < 1e-3


def test_count_test_exact_values():
    assert count_test(3, 10, 3, 10) == 1.0
    # 0 of 5 against 5 of 5: the two most extreme of the 252 splits
    assert count_test(0, 5, 5, 5) == 2 / math.comb(10, 5)
    assert count_test(2, 100, 9, 100) == count_test(9, 100, 2, 100)


def test_against_scipy_where_installed():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1)
    a, b = rng.geometric(0.05, 700), rng.geometric(0.05, 900)
    d, p = ks_2samp(a, b)
    assert d == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)
    assert p == pytest.approx(stats.kstwobign.sf(math.sqrt(700 * 900 / 1600) * d), rel=1e-9)
    for k1, k2 in ((0, 4), (7, 12), (30, 10)):
        table = [[k1, 400 - k1], [k2, 500 - k2]]
        assert count_test(k1, 400, k2, 500) == pytest.approx(stats.fisher_exact(table)[1], rel=1e-6)


def test_compare_reads_converged_runs_and_violations():
    runs = [RunMetrics(s, 50 + s % 7, 10, 0, 0, int(s % 9 == 0)) for s in range(300)]
    never = [RunMetrics(s, None, 3, 0, 0, 0) for s in range(300, 320)]
    assert compare(runs, runs + never) == {
        "convergence_round": 1.0, "audits_to_convergence": 1.0,
        "violations": count_test(34, 300, 54, 320),
    }
