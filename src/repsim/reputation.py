"""The reputation scores, as functions of the per-worker counters the master
keeps.

The master's state is the counters. ``RunState`` also caches each worker's
two scores (``resp`` and ``truth``) and the rank key made from them
(``rank_key``), always these functions evaluated on the current counters, so
the three truthfulness types can be compared on identical histories.
"""

from __future__ import annotations

from .model import ReputationType

__all__ = ["responsiveness", "truthfulness"]

BOINC_STREAK_THRESHOLD = 10


def responsiveness(replies: int, selections: int) -> float:
    """Smoothed fraction of selections that produced a reply; always in (0, 1]."""
    return (replies + 1) / (selections + 1)


def truthfulness(
    rep_type: ReputationType,
    audits: int,
    honest: int,
    streak: int,
    epsilon: float = 0.5,
) -> float:
    """Truthfulness score of a worker whose replies were audited ``audits``
    times, ``honest`` of them found correct, the last ``streak`` in a row.

    LINEAR is forgiving (smoothed fraction of audited replies that were
    honest), EXPONENTIAL decays by ``epsilon`` per caught cheat and never
    recovers, BOINC is zero until ten consecutive audited-honest replies and
    then approaches one from below.
    """
    if rep_type is ReputationType.LINEAR:
        return (honest + 1) / (audits + 1)
    if rep_type is ReputationType.EXPONENTIAL:
        return epsilon ** (audits - honest)
    if rep_type is ReputationType.BOINC:
        if streak < BOINC_STREAK_THRESHOLD:
            return 0.0
        return 1.0 - 1.0 / streak
    raise ValueError(f"unknown reputation type: {rep_type!r}")
