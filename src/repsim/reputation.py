"""Per-worker interaction counters and the reputation scores derived from them.

The master never stores a reputation: it stores counters and evaluates the
scores on demand, so the three truthfulness types can be compared on identical
histories.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ReputationType

__all__ = [
    "ReputationLedger",
    "responsiveness",
    "truthfulness",
    "combined_reputation",
]

BOINC_STREAK_THRESHOLD = 10


@dataclass
class ReputationLedger:
    """Counters for one worker, owned and updated by the master.

    Invariants (preserved by the record_* operations):
    ``reply_select_count <= select_count``,
    ``audit_reply_select_count <= reply_select_count``,
    ``correct_audit_count <= audit_reply_select_count``,
    ``streak <= correct_audit_count``.
    """

    select_count: int = 0
    reply_select_count: int = 0
    audit_reply_select_count: int = 0
    correct_audit_count: int = 0
    streak: int = 0

    def record_selection(self) -> None:
        self.select_count += 1

    def record_reply(self) -> None:
        self.reply_select_count += 1

    def record_audit_outcome(self, was_truthful: bool) -> None:
        """Fold one audited reply into the counters.

        A truthful reply extends the streak; a caught cheat resets it.
        """
        self.audit_reply_select_count += 1
        if was_truthful:
            self.correct_audit_count += 1
            self.streak += 1
        else:
            self.streak = 0


def responsiveness(ledger: ReputationLedger) -> float:
    """Smoothed fraction of selections that produced a reply; always in (0, 1]."""
    return (ledger.reply_select_count + 1) / (ledger.select_count + 1)


def truthfulness(ledger: ReputationLedger, rep_type: ReputationType, epsilon: float = 0.5) -> float:
    """Truthfulness score of a worker under the given reputation type.

    LINEAR is forgiving (smoothed fraction of audited replies that were
    honest), EXPONENTIAL decays by ``epsilon`` per caught cheat and never
    recovers, BOINC is zero until ten consecutive audited-honest replies and
    then approaches one from below.
    """
    if rep_type is ReputationType.LINEAR:
        return (ledger.correct_audit_count + 1) / (ledger.audit_reply_select_count + 1)
    if rep_type is ReputationType.EXPONENTIAL:
        return epsilon ** (ledger.audit_reply_select_count - ledger.correct_audit_count)
    if rep_type is ReputationType.BOINC:
        if ledger.streak < BOINC_STREAK_THRESHOLD:
            return 0.0
        return 1.0 - 1.0 / ledger.streak
    raise ValueError(f"unknown reputation type: {rep_type!r}")


def combined_reputation(ledger: ReputationLedger, rep_type: ReputationType, epsilon: float = 0.5) -> float:
    """Product of responsiveness and truthfulness; the master selects by this."""
    return responsiveness(ledger) * truthfulness(ledger, rep_type, epsilon)
