"""How the three truthfulness reputation types react to the same history.

One worker is audited twenty times: honest for the first eight audits,
caught cheating twice in a row, then honest again. LINEAR forgives (the
score climbs back), EXPONENTIAL never does (two catches pin it at 0.25
forever), and BOINC ignores everything until ten consecutive honest audits
have been observed since the last catch.
"""

from repsim import ReputationType
from repsim.reputation import ReputationLedger, truthfulness

history = [True] * 8 + [False, False] + [True] * 10

ledger = ReputationLedger()
print(f"{'audit':>5} {'outcome':>8} {'LINEAR':>8} {'EXPONENTIAL':>12} {'BOINC':>7}")
for i, honest in enumerate(history, start=1):
    ledger.record_selection()
    ledger.record_reply()
    ledger.record_audit_outcome(honest)
    scores = [
        truthfulness(ledger, rep_type, epsilon=0.5)
        for rep_type in (ReputationType.LINEAR, ReputationType.EXPONENTIAL, ReputationType.BOINC)
    ]
    outcome = "honest" if honest else "CAUGHT"
    print(f"{i:>5} {outcome:>8} {scores[0]:>8.3f} {scores[1]:>12.3f} {scores[2]:>7.3f}")

print(
    "\nAfter the two catches, LINEAR recovers toward 1, EXPONENTIAL stays at "
    "0.25, and BOINC needs a fresh streak of ten honest audits before it "
    "reports anything above zero."
)
