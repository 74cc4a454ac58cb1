"""The reproduction scorecard: every paper claim, graded live.

Evaluates the full claim set (TOT shares, Table 2/3/4 anchors, the
figure orderings, the §6 scalars) against the benchmark campaigns and
prints the verdict table — the one-page answer to "does this
reproduction hold?".
"""

from repro.core.scorecard import evaluate

from conftest import save_artifact


def test_reproduction_scorecard(benchmark, baseline_campaign, masked_campaign):
    scorecard = benchmark(evaluate, baseline_campaign, masked_campaign)

    save_artifact("scorecard", scorecard.render())

    failed = [c.claim_id for c in scorecard.failed_claims()]
    assert scorecard.total >= 12, "claim set unexpectedly small"
    # The reproduction must hold across the board: every claim passes.
    assert not failed, f"failed claims: {failed}"
