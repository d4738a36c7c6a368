"""The paper's claims (``tests/claims.py``), each on its tier-1 grid.

``PYTHONPATH=src python -m tests.claims`` runs the same rows on the
full Table 1 grid.
"""

import pytest

from tests.claims import CLAIMS


@pytest.mark.parametrize(
    "claim", [claim for claim in CLAIMS if claim.tier1 is not None],
    ids=lambda claim: claim.id)
def test_claim_holds_on_its_tier1_grid(claim):
    claim.predicate(claim.tier1)


def test_every_reproduced_artifact_has_a_row():
    ids = {claim.id for claim in CLAIMS}
    assert len(ids) == len(CLAIMS)
    assert {claim_id.split("-")[0] for claim_id in ids} == {
        "T1", "F4", "F6", "F7", "F8a", "F8b", "F9", "S1", "S2", "X2",
        "X3", "X4", "A1", "A3", "A4"}


def test_only_the_single_vc_starvation_runs_nightly_only():
    assert [claim.id for claim in CLAIMS if claim.tier1 is None] == [
        "A1-ovc"]
