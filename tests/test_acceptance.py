"""Acceptance gate: every shipped claim, one test and one printed line each."""

import pytest

from sodw.acceptance import CRITERIA, format_record, run_all

_TEST_IDS = [
    f"{cid:02d}-{name.replace(' ', '-').replace(',', '')}" for cid, name, _ in CRITERIA
]


@pytest.mark.parametrize("cid", [cid for cid, _, _ in CRITERIA], ids=_TEST_IDS)
def test_acceptance_criterion(cid, capsys):
    (record,) = run_all({cid})
    with capsys.disabled():
        print(format_record(record))
    assert record["passed"], record["details"]
    assert not record["details"].startswith(record["name"]), "details repeat the name"
