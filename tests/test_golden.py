"""Every report of the committed command set is byte-identical to the
digests in ``golden_reports.tsv`` (see ``golden.py``)."""

import golden


def test_reports_match_the_committed_digests(tmp_path):
    rows = golden.run_reports(tmp_path)
    assert len(rows) > 1000
    assert {row[1] for row in rows} == {"0", "2", "3"}
    assert golden.differences(rows, golden.read_digests()) == []
