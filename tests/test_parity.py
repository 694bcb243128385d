"""The CLI's output is byte-identical to the recorded parity corpus
(`cli_parity.py` says what it holds and how to re-record it)."""

import json

from cli_parity import DATA, digests


def test_cli_output_matches_the_recorded_corpus(tmp_path):
    want = json.loads(DATA.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    assert got.keys() == want.keys()
    changed = sorted(case for case in want if got[case] != want[case])
    assert not changed, f"{len(changed)} of {len(want)} cases changed, first {changed[:10]}"
