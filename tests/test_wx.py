"""Weaponized-exploit counting."""

import random
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from vulnrank.feeds import (
    CveRecord,
    LabeledExample,
    Labeler,
    ReferenceEntry,
    ReferenceSource,
    load_exploit_refs,
)
from vulnrank.scoring import score_portfolio
from vulnrank.wx import WxCount, count_wx

from conftest import trio_ref_rows, write_jsonl


def ref(url, source=ReferenceSource.EXPLOITDB, exploit=True):
    return ReferenceEntry(url=url, source=source, is_exploit=exploit)


class TestCountWx:
    def test_worked_counts(self, tmp_path):
        grouped = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows()))
        counts = count_wx(grouped)
        assert counts["CVE-2017-0143"].count == 26
        assert counts["CVE-2019-11324"].count == 2

    def test_absent_cve_defaults_to_zero(self):
        counts = count_wx({"CVE-2017-0143": [ref("https://x/1")]})
        assert "CVE-2020-27256" not in counts
        record = CveRecord("CVE-2020-27256", "text", published_score=Decimal("6.8"))
        labels = {
            "CVE-2020-27256": LabeledExample(
                "CVE-2020-27256", 0, 0, Labeler.SME, datetime(2024, 1, 1, tzinfo=timezone.utc)
            )
        }
        (scored,) = score_portfolio([record], counts, labels)
        assert scored.wx == 0

    def test_non_exploit_refs_excluded(self):
        entries = [ref(f"https://x/{n}") for n in range(3)] + [
            ref("https://x/a", exploit=False),
            ref("https://x/b", exploit=False),
        ]
        counts = count_wx({"CVE-2020-0001": entries})
        assert counts["CVE-2020-0001"].count == 3

    @pytest.mark.parametrize("flags, expected", [((False, True), 0), ((True, False), 1)])
    def test_first_line_for_a_url_decides_its_flag(self, tmp_path, flags, expected):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "GitHub", "exploit": flag}
            for flag in flags
        ]
        grouped = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        assert count_wx(grouped)["CVE-2020-0001"].count == expected

    def test_order_invariant(self):
        entries = [ref(f"https://x/{n}", exploit=(n % 3 > 0)) for n in range(20)]
        rng = random.Random(7)
        baseline = count_wx({"CVE-2020-0001": entries})["CVE-2020-0001"].count
        for _ in range(10):
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert count_wx({"CVE-2020-0001": shuffled})["CVE-2020-0001"].count == baseline

    def test_monotone_under_added_reference(self):
        entries = [ref(f"https://x/{n}") for n in range(5)]
        before = count_wx({"CVE-2020-0001": entries})["CVE-2020-0001"].count
        after = count_wx({"CVE-2020-0001": entries + [ref("https://x/new")]})["CVE-2020-0001"].count
        assert after == before + 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            WxCount("CVE-2020-0001", count=-1)
