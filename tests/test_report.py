"""Ranking order, comparison bucketing, and export determinism."""

import csv
import io
import json
import random
import tracemalloc
from decimal import Decimal

import pytest

from vulnrank.feeds import CHUNK_LINES, Judgment, Labeler
from vulnrank.report import (
    CSV_COLUMNS,
    ExportFormat,
    compare,
    export_chunks,
    rank,
)
from vulnrank.scoring import NEUTRAL_ENV, ScoredVulnerability

from conftest import WORKED_TRIO


def scored(cve_id, cvss, wx=0, utility=0, opportune=0, source=Labeler.SME):
    return ScoredVulnerability(
        cve_id=cve_id,
        cvss=Decimal(cvss),
        wx=wx,
        labels=Judgment(utility, opportune, source),
        env=NEUTRAL_ENV,
    )


def trio_portfolio():
    return [
        scored(rec["id"], rec["score"], rec["wx"], rec["utility"], rec["opportune"])
        for rec in WORKED_TRIO
    ]


def random_portfolio(n, seed, wx_rate=0.2):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        wx = rng.randrange(1, 80) if rng.random() < wx_rate else 0
        out.append(
            scored(
                f"CVE-2022-{i:05d}",
                Decimal(rng.randrange(0, 101)).scaleb(-1),
                wx=wx,
                utility=rng.choice((0, 1, 2)),
                opportune=rng.choice((0, 1)),
            )
        )
    return out


class TestRank:
    def test_worked_trio_order(self):
        portfolio = rank(trio_portfolio())
        assert [s.cve_id for s in portfolio] == [
            "CVE-2017-0143",
            "CVE-2020-27256",
            "CVE-2019-11324",
        ]
        assert [s.threat_score for s in portfolio] == [
            Decimal("102.3"),
            Decimal("40.8"),
            Decimal("9.5"),
        ]

    def test_tie_breaks_by_cvss_then_id(self):
        # Equal threat scores (9.8 each), different CVSS: higher CVSS first.
        high_cvss = scored("CVE-2020-0020", "9.8")
        low_cvss = scored("CVE-2020-0021", "4.9", utility=1)  # (4.9+0)*2 = 9.8
        portfolio = rank([low_cvss, high_cvss])
        assert [s.cve_id for s in portfolio] == ["CVE-2020-0020", "CVE-2020-0021"]

    def test_equal_everything_breaks_by_id(self):
        a = scored("CVE-2020-0002", "5.0")
        b = scored("CVE-2020-0001", "5.0")
        portfolio = rank([a, b])
        assert [s.cve_id for s in portfolio] == ["CVE-2020-0001", "CVE-2020-0002"]

    def test_empty(self):
        assert rank([]) == []

    def test_permutation_of_input(self):
        original = random_portfolio(200, seed=5)
        shuffled = original[:]
        random.Random(9).shuffle(shuffled)
        assert sorted(rank(original), key=lambda s: s.cve_id) == sorted(
            original, key=lambda s: s.cve_id
        )
        assert rank(shuffled) == rank(original)

    def test_scores_non_increasing(self):
        entries = rank(random_portfolio(150, seed=2))
        for earlier, later in zip(entries, entries[1:]):
            assert earlier.threat_score >= later.threat_score

    def test_stable_under_insertion(self):
        base = random_portfolio(60, seed=11)
        newcomer = scored("CVE-2022-99999", "6.3", wx=7, utility=1)
        before = [s.cve_id for s in rank(base)]
        after = [s.cve_id for s in rank(base + [newcomer]) if s.cve_id != newcomer.cve_id]
        assert before == after

    def test_ranks_dense(self):
        # Position i of the list holds rank i+1, and the export numbers it so.
        portfolio = rank(random_portfolio(25, seed=3))
        assert type(portfolio) is list and len(portfolio) == 25
        data = b"".join(export_chunks(portfolio, ExportFormat.CSV)).decode()
        rows = list(csv.DictReader(io.StringIO(data)))
        assert [int(row["rank"]) for row in rows] == list(range(1, 26))
        assert [row["cve_id"] for row in rows] == [s.cve_id for s in portfolio]

    def test_sorts_a_new_list(self):
        entries = random_portfolio(40, seed=4)
        before = entries[:]
        ranked = rank(entries)
        assert ranked is not entries and entries == before


class TestCompare:
    def test_degenerate_portfolio_full_overlap(self):
        entries = [scored(f"CVE-2022-{i:05d}", Decimal(i % 100).scaleb(-1)) for i in range(300)]
        report = compare(entries)
        assert report.top_k_overlap[10] == 1.0
        assert report.top_k_overlap[100] == 1.0

    def test_worked_trio_positions_swap(self):
        entries = trio_portfolio()
        by_cvss = sorted(entries, key=lambda s: (-s.cvss, s.cve_id))
        by_threat = rank(entries)
        cvss_pos = {s.cve_id: i for i, s in enumerate(by_cvss)}
        threat_pos = {s.cve_id: i for i, s in enumerate(by_threat)}
        assert cvss_pos["CVE-2019-11324"] < cvss_pos["CVE-2020-27256"]
        assert threat_pos["CVE-2020-27256"] < threat_pos["CVE-2019-11324"]

    def test_band_counts_sum_to_total(self):
        entries = random_portfolio(1000, seed=7)
        report = compare(entries)
        assert sum(report.cvss_bands.values()) == 1000
        assert sum(count for _, count in report.threat_tiers) == 1000
        assert report.total == 1000

    def test_zero_score_lands_in_band_one(self):
        report = compare([scored("CVE-2022-00001", "0.0")])
        assert report.cvss_bands[1] == 1

    def test_band_edges(self):
        # 9.0 belongs to band 9 (8-9]; 9.1 to band 10; both are critical
        # only from 9.0 up.
        report = compare(
            [scored("CVE-2022-00001", "9.0"), scored("CVE-2022-00002", "9.1")]
        )
        assert report.cvss_bands[9] == 1
        assert report.cvss_bands[10] == 1
        assert report.critical_count == 2
        # Every one-decimal value, against a table built from its integer
        # and tenth digits with no float in between: band k covers
        # (k-1, k] with 0.0 in band 1, critical means 9.0 and up, and the
        # cvss column renders the value as written.
        for tenths in range(0, 101):
            units, tenth = divmod(tenths, 10)
            text = f"{units}.{tenth}"
            entry = scored(f"CVE-2022-{tenths:05d}", text)
            report = compare([entry])
            band = max(1, units + (tenth > 0))
            assert report.cvss_bands == {b: int(b == band) for b in range(10, 0, -1)}, text
            assert report.critical_count == int(units >= 9), text
            data = b"".join(export_chunks(rank([entry]), ExportFormat.CSV)).decode()
            (row,) = csv.DictReader(io.StringIO(data))
            assert row["cvss"] == text

    def test_default_tiers(self):
        entries = [
            scored("CVE-2022-00001", "10.0", wx=100),  # 110 -> >=64
            scored("CVE-2022-00002", "10.0", wx=30),  # 40 -> 32-64
            scored("CVE-2022-00003", "10.0", wx=10),  # 20 -> 16-32
            scored("CVE-2022-00004", "9.0"),  # 9 -> 8-16
            scored("CVE-2022-00005", "5.0"),  # 5 -> <8
        ]
        report = compare(entries)
        assert report.threat_tiers == (
            (">=64", 1),
            ("32-64", 1),
            ("16-32", 1),
            ("8-16", 1),
            ("<8", 1),
        )

    def test_top_k_restricted_to_portfolio_size(self):
        report = compare(trio_portfolio())
        assert report.top_k_overlap == {}

    def test_custom_bounds_validated(self):
        with pytest.raises(ValueError):
            compare(trio_portfolio(), tier_bounds=(8, 16))

    def test_empty_bounds_refused(self):
        # The CLI's parser refuses empty bounds; a library caller may not.
        with pytest.raises(ValueError, match="must not be empty"):
            compare(trio_portfolio(), tier_bounds=[])


class TestExport:
    def test_deterministic_bytes(self):
        portfolio = rank(random_portfolio(50, seed=13))
        for fmt in ExportFormat:
            assert b"".join(export_chunks(portfolio, fmt)) == b"".join(
                export_chunks(portfolio, fmt)
            )
        report = compare(random_portfolio(50, seed=13))
        for fmt in ExportFormat:
            assert b"".join(export_chunks(report, fmt)) == b"".join(export_chunks(report, fmt))

    def test_empty_csv_is_header_only(self):
        data = b"".join(export_chunks(rank([]), ExportFormat.CSV))
        assert data.decode() == ",".join(CSV_COLUMNS) + "\n"

    def test_trio_csv_rows(self):
        data = b"".join(export_chunks(rank(trio_portfolio()), ExportFormat.CSV)).decode()
        lines = data.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "1,CVE-2017-0143,102.3,8.1,High,26,2,0,1,SME"
        assert lines[2] == "2,CVE-2020-27256,40.8,6.8,Medium,0,2,1,1,SME"
        assert lines[3] == "3,CVE-2019-11324,9.5,7.5,High,2,0,0,1,SME"

    def test_jsonl_mirrors_fields(self):
        data = b"".join(export_chunks(rank(trio_portfolio()), ExportFormat.STRUCTURED)).decode()
        rows = [json.loads(line) for line in data.strip().split("\n")]
        assert rows[0]["cve_id"] == "CVE-2017-0143"
        assert rows[0]["threat_score"] == "102.3"
        assert rows[0]["rank"] == 1
        assert set(rows[0]) == set(CSV_COLUMNS)

    def test_text_report_two_columns(self):
        data = b"".join(export_chunks(compare(trio_portfolio()), ExportFormat.TEXT)).decode()
        assert "CVSS band" in data
        assert "threat tier" in data
        assert "|" in data
        assert "critical (9.0-10.0): 0" in data

    def test_report_csv_sections(self):
        data = b"".join(export_chunks(compare(trio_portfolio()), ExportFormat.CSV)).decode()
        assert data.startswith("section,bucket,value\n")
        assert "cvss_band,10,0" in data
        assert "threat_tier,>=64,1" in data

    @pytest.mark.parametrize("fmt", list(ExportFormat))
    def test_id_that_is_not_a_cve_id_refused(self, fmt):
        # Rows are written without quoting or escaping, so an id that
        # would need either is refused in every format.
        portfolio = rank([*trio_portfolio(), scored('bad"id,x', "5.0")])
        with pytest.raises(ValueError, match="not a CVE id"):
            b"".join(export_chunks(portfolio, fmt))

    @pytest.mark.parametrize("fmt", list(ExportFormat))
    def test_a_tuple_exports_as_the_list(self, fmt):
        portfolio = rank(trio_portfolio())
        assert b"".join(export_chunks(tuple(portfolio), fmt)) == b"".join(
            export_chunks(portfolio, fmt)
        )

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda rows: {s.cve_id: s for s in rows}, "dict"),
            (lambda rows: (s for s in rows), "generator"),
            (lambda rows: rows[0], "ScoredVulnerability"),
        ],
        ids=["dict", "generator", "row"],
    )
    def test_other_types_are_a_type_error(self, make, name):
        # A dict, a one-shot generator or a single row, a named tuple, is
        # no ranking: refused at the call.
        with pytest.raises(TypeError, match=f"^cannot export {name}$"):
            export_chunks(make(rank(trio_portfolio())), ExportFormat.CSV)

    @pytest.mark.parametrize("fmt", list(ExportFormat))
    def test_bad_id_in_the_last_chunk_raises_at_the_call(self, fmt):
        # The check runs before the generator is returned, so the CLI
        # neither creates the output file nor writes to stdout.
        entries = [scored(f"CVE-2020-{n:05d}", "9.0") for n in range(2 * CHUNK_LINES)]
        portfolio = rank([*entries, scored("CVE-2020-1", "0.0")])
        assert portfolio[-1].cve_id == "CVE-2020-1"
        with pytest.raises(ValueError, match="'CVE-2020-1': not a CVE id"):
            export_chunks(portfolio, fmt)

    def test_export_memory_does_not_grow_with_the_portfolio(self):
        # Every threat score distinct: the score-text cache is bounded too.
        # JSON lines, score's format, has the longest rows.
        def peak(n):
            portfolio = rank(scored(f"CVE-2021-{i:06d}", "5.0", wx=i) for i in range(n))
            tracemalloc.start()
            try:
                for _ in export_chunks(portfolio, ExportFormat.STRUCTURED):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(40_000)
        assert abs(large - small) <= 1 << 20, (small, large)

    def test_format_parse_accepts_structured_alias(self):
        assert ExportFormat("structured") is ExportFormat.STRUCTURED
        assert ExportFormat("json-lines") is ExportFormat.STRUCTURED
        with pytest.raises(ValueError):
            ExportFormat("xml")
