"""Row rendering, ranking and comparison held to per-record reference forms.

The json-lines, text and CSV exports write each row from one
``%``-template per format, and the comparison report's CSV likewise;
``rank``/``compare`` order by stable sorts without negating any Decimal,
``compare`` counts bands and tiers once per distinct value, and rows
render each distinct threat, severity and env once, from bounded
caches. Here each is compared with a plain form:
``compact_json(_portfolio_row(...))``, the text row formatted from that
dict, ``csv.DictWriter`` over those dicts,
``csv.writer`` over the report's rows for both tier-bound sets, a sort
on ``(-threat, -cvss, cve_id)``, counts taken record by record, and the
threat formula multiplied out factor by factor. The portfolios are the
golden one and hypothesis ones with heavy ties: few distinct CVSS, wx,
label and environment values, and one with more distinct values than
the caches hold. ``export_chunks`` is held to the same forms at every
size around the chunk boundaries.
"""

import csv
import io
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from vulnrank.cli import _scored_portfolio, build_config, build_parser
from vulnrank.cvss import severity_of
from vulnrank.feeds import CHUNK_LINES, Judgment, Labeler, compact_json
from vulnrank.report import (
    CSV_COLUMNS,
    DEFAULT_TIER_BOUNDS,
    ExportFormat,
    compare,
    export_chunks,
    rank,
)
from vulnrank.scoring import ScoredVulnerability, format_quantity

from test_golden import write_golden_feeds

TOP_K = (1, 2, 3, 5, 10, 100, 1000)
# The second set has bounds equal to threat scores the tied portfolios hold.
TIER_BOUNDS = (DEFAULT_TIER_BOUNDS, (Decimal(15), Decimal("7.5"), Decimal(0)))


def reference_order(scored):
    return sorted(scored, key=lambda s: (-s.threat_score, -s.cvss, s.cve_id))


def _portfolio_row(rank_pos: int, s: ScoredVulnerability) -> dict:
    return {
        "rank": rank_pos,
        "cve_id": s.cve_id,
        "threat_score": format_quantity(s.threat_score),
        "cvss": str(s.cvss),
        "severity": severity_of(s.cvss).value,
        "wx": s.wx,
        "utility": s.labels.utility,
        "opportune": s.labels.opportune,
        "env_product": format_quantity(s.env),
        "label_source": s.labels.labeler.value,
    }


def reference_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def reference_report_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "bucket", "value"])
    for band in range(10, 0, -1):
        writer.writerow(["cvss_band", band, report.cvss_bands[band]])
    for label, count in report.threat_tiers:
        writer.writerow(["threat_tier", label, count])
    writer.writerow(["critical", "9.0-10.0", report.critical_count])
    for k in sorted(report.top_k_overlap):
        writer.writerow(["overlap", f"top-{k}", f"{report.top_k_overlap[k]:.4f}"])
    return buf.getvalue()


def reference_text_row(row: dict) -> str:
    return (
        f"{row['rank']:>5} {row['cve_id']:<18} {row['threat_score']:>12} "
        f"{row['cvss']:>5} {row['severity']:<8} {row['wx']:>5} "
        f"{row['utility']:>4} {row['opportune']:>3} {row['env_product']:>6} "
        f"{row['label_source']:<6}"
    )


def reference_overlap(scored, top_k):
    by_threat = reference_order(scored)
    by_cvss = sorted(scored, key=lambda s: (-s.cvss, s.cve_id))
    overlap = {}
    for k in top_k:
        if 1 <= k <= len(scored):
            top_threat = {s.cve_id for s in by_threat[:k]}
            top_cvss = {s.cve_id for s in by_cvss[:k]}
            overlap[k] = len(top_threat & top_cvss) / len(top_threat | top_cvss)
    return overlap


def reference_counts(scored, bounds):
    """``(cvss_bands, critical_count, threat_tiers)``, record by record."""
    bands = {band: 0 for band in range(10, 0, -1)}
    labels = [f">={format_quantity(bounds[0])}"]
    labels += [f"{format_quantity(lo)}-{format_quantity(hi)}" for hi, lo in zip(bounds, bounds[1:])]
    labels.append(f"<{format_quantity(bounds[-1])}")
    tiers = [0] * len(labels)
    for s in scored:
        bands[max(1, math.ceil(s.cvss))] += 1
        tiers[next((i for i, b in enumerate(bounds) if s.threat_score >= b), len(bounds))] += 1
    critical = sum(1 for s in scored if s.cvss >= 9)
    return bands, critical, tuple(zip(labels, tiers))


def reference_threat(s):
    return (s.cvss + s.wx) * (s.labels.utility + 1) * (s.labels.opportune + 1) * s.env


def assert_equivalent(scored):
    # By representation: equal Decimals of another exponent print apart.
    assert [str(s.threat_score) for s in scored] == [str(reference_threat(s)) for s in scored]

    portfolio = rank(scored)
    assert portfolio == reference_order(scored)
    assert [s.cve_id for s in portfolio] == [s.cve_id for s in reference_order(scored)]
    rows = [_portfolio_row(pos, s) for pos, s in enumerate(portfolio, start=1)]

    jsonl = b"".join(export_chunks(portfolio, ExportFormat.STRUCTURED)).decode("utf-8").splitlines()
    assert jsonl == [compact_json(row) for row in rows]
    text = b"".join(export_chunks(portfolio, ExportFormat.TEXT)).decode("utf-8").splitlines()
    assert text[1:] == [reference_text_row(row) for row in rows]
    assert b"".join(export_chunks(portfolio, ExportFormat.CSV)).decode("utf-8") == reference_csv(rows)

    assert compare(scored, top_k=TOP_K).top_k_overlap == reference_overlap(scored, TOP_K)
    for bounds in TIER_BOUNDS:
        report = compare(scored, tier_bounds=bounds, top_k=TOP_K)
        counts = (report.cvss_bands, report.critical_count, report.threat_tiers)
        assert counts == reference_counts(scored, bounds)
        assert b"".join(export_chunks(report, ExportFormat.CSV)).decode("utf-8") == reference_report_csv(report)


def test_golden_portfolio(tmp_path):
    paths = write_golden_feeds(tmp_path)
    argv = ["score"] + [arg for name, path in paths.items() for arg in (f"--{name}", path)]
    scored = _scored_portfolio(build_config(build_parser().parse_args(argv)))
    assert len(scored) == 300
    assert_equivalent(scored)


# 7 and 7.50, built by hand, are equal to 7.0 but print apart.
CVSS = [Decimal(value) for value in ("0.0", "7.5", "10.0", "7", "7.50")]
# 1*1 and 2*0.5 are equal products that differ in exponent, as are
# 1.5*1 and 1.5*1.0.
ENVS = [
    Decimal(e) * Decimal(c)
    for e, c in (("1", "1"), ("2", "0.5"), ("1.5", "1.2"), ("1.5", "1"), ("1.5", "1.0"))
]


def scored(year, number, width, utility, opportune, labeler, cvss, wx, env):
    cve_id = f"CVE-{year}-{number:0{width}d}"
    labels = Judgment(utility, opportune, labeler)
    return ScoredVulnerability(cve_id=cve_id, cvss=cvss, wx=wx, labels=labels, env=env)


TIED_PORTFOLIOS = st.lists(
    st.builds(
        scored, st.sampled_from(["1999", "2020"]), st.integers(1, 99_999), st.sampled_from([4, 5]),
        st.integers(0, 2), st.integers(0, 1), st.sampled_from(list(Labeler)),
        st.sampled_from(CVSS), st.sampled_from([0, 0, 1]), st.sampled_from(ENVS),
    ),
    min_size=8,
    max_size=40,
    unique_by=lambda s: s.cve_id,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scored=TIED_PORTFOLIOS)
def test_tied_portfolios(scored):
    assert_equivalent(scored)


def test_empty_portfolio():
    assert_equivalent([])


TEXT_TITLES = {
    "rank": "rank", "cve_id": "cve_id", "threat_score": "threat", "cvss": "cvss",
    "severity": "severity", "wx": "wx", "utility": "util", "opportune": "opp",
    "env_product": "env", "label_source": "source",
}


def tied_portfolio(n):
    labelers = list(Labeler)
    return [
        scored(
            "2020", i, 5, i % 3, i % 2, labelers[i % 2], CVSS[i % len(CVSS)], i % 4,
            ENVS[i % len(ENVS)],
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("size", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1, 2 * CHUNK_LINES + 1])
def test_export_chunks_at_chunk_boundaries(size):
    portfolio = rank(tied_portfolio(size))
    rows = [_portfolio_row(pos, s) for pos, s in enumerate(portfolio, start=1)]
    expected = {
        ExportFormat.STRUCTURED: "".join(compact_json(row) + "\n" for row in rows),
        ExportFormat.TEXT: "".join(reference_text_row(row) + "\n" for row in [TEXT_TITLES, *rows]),
        ExportFormat.CSV: reference_csv(rows),
    }
    for fmt, text in expected.items():
        chunks = list(export_chunks(portfolio, fmt))
        assert b"".join(chunks) == b"".join(export_chunks(portfolio, fmt)) == text.encode("utf-8")
        # Whole lines, CHUNK_LINES of them to a chunk, the header counting as one.
        assert [chunk.count(b"\n") for chunk in chunks[:-1]] == [CHUNK_LINES] * (len(chunks) - 1)
        assert len(chunks) == -(-text.count("\n") // CHUNK_LINES)
        assert all(chunk.endswith(b"\n") for chunk in chunks)
    if size == 0:
        assert b"".join(export_chunks(portfolio, ExportFormat.STRUCTURED)) == b""
        assert b"".join(export_chunks(portfolio, ExportFormat.CSV)) == (",".join(CSV_COLUMNS) + "\n").encode()


def test_more_distinct_values_than_the_caches_hold():
    # Over CHUNK_LINES distinct threats, CVSS values and env products,
    # each seen again after its cache was emptied.
    labelers = list(Labeler)
    distinct = CHUNK_LINES + 3
    portfolio = [
        scored(
            "2021", i, 5, i % 3, i % 2, labelers[i % 2], Decimal(i % distinct).scaleb(-3), i % 5,
            Decimal(1000 + i % (distinct + 2)).scaleb(-3),
        )
        for i in range(2 * CHUNK_LINES + 1)
    ]
    assert len({s.threat_score for s in portfolio}) > CHUNK_LINES
    assert len({s.cvss for s in portfolio}) > CHUNK_LINES
    assert len({s.env for s in portfolio}) > CHUNK_LINES
    assert_equivalent(portfolio)


def test_comparison_report_is_one_chunk():
    report = compare(tied_portfolio(2 * CHUNK_LINES + 1), top_k=TOP_K)
    for fmt in ExportFormat:
        (chunk,) = export_chunks(report, fmt)
        assert chunk == b"".join(export_chunks(report, fmt))
    (csv_chunk,) = export_chunks(report, ExportFormat.CSV)
    assert csv_chunk.decode("utf-8") == reference_report_csv(report)
