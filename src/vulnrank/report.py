"""Stack ranking and the CVSS-versus-threat-score comparison report.

Ranking is a total order: threat score descending, ties broken by higher
CVSS and then lexicographically smaller CVE id, so remediation queues
come out identical on every run. The comparison report buckets the same
portfolio twice: by integer CVSS band (10 down to 1) and by configurable
threat-score tiers, plus top-k agreement between the two orderings.

Exports are built from ``%``-templates, not by a CSV or JSON writer: no
exported string needs CSV quoting or JSON escaping. Every id is checked
against ``feeds.CVE_ID_RE`` before the first row is rendered, and every
other string is a plain decimal, an enum value or a tier label built
from decimals.
"""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_CEILING, Decimal
from itertools import chain, filterfalse
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from vulnrank.cvss import IdentityEnum, severity_of
from vulnrank.feeds import CHUNK_LINES, CVE_ID_RE, compact_json, encoded_chunks
from vulnrank.scoring import ScoredVulnerability, format_quantity

DEFAULT_TIER_BOUNDS = (Decimal(64), Decimal(32), Decimal(16), Decimal(8))
DEFAULT_TOP_K = (10, 100, 1000)


class ExportFormat(IdentityEnum):
    TEXT = "text"
    CSV = "csv"
    STRUCTURED = "json-lines"

    @classmethod
    def _missing_(cls, value):
        # "structured" is an alias of json-lines.
        return cls.STRUCTURED if value == "structured" else None


# The portfolio columns: (name, text title, text %-spec). The name heads
# the CSV column and keys the JSON field; a "d" column is a JSON number
# and an "s" column a JSON string. Every template writes with "s", which
# prints an int as "d" does, in less time.
_COLUMNS = (
    ("rank", "rank", "%5d"),
    ("cve_id", "cve_id", "%-18s"),
    ("threat_score", "threat", "%12s"),
    ("cvss", "cvss", "%5s"),
    ("severity", "severity", "%-8s"),
    ("wx", "wx", "%5d"),
    ("utility", "util", "%4d"),
    ("opportune", "opp", "%3d"),
    ("env_product", "env", "%6s"),
    ("label_source", "source", "%-6s"),
)
CSV_COLUMNS = tuple(name for name, _, _ in _COLUMNS)
_TEXT_ROW = " ".join(f"{spec[:-1]}s" for _, _, spec in _COLUMNS) + "\n"
# Per format: (header line or None, row template), each ending in a newline.
_PORTFOLIO_LINES = {
    ExportFormat.TEXT: (_TEXT_ROW % tuple(title for _, title, _ in _COLUMNS), _TEXT_ROW),
    ExportFormat.CSV: (",".join(CSV_COLUMNS) + "\n", ",".join(["%s"] * len(_COLUMNS)) + "\n"),
    ExportFormat.STRUCTURED: (None, "{%s}\n" % ",".join(
        f'"{name}":%s' if spec[-1] == "d" else f'"{name}":"%s"' for name, _, spec in _COLUMNS
    )),
}
_is_cve_id = CVE_ID_RE.fullmatch


class ComparisonReport(NamedTuple):
    total: int
    cvss_bands: dict[int, int]
    critical_count: int
    threat_tiers: tuple[tuple[str, int], ...]
    top_k_overlap: dict[int, float]


# Orders are built by stable sorts on one key each, weakest key first:
# CVE id ascending, then CVSS descending, then threat score descending.
# A stable sort keeps the order of the previous pass among equal keys,
# even with reverse=True, so no Decimal is negated and each comparison
# is one Decimal compare rather than a tuple's two.
_by_id = attrgetter("cve_id")
_by_cvss = attrgetter("cvss")
_by_threat = attrgetter("threat_score")


def _by_id_then_cvss(scored: Iterable[ScoredVulnerability]) -> list[ScoredVulnerability]:
    """CVSS descending, ties in CVE id order."""
    entries = sorted(scored, key=_by_id)
    entries.sort(key=_by_cvss, reverse=True)
    return entries


def rank(scored: Iterable[ScoredVulnerability]) -> list[ScoredVulnerability]:
    """Total order by threat score, then CVSS, then CVE id: a new list in
    which position i holds rank i+1.

    The list is sorted in place in three stable single-key passes: CVE
    id ascending, CVSS descending, then threat score descending.
    """
    entries = _by_id_then_cvss(scored)
    entries.sort(key=_by_threat, reverse=True)
    return entries


def _cvss_band(value: Decimal) -> int:
    # Band k covers (k-1, k]; 0.0 joins band 1 so the bands partition.
    return max(1, int(value.to_integral_value(ROUND_CEILING)))


def _tier_label(bounds: Sequence[Decimal], i: int) -> str:
    if i == 0:
        return f">={format_quantity(bounds[0])}"
    return f"{format_quantity(bounds[i])}-{format_quantity(bounds[i - 1])}"


def compare(
    scored: Iterable[ScoredVulnerability],
    tier_bounds: Sequence[Decimal] = DEFAULT_TIER_BOUNDS,
    top_k: Sequence[int] = DEFAULT_TOP_K,
) -> ComparisonReport:
    """Bucket the portfolio by CVSS band and by threat tier, and measure
    how far the two orderings agree at the top."""
    scored = list(scored)
    bounds = [Decimal(b) for b in tier_bounds]
    if not bounds:
        raise ValueError("tier bounds must not be empty")
    if bounds != sorted(bounds, reverse=True) or len(set(bounds)) != len(bounds):
        raise ValueError(f"tier bounds must be strictly descending, got {tier_bounds}")

    # Bands and tiers depend only on the value, and a portfolio holds far
    # fewer distinct CVSS values and threat scores than records.
    cvss_bands = {band: 0 for band in range(10, 0, -1)}
    critical = 0
    for value, count in Counter(map(_by_cvss, scored)).items():
        cvss_bands[_cvss_band(value)] += count
        if value >= 9:
            critical += count
    tier_counts = [0] * (len(bounds) + 1)
    for threat, count in Counter(map(_by_threat, scored)).items():
        for i, bound in enumerate(bounds):
            if threat >= bound:
                tier_counts[i] += count
                break
        else:
            tier_counts[-1] += count

    tiers = tuple(
        (_tier_label(bounds, i), tier_counts[i]) for i in range(len(bounds))
    ) + ((f"<{format_quantity(bounds[-1])}", tier_counts[-1]),)

    ks = [k for k in top_k if 1 <= k <= len(scored)]
    overlap = {}
    if ks:
        # Imported here so that no other command loads heapq at start-up.
        # nlargest is documented to equal sorted(..., reverse=True)[:n],
        # ties included, so over the CVSS order it gives the top of the
        # rank order without a full sort.
        from heapq import nlargest

        by_cvss = _by_id_then_cvss(scored)
        by_threat = nlargest(max(ks), by_cvss, key=_by_threat)
        for k in ks:
            top_threat = {s.cve_id for s in by_threat[:k]}
            top_cvss = {s.cve_id for s in by_cvss[:k]}
            overlap[k] = len(top_threat & top_cvss) / len(top_threat | top_cvss)

    return ComparisonReport(
        total=len(scored),
        cvss_bands=cvss_bands,
        critical_count=critical,
        threat_tiers=tiers,
        top_k_overlap=overlap,
    )


class _Texts(dict):
    """Each Decimal's text, rendered on its first lookup; equal Decimals
    share one. Emptied at ``CHUNK_LINES`` texts, so it never outgrows a
    chunk."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render

    def __missing__(self, value: Decimal) -> str:
        if len(self) == CHUNK_LINES:
            self.clear()
        text = self[value] = self.render(value)
        return text


def _rows(ranked: Sequence[ScoredVulnerability]) -> Iterator[tuple]:
    """Each row's ``_COLUMNS`` values, in rank order.

    A portfolio holds far fewer distinct threat scores, CVSS values and
    env products than rows, so each text is rendered once per distinct
    value. ``_value_`` is the enum's plain attribute; the ``value``
    property costs ten times as much.
    """
    quantities = _Texts(format_quantity)
    severities = _Texts(lambda cvss: severity_of(cvss)._value_)
    for pos, s in enumerate(ranked, start=1):
        labels = s.labels
        yield (
            pos, s.cve_id, quantities[s.threat_score], s.cvss, severities[s.cvss], s.wx,
            labels.utility, labels.opportune, quantities[s.env], labels.labeler._value_,
        )


def _report_text(report: ComparisonReport) -> str:
    # Two-column view: CVSS bands on the left, threat tiers on the right.
    left = [f"{'CVSS band':<12} {'count':>8}"]
    left += [f"{f'{b - 1}-{b}':<12} {report.cvss_bands[b]:>8}" for b in range(10, 0, -1)]
    right = [f"{'threat tier':<12} {'count':>8}"]
    right += [f"{label:<12} {count:>8}" for label, count in report.threat_tiers]

    width = max(len(line) for line in left)
    lines = []
    for i in range(max(len(left), len(right))):
        l = left[i] if i < len(left) else ""
        r = right[i] if i < len(right) else ""
        lines.append(f"{l:<{width}}   | {r}".rstrip())
    lines.append(f"total: {report.total}")
    lines.append(f"critical (9.0-10.0): {report.critical_count}")
    for k in sorted(report.top_k_overlap):
        lines.append(f"top-{k} overlap (jaccard): {report.top_k_overlap[k]:.4f}")
    return "\n".join(lines) + "\n"


def _report_csv(report: ComparisonReport) -> str:
    rows = [("section", "bucket", "value")]
    rows += [("cvss_band", band, report.cvss_bands[band]) for band in range(10, 0, -1)]
    rows += [("threat_tier", label, count) for label, count in report.threat_tiers]
    rows.append(("critical", "9.0-10.0", report.critical_count))
    rows += [
        ("overlap", f"top-{k}", f"{report.top_k_overlap[k]:.4f}")
        for k in sorted(report.top_k_overlap)
    ]
    return "".join("%s,%s,%s\n" % row for row in rows)


def _report_jsonl(report: ComparisonReport) -> str:
    rows = [{"kind": "total", "count": report.total}]
    rows += [
        {"kind": "cvss_band", "band": band, "count": report.cvss_bands[band]}
        for band in range(10, 0, -1)
    ]
    rows += [
        {"kind": "threat_tier", "tier": label, "count": count}
        for label, count in report.threat_tiers
    ]
    rows.append({"kind": "critical", "count": report.critical_count})
    rows += [
        {"kind": "overlap", "k": k, "jaccard": report.top_k_overlap[k]}
        for k in sorted(report.top_k_overlap)
    ]
    return "\n".join(compact_json(row) for row in rows) + "\n"


_REPORT_RENDERERS = {
    ExportFormat.TEXT: _report_text,
    ExportFormat.CSV: _report_csv,
    ExportFormat.STRUCTURED: _report_jsonl,
}


def export_chunks(obj: list | tuple | ComparisonReport, fmt: ExportFormat) -> Iterator[bytes]:
    """Deterministic bytes for a portfolio, its rows in rank order in a list
    or plain tuple as ``rank`` returns them, or a comparison report, in
    chunks: a portfolio's of ``CHUNK_LINES`` lines, so no export holds its
    whole output, and a report's in one. Any other type raises TypeError,
    a single row, a tuple itself, included.

    Rows are written unquoted and unescaped, so an id that ``CVE_ID_RE``
    does not match as a whole raises ValueError here, at the call, before
    any row is rendered.
    """
    if isinstance(obj, ComparisonReport):
        return iter((_REPORT_RENDERERS[fmt](obj).encode("utf-8"),))
    if not isinstance(obj, list) and type(obj) is not tuple:
        raise TypeError(f"cannot export {type(obj).__name__}")
    bad = next(filterfalse(_is_cve_id, map(_by_id, obj)), None)
    if bad is not None:
        raise ValueError(f"cannot export {bad!r}: not a CVE id")
    header, row = _PORTFOLIO_LINES[fmt]
    lines = map(row.__mod__, _rows(obj))
    return encoded_chunks(lines if header is None else chain((header,), lines))
