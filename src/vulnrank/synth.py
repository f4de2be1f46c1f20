"""Deterministic synthetic fixtures: labeled corpora, CVE feeds, portfolios.

Real SME label sets are proprietary, so demos and verification run on
generated data instead. Descriptions are keyword-planted: each utility
category and the opportune flag get exclusive marker phrases wrapped in
seeded filler, which makes the corpora learnable by construction while
still looking like vulnerability text.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone
from decimal import Decimal

from vulnrank.feeds import CveRecord, Judgment, LabelRow, Labeler, write_atomic
from vulnrank.scoring import ScoredVulnerability, score_portfolio

SYNTH_TS = datetime(2024, 1, 1, tzinfo=timezone.utc)

VENDORS = (
    "Acme", "Borealis", "Cobalt", "Drift", "Evergreen", "Foxglove", "Granite",
    "Harbor", "Ironwood", "Juniper", "Kestrel", "Larkspur",
)
COMPONENTS = (
    "gateway", "agent", "daemon", "console", "router", "scheduler", "broker",
    "collector", "proxy", "runtime", "updater", "portal",
)

UTILITY_PHRASES = {
    0: (
        "discloses verbose version banners and harmless build metadata to callers",
        "leaks benign diagnostic timing information in error responses",
        "exposes non-sensitive configuration listing through a status page",
    ),
    1: (
        "allows privilege escalation that attackers chain for lateral movement after an initial foothold",
        "permits session pivoting so an attacker can chain access toward internal segments",
        "enables token reuse that supports chaining into adjacent services",
    ),
    2: (
        "allows remote attackers to execute arbitrary code via crafted packets",
        "lets unauthenticated attackers execute arbitrary commands and take over the host",
        "allows remote code execution leading to full compromise of the appliance",
    ),
}

OPPORTUNE_PHRASES = (
    "The build ships with default credentials and a hardcoded admin password.",
    "A factory default password grants login without any exploit code.",
)


def _split_counts(n: int, fractions) -> list[int]:
    counts = [int(n * f) for f in fractions]
    counts[0] += n - sum(counts)
    return counts


def synth_labeled_corpus(
    n: int = 600,
    seed: int = 42,
    utility_split=(0.42, 0.32, 0.26),
    opportune_rate: float = 0.08,
    labeler: Labeler = Labeler.SME,
) -> list[tuple[str, LabelRow]]:
    """``(description, row)`` pairs: ``(cve_id, judgment, ts)`` label rows
    and their planted-keyword descriptions."""
    rng = random.Random(seed)
    utilities = [c for c, count in enumerate(_split_counts(n, utility_split)) for _ in range(count)]
    rng.shuffle(utilities)
    opportune_ids = set(rng.sample(range(n), round(n * opportune_rate)))

    docs = []
    for i in range(n):
        utility = utilities[i]
        opportune = 1 if i in opportune_ids else 0
        vendor, component = rng.choice(VENDORS), rng.choice(COMPONENTS)
        version = f"{rng.randrange(1, 9)}.{rng.randrange(0, 20)}"
        sentence = rng.choice(UTILITY_PHRASES[utility])
        description = f"A flaw in {vendor} {component} before {version} {sentence}."
        if opportune:
            description += " " + rng.choice(OPPORTUNE_PHRASES)
        row = (f"CVE-2098-{10000 + i}", Judgment(utility, opportune, labeler), SYNTH_TS)
        docs.append((description, row))
    return docs


def synth_cve_records(docs, seed: int = 42) -> list[CveRecord]:
    """A CVE record per ``(description, row)`` pair, with a seeded
    one-decimal published score."""
    rng = random.Random(seed + 1)
    return [
        CveRecord(
            cve_id=cve_id,
            description=description,
            published_score=Decimal(rng.randrange(1, 101)).scaleb(-1),
        )
        for description, (cve_id, _, _) in docs
    ]


def synth_portfolio(
    n: int = 1000, seed: int = 42, wx_rate: float = 0.05
) -> list[ScoredVulnerability]:
    """A scored portfolio whose CVSS and threat orderings provably differ.

    A dozen entries sit at CVSS 10.0 with no exploit references, while the
    exploit-reference mass (``wx_rate`` of entries, one of them with a
    huge count) lives at CVSS <= 9.0, so the top of the threat ranking
    cannot coincide with the top of the CVSS ranking.
    """
    rng = random.Random(seed)
    pinned_critical = 12
    records, labels_map = [], {}
    wx_ids = rng.sample(range(pinned_critical, n), round(n * wx_rate))
    big_wx = wx_ids[0]
    for i in range(n):
        cve_id = f"CVE-2097-{10000 + i}"
        if i < pinned_critical:
            score = Decimal("10.0")
        else:
            score = Decimal(rng.randrange(1, 91)).scaleb(-1)
        records.append(CveRecord(cve_id, f"synthetic finding {i}", published_score=score))
        utility, opportune = rng.choice((0, 1, 2)), rng.choice((0, 1))
        labels_map[cve_id] = Judgment(utility, opportune, Labeler.SME)
    wx_map = {
        f"CVE-2097-{10000 + i}": 120 if i == big_wx else rng.randrange(1, 61) for i in wx_ids
    }
    return score_portfolio(records, wx_map, labels_map)


def write_cve_feed(path, records) -> None:
    """CVE feed file: one record per line in the documented field layout."""
    rows = []
    for rec in records:
        row = {"id": rec.cve_id, "description": rec.description}
        if rec.vector is not None:
            row["vector"] = rec.vector.to_string()
        if rec.published_score is not None:
            row["score"] = float(rec.published_score)
        rows.append(row)
    write_atomic(path, "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8"))


def write_ref_feed(path, rows) -> None:
    """Exploit reference feed: dicts with cve/url/source/exploit fields."""
    write_atomic(path, "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8"))

