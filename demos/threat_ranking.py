"""Walkthrough: from CVSS-only triage to threat-score stack ranking.

Builds the three worked examples in memory, scores them with
    (cvss + wx) * (utility + 1) * (opportune + 1) * (environmental factors)
and shows why the ranking disagrees with plain CVSS: an insulin pump
with a hard-coded PIN (CVSS 6.8) outranks a TLS validation bug
(CVSS 7.5) because attackers get more out of it with less effort.
"""

from decimal import Decimal

from vulnrank import (
    CveRecord,
    Judgment,
    Labeler,
    compare,
    export_chunks,
    rank,
    score_portfolio,
)
from vulnrank.feeds import Criticality, Exposure
from vulnrank.report import ExportFormat

RECORDS = [
    CveRecord(
        "CVE-2017-0143",
        "SMBv1 server allows remote attackers to execute arbitrary code",
        published_score=Decimal("8.1"),
    ),
    CveRecord(
        "CVE-2019-11324",
        "urllib3 mishandles certain CA certificate stores",
        published_score=Decimal("7.5"),
    ),
    CveRecord(
        "CVE-2020-27256",
        "hard-coded physician PIN in an insulin pump",
        published_score=Decimal("6.8"),
    ),
]

# Exploit-reference counts, as a feed crawler would produce them:
# 26 public exploits for the SMB bug, 2 for urllib3, none for the pump.
WX = {
    "CVE-2017-0143": 26,
    "CVE-2019-11324": 2,
}

# SME triage: the SMB bug and the pump both give attackers "actions on
# objectives" (utility 2); the pump needs no exploit code at all
# (opportune 1).
LABELS = {
    cve_id: Judgment(utility, opportune, Labeler.SME)
    for cve_id, utility, opportune in (
        ("CVE-2017-0143", 2, 0),
        ("CVE-2019-11324", 0, 0),
        ("CVE-2020-27256", 2, 1),
    )
}

scored = score_portfolio(RECORDS, WX, LABELS)
print("== ranked queue (neutral environment) ==")
print(b"".join(export_chunks(rank(scored), ExportFormat.TEXT)).decode())

print("CVSS order:   11324 (7.5) above 27256 (6.8)")
print("threat order:", " > ".join(s.cve_id.split("-")[-1] for s in rank(scored)))
print()

# The comparison view: how the two orderings bucket the same portfolio.
print("== comparison report ==")
print(b"".join(export_chunks(compare(scored), ExportFormat.TEXT)).decode())

# Environmental factors: the same pump CVE on a public, high-criticality
# asset multiplies by 1.5 * 1.5.
ctx = {"CVE-2020-27256": (Exposure.PUBLIC, Criticality.HIGH)}
rescored = score_portfolio(RECORDS, WX, LABELS, ctx)
print("== with asset context on the pump ==")
for s in rank(rescored):
    print(f"  {s.cve_id}: threat {s.threat_score} (env product {s.env})")
