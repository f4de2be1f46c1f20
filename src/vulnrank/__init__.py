"""vulnrank: threat-score vulnerability prioritization.

Combines CVSS v3.1 base scores with weaponized-exploit counts,
attacker-utility and opportune triage categories, and per-asset
environmental weights into one unbounded, stack-rankable threat score.
Text classifiers trained on SME-labeled descriptions automate the
category assignment at portfolio scale.
"""

from vulnrank.cvss import (
    CvssVector,
    Severity,
    base_score,
    parse_vector,
    severity_of,
)
from vulnrank.feeds import (
    CveRecord,
    Judgment,
    Labeler,
    iter_cve_records,
    iter_label_rows,
    load_asset_context,
    load_exploit_refs,
    load_judgments,
    save_labels,
)
from vulnrank.report import (
    ComparisonReport,
    ExportFormat,
    compare,
    export_chunks,
    rank,
)
from vulnrank.scoring import (
    DEFAULT_ENV_WEIGHTS,
    ScoredVulnerability,
    env_factor,
    score_portfolio,
    threat_score,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CveRecord",
    "CvssVector",
    "DEFAULT_ENV_WEIGHTS",
    "ExportFormat",
    "Judgment",
    "Labeler",
    "ScoredVulnerability",
    "Severity",
    "base_score",
    "compare",
    "env_factor",
    "export_chunks",
    "iter_cve_records",
    "iter_label_rows",
    "load_asset_context",
    "load_exploit_refs",
    "load_judgments",
    "parse_vector",
    "rank",
    "save_labels",
    "score_portfolio",
    "severity_of",
    "threat_score",
]
