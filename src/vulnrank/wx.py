"""Weaponized-exploit counts: how many distinct exploit references a CVE has.

The count is unbounded and deliberately unweighted: every distinct
exploit reference counts one, regardless of source or age. ``count_wx``
gives one ``WxCount(cve_id, count)`` per CVE in the reference feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from vulnrank.feeds import ReferenceEntry


@dataclass(frozen=True, slots=True)
class WxCount:
    cve_id: str
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"{self.cve_id}: negative count")


def count_wx(refs: Mapping[str, Iterable[ReferenceEntry]]) -> dict[str, WxCount]:
    """Count exploit-flagged references per CVE.

    Input must already be URL-deduplicated (the reference feed loader
    guarantees this). CVEs absent from the feed have no entry, and
    ``score_portfolio`` scores them with zero exploits.
    """
    return {
        cve_id: WxCount(cve_id, sum(entry.is_exploit for entry in entries))
        for cve_id, entries in refs.items()
    }
