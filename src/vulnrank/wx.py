"""Weaponized-exploit counts: how many distinct exploit references a CVE has.

The count is unbounded and deliberately unweighted: every distinct
exploit reference counts one, regardless of source or age.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from vulnrank.feeds import ReferenceEntry, ReferenceSource


_MEMBER = {source.value: source for source in ReferenceSource}


@dataclass(frozen=True, slots=True)
class WxCount:
    cve_id: str
    count: int
    per_source: Mapping[ReferenceSource, int]

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"{self.cve_id}: negative count")
        if self.count != sum(self.per_source.values()):
            raise ValueError(
                f"{self.cve_id}: count {self.count} does not reconcile with "
                f"per-source totals {dict(self.per_source)}"
            )


def count_wx(refs: Mapping[str, Iterable[ReferenceEntry]]) -> dict[str, WxCount]:
    """Count exploit-flagged references per CVE.

    Input must already be URL-deduplicated (the reference feed loader
    guarantees this). CVEs absent from the feed have no entry, and
    ``score_portfolio`` scores them with zero exploits.
    """
    counts: dict[str, WxCount] = {}
    for cve_id, entries in refs.items():
        # Tallied on the members' value strings: a member key would cost
        # two Python-level Enum.__hash__ calls per entry.
        tally: dict[str, int] = {}
        for entry in entries:
            if entry.is_exploit:
                value = entry.source._value_
                tally[value] = tally.get(value, 0) + 1
        counts[cve_id] = WxCount(
            cve_id=cve_id,
            count=sum(tally.values()),
            per_source=MappingProxyType({_MEMBER[value]: n for value, n in tally.items()}),
        )
    return counts
