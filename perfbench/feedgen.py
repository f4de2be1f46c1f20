"""Seeded feed generator for the three benchmark workloads.

Every workload writes its feeds into a directory and returns a ``Truth``:
what the generator put in, so the output checks can recompute every
expected value without asking vulnrank. The same seed gives the same
bytes; the program under test only ever sees the written files.

Why each workload exists (see README.md for the metric mapping):

- ``portfolio``: the analyst's daily re-rank. Half the CVEs carry CVSS
  vectors drawn from all 2,592 base vectors (few distinct strings, many
  repeats: the headroom a vector memo would use), half carry published
  one-decimal scores, one in seven has exploit-feed refs. Stresses feeds,
  cvss, scoring and report; triage sits idle.
- ``triage``: extending SME judgments to the rest of the portfolio. SME
  labeled descriptions plus unlabeled ones, padded with Zipfian filler so
  the vocabulary reaches 10^4 tokens as real NVD text does. Stresses
  triage.features, triage.svm, triage.modelio and the label-store write
  path; scoring and report sit idle.
- ``exploit_refs``: published scores only, no vectors, and most CVEs with
  2-12 exploit-feed lines. The same commands as ``portfolio`` with the
  work moved from cvss parsing into reference parsing and wx counting.

No CVE record carries inline ``references``: vulnrank parses them but
never counts them, so they would be dead input. Whether they should count
toward wx is an open design question; until it is settled they are left
out on purpose.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

# Input sizes. They set how long one pass of each workload takes.
PORTFOLIO_CVES = 25_000
EXPLOIT_REFS_CVES = 12_000
TRIAGE_SME = 2_500
TRIAGE_UNLABELED = 8_000

# Copied, not imported, from the program's own fixtures so that a change
# to the program can never change the benchmark's inputs.
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
UTILITY_SPLIT = (0.42, 0.32, 0.26)
OPPORTUNE_RATE = 0.08

# Zipfian filler: FILLER_WORDS tokens per description drawn with weight
# 1/rank over FILLER_RANKS pseudo-words. Every filler word starts with
# "q", which no planted phrase token does, so filler never carries signal.
FILLER_WORDS = 70
FILLER_RANKS = 60_000
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

KNOWN_SOURCES = ("ExploitDB", "Metasploit", "GitHub", "Other")
UNKNOWN_SOURCES = ("PacketStorm", "Vulners")
EXPOSURE_WEIGHT = {"Public": Decimal("1.5"), "Private": Decimal("1.0")}
CRITICALITY_WEIGHT = {"High": Decimal("1.5"), "Medium": Decimal("1.2"), "Low": Decimal("1.0")}

_METRICS = (
    ("AV", "NALP"), ("AC", "LH"), ("PR", "NLH"), ("UI", "NR"),
    ("S", "UC"), ("C", "HLN"), ("I", "HLN"), ("A", "HLN"),
)
ALL_VECTORS = tuple(
    "CVSS:3.1/" + "/".join(f"{key}:{value}" for (key, _), value in zip(_METRICS, values))
    for values in itertools.product(*(letters for _, letters in _METRICS))
)


@dataclass
class Truth:
    """What the generator wrote, keyed by CVE id.

    ``cvss`` holds either a vector string or published tenths (int);
    ``labels`` is the effective (utility, opportune, labeler) per CVE;
    ``env`` the environmental product for CVEs with asset context.
    For triage, ``sme_lines`` are the label-store lines as written and
    ``unlabeled`` the CVEs the models must fill in.
    """

    ids: list[str] = field(default_factory=list)
    cvss: dict[str, str | int] = field(default_factory=dict)
    wx: dict[str, int] = field(default_factory=dict)
    labels: dict[str, tuple[int, int, str]] = field(default_factory=dict)
    env: dict[str, Decimal] = field(default_factory=dict)
    ref_lines: int = 0
    sme_lines: list[dict] = field(default_factory=list)
    unlabeled: set[str] = field(default_factory=set)
    true_labels: dict[str, tuple[int, int]] = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cve_ids(rng: random.Random, n: int) -> list[str]:
    # Unique by construction (the serial is the index); years spread so
    # that id order differs from feed order.
    ids = [f"CVE-{rng.randrange(1999, 2025)}-{10000 + i}" for i in range(n)]
    rng.shuffle(ids)
    return ids


def _ts(day: int) -> str:
    return f"2024-{1 + day // 28:02d}-{1 + day % 28:02d}T00:00:00Z"


def _write_jsonl(path: Path, rows) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            count += 1
    return count


def _labels(rng: random.Random, truth: Truth) -> list[dict]:
    """Every CVE labeled SME or Model; one in ten also has a superseded entry."""
    rows = []
    for cve in truth.ids:
        utility = rng.choices((0, 1, 2), weights=UTILITY_SPLIT)[0]
        opportune = 1 if rng.random() < OPPORTUNE_RATE else 0
        labeler = "SME" if rng.random() < 0.3 else "Model"
        day = rng.randrange(1, 300)
        rows.append({"cve": cve, "utility": utility, "opportune": opportune,
                     "labeler": labeler, "ts": _ts(day)})
        truth.labels[cve] = (utility, opportune, labeler)
        if rng.random() < 0.1:
            # A loser of the merge: a newer Model entry that the SME entry
            # still beats, or an older entry of the same provenance.
            if labeler == "SME" and rng.random() < 0.5:
                loser, loser_day = "Model", day + 1
            else:
                loser, loser_day = labeler, rng.randrange(0, day)
            rows.append({"cve": cve, "utility": (utility + 1) % 3, "opportune": 1 - opportune,
                         "labeler": loser, "ts": _ts(loser_day)})
    rng.shuffle(rows)
    return rows


def _context(rng: random.Random, truth: Truth) -> list[dict]:
    rows = []
    for cve in truth.ids:
        if rng.random() < 0.3:
            exposure = rng.choice(tuple(EXPOSURE_WEIGHT))
            criticality = rng.choice(tuple(CRITICALITY_WEIGHT))
            rows.append({"cve": cve, "exposure": exposure, "criticality": criticality})
            truth.env[cve] = EXPOSURE_WEIGHT[exposure] * CRITICALITY_WEIGHT[criticality]
    return rows


def _refs(rng: random.Random, truth: Truth, cves, counts) -> list[dict]:
    """Exploit-feed lines: ``counts`` picks distinct URLs per CVE; some
    lines use unknown sources, and some URLs repeat verbatim."""
    rows = []
    for cve in cves:
        exploits = 0
        for k in range(counts(rng)):
            source = rng.choice(UNKNOWN_SOURCES) if rng.random() < 0.1 else rng.choice(KNOWN_SOURCES)
            exploit = rng.random() < 0.7
            row = {"cve": cve, "url": f"https://refs.example/{cve}/{k}",
                   "source": source, "exploit": exploit}
            rows.append(row)
            if rng.random() < 0.15:
                rows.append(dict(row))
            exploits += exploit
        truth.wx[cve] = exploits
    rng.shuffle(rows)
    return rows


def _description(rng: random.Random, serial: int) -> str:
    return f"Finding {serial} in {rng.choice(VENDORS)} {rng.choice(COMPONENTS)}."


def _scored_feeds(workload: str, seed: int, out: Path, n: int, vector_share: float,
                  ref_share: float, ref_counts) -> Truth:
    rng = _rng(workload, seed)
    truth = Truth(ids=_cve_ids(rng, n))
    cve_rows = []
    for i, cve in enumerate(truth.ids):
        row = {"id": cve, "description": _description(rng, i)}
        if rng.random() < vector_share:
            row["vector"] = truth.cvss[cve] = rng.choice(ALL_VECTORS)
        else:
            tenths = truth.cvss[cve] = rng.randrange(0, 101)
            row["score"] = tenths / 10
        cve_rows.append(row)
    _write_jsonl(out / "cves.jsonl", cve_rows)
    with_refs = [cve for cve in truth.ids if rng.random() < ref_share]
    truth.ref_lines = _write_jsonl(out / "refs.jsonl", _refs(rng, truth, with_refs, ref_counts))
    _write_jsonl(out / "labels.jsonl", _labels(rng, truth))
    _write_jsonl(out / "context.jsonl", _context(rng, truth))
    return truth


def portfolio(seed: int, out: Path) -> Truth:
    return _scored_feeds("portfolio", seed, out, PORTFOLIO_CVES, vector_share=0.5,
                         ref_share=1 / 7, ref_counts=lambda rng: rng.randint(1, 4))


def exploit_refs(seed: int, out: Path) -> Truth:
    return _scored_feeds("exploit_refs", seed, out, EXPLOIT_REFS_CVES, vector_share=0.0,
                         ref_share=0.6, ref_counts=lambda rng: rng.randint(2, 12))


def filler_word(rank: int) -> str:
    """The pseudo-word at a Zipf rank: 'q' plus consonant-vowel syllables."""
    syllables = []
    while True:
        rank, digit = divmod(rank, len(_CONSONANTS) * len(_VOWELS))
        syllables.append(_CONSONANTS[digit // len(_VOWELS)] + _VOWELS[digit % len(_VOWELS)])
        if rank == 0:
            return "q" + "".join(syllables)


def triage(seed: int, out: Path) -> Truth:
    sme = TRIAGE_SME
    rng = _rng("triage", seed)
    truth = Truth(ids=_cve_ids(rng, sme + TRIAGE_UNLABELED))
    words = [filler_word(r) for r in range(FILLER_RANKS)]
    cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, FILLER_RANKS + 1)))

    cve_rows = []
    for cve in truth.ids:
        utility = rng.choices((0, 1, 2), weights=UTILITY_SPLIT)[0]
        opportune = 1 if rng.random() < OPPORTUNE_RATE else 0
        version = f"{rng.randrange(1, 9)}.{rng.randrange(0, 20)}"
        text = (f"A flaw in {rng.choice(VENDORS)} {rng.choice(COMPONENTS)} before {version} "
                f"{rng.choice(UTILITY_PHRASES[utility])}.")
        if opportune:
            text += " " + rng.choice(OPPORTUNE_PHRASES)
        text += " " + " ".join(rng.choices(words, cum_weights=cum_weights, k=FILLER_WORDS)) + "."
        cve_rows.append({"id": cve, "description": text, "score": rng.randrange(0, 101) / 10})
        truth.true_labels[cve] = (utility, opportune)
    _write_jsonl(out / "cves.jsonl", cve_rows)

    for cve in truth.ids[:sme]:
        utility, opportune = truth.true_labels[cve]
        truth.sme_lines.append({"cve": cve, "utility": utility, "opportune": opportune,
                                "labeler": "SME", "ts": _ts(rng.randrange(0, 300))})
        truth.labels[cve] = (utility, opportune, "SME")
    truth.sme_lines.sort(key=lambda row: row["cve"])
    _write_jsonl(out / "labels.jsonl", truth.sme_lines)
    truth.unlabeled = set(truth.ids[sme:])
    return truth


GENERATORS = {"portfolio": portfolio, "triage": triage, "exploit_refs": exploit_refs}
