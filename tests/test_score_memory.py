"""The score path keeps only what it ranks: its memory grows per CVE by the
row, the label and one id string, not by the feed's records, and rows
share their threat Decimals."""

import json
import random
import tracemalloc

import vulnrank.cli as cli

VECTORS = (
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "CVSS:3.1/AV:L/AC:H/PR:L/UI:R/S:C/C:L/I:N/A:H",
    "CVSS:3.1/AV:A/AC:L/PR:H/UI:N/S:U/C:N/I:L/A:L",
)
WORDS = ("buffer", "overflow", "remote", "attacker", "crafted", "request", "header", "parser")
# Bytes of traced peak per added CVE. The streamed path takes about 330;
# one that holds every CveRecord, its description and two more copies of
# each id until scoring ends takes about 720.
PER_CVE_BOUND = 512


def write_feeds(directory, n):
    """Feeds for ``n`` CVEs: half vectors and half published scores, a label
    each, two exploit references for every third and context for every fourth."""
    rng = random.Random(5)
    ids = [f"CVE-{2000 + k % 24}-{10000 + k}" for k in range(n)]
    feeds = {
        "cves": (
            {
                "id": cve_id,
                "description": " ".join(rng.choices(WORDS, k=14)),
                **({"vector": rng.choice(VECTORS)} if k % 2 else {"score": rng.randrange(101) / 10}),
            }
            for k, cve_id in enumerate(ids)
        ),
        "labels": (
            {"cve": cve_id, "utility": rng.randrange(3), "opportune": rng.randrange(2),
             "labeler": "SME", "ts": "2021-06-01T00:00:00Z"}
            for cve_id in ids
        ),
        "refs": (
            {"cve": cve_id, "url": f"https://x.example/{cve_id}/{j}", "source": "GitHub", "exploit": True}
            for cve_id in ids[::3]
            for j in range(2)
        ),
        "context": (
            {"cve": cve_id, "exposure": rng.choice(["Public", "Private"]),
             "criticality": rng.choice(["Low", "Medium", "High"])}
            for cve_id in ids[::4]
        ),
    }
    args = ["score"]
    for name, rows in feeds.items():
        path = directory / f"{name}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        args += [f"--{name}", str(path)]
    return cli.build_config(cli.build_parser().parse_args(args))


def test_score_path_memory_per_cve_is_bounded(tmp_path):
    def peak(n):
        directory = tmp_path / str(n)
        directory.mkdir(exist_ok=True)
        config = write_feeds(directory, n)
        tracemalloc.start()
        try:
            rows = cli._scored_portfolio(config)
            return tracemalloc.get_traced_memory()[1], rows
        finally:
            tracemalloc.stop()

    # A first run grows the interpreter's string table and module caches once.
    peak(8_000)
    (small, _), (large, rows) = peak(2_000), peak(8_000)
    assert (large - small) / 6_000 < PER_CVE_BOUND, (small, large)

    threats = {(r.threat_score, r.threat_score.as_tuple().exponent) for r in rows}
    assert len({id(r.threat_score) for r in rows}) <= len(threats)
