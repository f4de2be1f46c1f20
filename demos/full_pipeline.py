"""Walkthrough: the whole CLI pipeline on generated feeds.

Writes a synthetic CVE feed, an SME label store covering most of it, and
an exploit reference feed into a temporary directory, then drives the
`vulnrank` command line end to end and removes the directory:

    ingest -> train (x2 tasks) -> predict (x2) -> rank -> report

Everything is seeded, so rerunning this script reproduces identical
model files and reports byte for byte.
"""

import tempfile
from pathlib import Path

from vulnrank.cli import main
from vulnrank.feeds import save_labels
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed, write_ref_feed

tmp = tempfile.TemporaryDirectory(prefix="vulnrank-demo-")
workdir = Path(tmp.name)
print(f"working in {workdir}\n")

# Feed production (normally an out-of-band crawler/exporter): 300 CVEs,
# SME labels for 250 of them, exploit references for every 7th.
corpus = synth_labeled_corpus(n=300, seed=11)
records = synth_cve_records(corpus, seed=11)
write_cve_feed(workdir / "cves.jsonl", records)
save_labels(workdir / "labels.jsonl", [row for _, row in corpus[:250]])
write_ref_feed(
    workdir / "refs.jsonl",
    [
        {
            "cve": rec.cve_id,
            "url": f"https://www.exploit-db.com/exploits/{51000 + i}",
            "source": "ExploitDB",
            "exploit": True,
        }
        for i, rec in enumerate(records)
        if i % 7 == 0
    ],
)

base = [
    "--cves", str(workdir / "cves.jsonl"),
    "--labels", str(workdir / "labels.jsonl"),
    "--refs", str(workdir / "refs.jsonl"),
    "--model-utility", str(workdir / "utility_model.json"),
    "--model-opportune", str(workdir / "opportune_model.json"),
    "--seed", "42",
]


def run(argv):
    print(f"$ vulnrank {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"exit {code}"
    print()


run(["ingest"] + base)
run(["train", "--task", "utility"] + base)
run(["train", "--task", "opportune"] + base)
run(["predict", "--task", "utility"] + base)
run(["predict", "--task", "opportune"] + base)
run(["rank"] + base + ["--format", "csv", "--output", str(workdir / "queue.csv")])
run(["report"] + base + ["--format", "text"])

print("== top of the remediation queue ==")
for line in (workdir / "queue.csv").read_text().splitlines()[:11]:
    print(line)
tmp.cleanup()
