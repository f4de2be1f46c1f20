"""train keeps only what it trains on: the CVE feed streams through the join,
which keeps the descriptions of the labeled CVEs alone, so an unlabeled CVE
adds to train's memory no more than its id in the feed's duplicate check."""

import json
import random
import tracemalloc

from vulnrank.cli import main
from vulnrank.feeds import save_labels
from vulnrank.synth import synth_labeled_corpus

WORDS = ("buffer", "overflow", "remote", "attacker", "crafted", "request", "header", "parser")
# Bytes of traced peak per added unlabeled CVE. The streamed join takes
# about 130, the id kept for the duplicate check; holding every CveRecord
# and its 40-word description until the join ends takes about 560.
PER_CVE_BOUND = 320


def write_feeds(directory, n_unlabeled):
    """40 SME-labeled CVEs, then ``n_unlabeled`` CVEs with long descriptions
    and no label; returns the train command's arguments."""
    rng = random.Random(5)
    labeled = synth_labeled_corpus(n=40, seed=5)
    rows = [{"id": ex.cve_id, "description": ex.description, "score": 5.0} for ex in labeled]
    rows += (
        {"id": f"CVE-{2000 + k % 24}-{10000 + k}", "description": " ".join(rng.choices(WORDS, k=40))}
        for k in range(n_unlabeled)
    )
    cves, labels = directory / "cves.jsonl", directory / "labels.jsonl"
    cves.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    save_labels(labels, labeled)
    return [
        "train", "--task", "utility", "--min-df", "1", "--epochs", "2",
        "--cves", str(cves), "--labels", str(labels),
        "--model-utility", str(directory / "utility_model.json"),
    ]


def test_train_memory_per_unlabeled_cve_is_bounded(tmp_path, capsys):
    def peak(n):
        directory = tmp_path / str(n)
        directory.mkdir(exist_ok=True)
        argv = write_feeds(directory, n)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A first run loads numpy and grows the interpreter's caches once.
    peak(8_000)
    small, large = peak(2_000), peak(8_000)
    capsys.readouterr()
    assert (large - small) / 6_000 < PER_CVE_BOUND, (small, large)
