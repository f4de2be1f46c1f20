"""Byte-identity of score, rank and report output on a fixed seeded portfolio.

The portfolio mixes every input path the scoring code has: vector-only
records (with and without the ``CVSS:3.1/`` prefix, metrics in canonical
and shuffled order), published-only scores (floats and integers),
records carrying both (agreeing and disagreeing), inline references
(ignored input: exploit references are read only from the reference
feed, and the same digests hold with them stripped), an exploit
reference feed with duplicate URLs, non-exploit rows and
unknown sources, asset context over every exposure/criticality pair, and
SME and model labels with superseded entries.

Each pinned digest is the sha256 of what the CLI wrote. A change that
moves any rendered byte fails here; when output changes on purpose,
recompute the digests and give the reason in the same commit. Without
``--format`` each command writes its own default format, which the
config file, ``VULNRANK_FORMAT`` and ``--format`` override in turn.
"""

import hashlib
import json
import random

import pytest

from vulnrank.cli import main
from vulnrank.cvss import base_score, iter_vectors
from vulnrank.synth import synth_labeled_corpus

from conftest import write_jsonl

GOLDEN = {
    ("score", "json-lines"):
        "c5b41a70f31edfa4c86eaed1fea5c3e5029fd44a29d0b8b9342b0d60a54baf32",
    ("rank", "text"):
        "7e26962570f97de32f56f06b08a3115a6ed4a98d444acde948265d89c05839be",
    ("rank", "csv"):
        "5c10111f488e3d33d9f0bb98726b22bc27ef317c9ae3b8de83b6a2677d6246fe",
    ("report", "text"):
        "6a63fe1a1126ef1540dbcc1f4d943ef4319b182e2a6f37ef0d389c5c16404d09",
    ("report", "csv"):
        "25970383c8010ac953ca36f6f36da90ada5331585a1939f5b0895f6ecc8610cf",
    ("report", "json-lines"):
        "4d98de237d58bf423c208d908a20e54806a1b439994050202322ee368be85abe",
}

# The format each command writes when no layer sets one.
DEFAULT_FORMATS = {"score": "json-lines", "rank": "text", "report": "text"}

SOURCES = ("ExploitDB", "Metasploit", "GitHub", "Other", "PacketStorm")
CONTEXTS = [(e, c) for e in ("Public", "Private") for c in ("Low", "Medium", "High")]


def _vector_text(rng, vector) -> str:
    text = vector.to_string()
    if rng.random() < 0.3:
        head, *metrics = text.split("/")
        rng.shuffle(metrics)
        text = "/".join([head, *metrics])
    if rng.random() < 0.3:
        text = text.split("/", 1)[1]
    return text


def write_golden_feeds(root):
    """Feed files for the golden portfolio; identical bytes on every call."""
    rng = random.Random(20240501)
    corpus = synth_labeled_corpus(n=300, seed=11)
    vectors = list(iter_vectors())

    cves, refs, context, labels = [], [], [], []
    for i, (description, (cve_id, judgment, _)) in enumerate(corpus):
        row = {"id": cve_id, "description": description}
        kind = i % 5
        vector = rng.choice(vectors)
        if kind in (0, 2, 3):
            row["vector"] = _vector_text(rng, vector)
        if kind in (1, 2, 4):
            score = rng.randrange(0, 101)
            row["score"] = score // 10 if kind == 4 and score % 10 == 0 else score / 10
            if kind == 2 and rng.random() < 0.5:
                row["score"] = float(base_score(vector))
        if kind == 3:
            row["references"] = [
                {"url": f"https://example.org/{cve_id}/{n}", "source": rng.choice(SOURCES),
                 "exploit": rng.random() < 0.5}
                for n in range(rng.randrange(1, 4))
            ]
        cves.append(row)

        if rng.random() < 0.3:
            for n in range(rng.choice((1, 1, 2, 5, 40))):
                url = f"https://exploits.example/{cve_id}/{rng.randrange(0, 8) if n % 3 else n}"
                refs.append({"cve": cve_id, "url": url, "source": rng.choice(SOURCES),
                             "exploit": rng.random() < 0.85})
        if rng.random() < 0.4:
            exposure, criticality = rng.choice(CONTEXTS)
            context.append({"cve": cve_id, "exposure": exposure, "criticality": criticality})

        labeler = "Model" if rng.random() < 0.3 else "SME"
        labels.append({"cve": cve_id, "utility": judgment.utility, "opportune": judgment.opportune,
                       "labeler": labeler, "ts": "2024-01-01T00:00:00Z"})
        if rng.random() < 0.2:
            labels.append({"cve": cve_id, "utility": rng.choice((0, 1, 2)),
                           "opportune": rng.choice((0, 1)), "labeler": rng.choice(("SME", "Model")),
                           "ts": rng.choice(("2023-06-01T00:00:00Z", "2024-06-01T00:00:00Z"))})

    paths = {}
    for name, rows in (("cves", cves), ("refs", refs), ("context", context), ("labels", labels)):
        paths[name] = str(write_jsonl(root / f"{name}.jsonl", rows))
    return paths


@pytest.fixture(scope="module")
def golden_feeds(tmp_path_factory):
    return write_golden_feeds(tmp_path_factory.mktemp("golden"))


def _digest(feeds, out, command, fmt=None, extra=()) -> str:
    args = [arg for name, path in feeds.items() for arg in (f"--{name}", path)]
    args += ["--format", fmt] if fmt is not None else []
    assert main([command, *args, *extra, "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN))
def test_output_bytes_pinned(golden_feeds, tmp_path, command, fmt):
    assert _digest(golden_feeds, tmp_path / "out", command, fmt) == GOLDEN[(command, fmt)]


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN))
def test_inline_references_are_ignored(golden_feeds, tmp_path, command, fmt):
    with open(golden_feeds["cves"], encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert any("references" in row for row in rows)
    rows = [{key: value for key, value in row.items() if key != "references"} for row in rows]
    feeds = {**golden_feeds, "cves": str(write_jsonl(tmp_path / "cves.jsonl", rows))}
    assert _digest(feeds, tmp_path / "out", command, fmt) == GOLDEN[(command, fmt)]


@pytest.mark.parametrize("command", sorted(DEFAULT_FORMATS))
def test_default_format_per_command(golden_feeds, tmp_path, monkeypatch, command):
    monkeypatch.delenv("VULNRANK_FORMAT", raising=False)
    digest = _digest(golden_feeds, tmp_path / "out", command)
    assert digest == GOLDEN[(command, DEFAULT_FORMATS[command])]


# (config file format, VULNRANK_FORMAT, --format) -> the format written.
@pytest.mark.parametrize(
    "in_file, in_env, flag, written",
    [
        ("csv", None, None, "csv"),
        (None, "csv", None, "csv"),
        ("csv", "json-lines", None, "json-lines"),
        ("csv", "json-lines", "text", "text"),
        (None, None, "structured", "json-lines"),
    ],
)
def test_format_layers_override_command_default(
    golden_feeds, tmp_path, monkeypatch, in_file, in_env, flag, written
):
    extra = []
    if in_file is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": in_file}))
        extra = ["--config", str(config)]
    if in_env is None:
        monkeypatch.delenv("VULNRANK_FORMAT", raising=False)
    else:
        monkeypatch.setenv("VULNRANK_FORMAT", in_env)
    digest = _digest(golden_feeds, tmp_path / "out", "report", flag, extra)
    assert digest == GOLDEN[("report", written)]


# The triage commands on a fixed labeled corpus, run in order against one
# label store: the sha256 of each command's output file (the model, then
# the store) and of its stdout. A quarter of the descriptions carry
# non-ASCII text (dotted capital I, the Kelvin sign, fullwidth letters
# and digits, accented words, C1, control and no-break spaces), so both
# tokenizer paths are pinned.
GOLDEN_TRIAGE = {
    ("train", "utility"): (
        "9a11fd4fa42b5ac0db6fc3ac7eba113a7f078c4bb1e551dc08e0d708b20f6441",
        "3f71a6db2038ab438842ca0751d4b3fd30f4c73dc7d0c1e04063504822a44979",
    ),
    ("train", "opportune"): (
        "ede80a3d137fc6b998c52ab176d978d8dd30743dd6296b792d8f833020b270ff",
        "5468cbffec8a478462ada40e23415047d754b53c3ab731aca0245a40ee4a6e0a",
    ),
    ("predict", "utility"): (
        "8d8160c64e9416e8b148f3044c80ec57de07de4cce1ff735f60b647f4368c5af",
        "9d46cc86f9b995a6662631ccf87775a4640451271af3cce90d4bb8b40ea3a921",
    ),
    ("predict", "opportune"): (
        "75c8c8d0f1786dfb9a0c2504d7a134c16782c592fd65f13f054f16955a090f4a",
        "cd6f58496b0062b32779cf6c4120dab8988b89afe7e64ef6ae67fbd649e5b19a",
    ),
}

NON_ASCII = (
    "\u0130njection in \u0130stanbul", "the \u212aernel \u212aVM",
    "\uff21\uff22\uff23\uff11\uff12 overflow", "caf\u00e9 na\u00efve stra\u00dfe",
    "\u03a9mega\u0085handler\u00a0crash", "\u00dcnicode\x1cpath", "ma\u00f1ana \u00f8rsted",
    "x\u00b2 \u00e9\u00e9 ab\u00adcd",
)
STAMPS = ("2024-01-01T00:00:00Z", "2024-03-01T05:30:00+05:30", "2023-12-31T20:00:00-04:00")


def write_triage_feeds(root):
    """cves.jsonl and labels.jsonl in ``root``; identical bytes on every call.

    A third of the CVEs have no label, so predict has targets; one in ten
    of the rest carries a Model label, which train leaves out.
    """
    rng = random.Random(20240601)
    cves, labels = [], []
    for i, (description, (cve_id, judgment, _)) in enumerate(synth_labeled_corpus(n=240, seed=29)):
        if i % 4 == 0:
            description += " " + rng.choice(NON_ASCII)
        cves.append({"id": cve_id, "description": description})
        if i % 3 == 2:
            continue
        labels.append({"cve": cve_id, "utility": judgment.utility, "opportune": judgment.opportune,
                       "labeler": "Model" if i % 10 == 0 else "SME", "ts": rng.choice(STAMPS)})
    write_jsonl(root / "cves.jsonl", cves)
    write_jsonl(root / "labels.jsonl", labels)


def test_triage_outputs_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_triage_feeds(tmp_path)
    digests = {}
    for command, task in GOLDEN_TRIAGE:
        model = f"{task}_model.json"
        args = [command, "--task", task, "--cves", "cves.jsonl", "--labels", "labels.jsonl",
                f"--model-{task}", model]
        assert main(args) == 0
        written = (tmp_path / (model if command == "train" else "labels.jsonl")).read_bytes()
        stdout = capsys.readouterr().out.encode()
        digests[(command, task)] = (hashlib.sha256(written).hexdigest(),
                                    hashlib.sha256(stdout).hexdigest())
    assert digests == GOLDEN_TRIAGE
