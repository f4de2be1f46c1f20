"""Acceptance gate: the six release criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failing criterion fails its test. Tolerances are pinned
here, not calibrated elsewhere: score reproduction is exact-decimal,
metric oracles allow 1e-9, learning sanity demands micro-F >= 0.95, and
each criterion enforces its own runtime budget.
"""

import random
import time
from decimal import Decimal

from vulnrank.cli import main
from vulnrank.cvss import base_score, iter_vectors, parse_vector, severity_of
from vulnrank.feeds import Judgment, Labeler, save_labels
from vulnrank.report import compare, rank
from vulnrank.scoring import NEUTRAL_ENV, threat_score
from vulnrank.synth import (
    synth_cve_records,
    synth_labeled_corpus,
    synth_portfolio,
    write_cve_feed,
    write_ref_feed,
)
from vulnrank.triage.features import fit_vocabulary
from vulnrank.triage.metrics import evaluate, evaluate_predictions
from vulnrank.triage.svm import Task, TrainConfig, split, train

from conftest import WORKED_TRIO
from cvss_reference import reference_base_score


def _passed(n, message):
    print(f"PASS criterion {n}: {message}", flush=True)


def test_criterion_1_cvss_reproduction():
    started = time.perf_counter()

    for rec in WORKED_TRIO:
        result = base_score(parse_vector(rec["vector"]))
        assert result == rec["score"], rec["id"]
        assert severity_of(result).value == rec["severity"], rec["id"]

    mismatches = 0
    for v in iter_vectors():
        expected = reference_base_score(
            v.attack_vector.value, v.attack_complexity.value,
            v.privileges_required.value, v.user_interaction.value,
            v.scope.value, v.confidentiality.value, v.integrity.value,
            v.availability.value,
        )
        if float(base_score(v)) != expected:
            mismatches += 1
    assert mismatches == 0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    _passed(1, f"worked trio exact; 2592/2592 vectors match the reference ({elapsed:.2f}s)")


def test_criterion_2_threat_score_reproduction():
    scores = {}
    for rec in WORKED_TRIO:
        labels = Judgment(rec["utility"], rec["opportune"], Labeler.SME)
        scores[rec["id"]] = threat_score(rec["score"], rec["wx"], labels)
    assert scores["CVE-2017-0143"] == Decimal("102.3")
    assert scores["CVE-2019-11324"] == Decimal("9.5")
    assert scores["CVE-2020-27256"] == Decimal("40.8")

    # The inversion: lower CVSS (6.8 vs 7.5) but higher threat rank.
    assert scores["CVE-2020-27256"] > scores["CVE-2019-11324"]
    _passed(2, "threat scores 102.3/9.5/40.8 exact; ordering inversion holds")


def test_criterion_3_ml_substitutes():
    started = time.perf_counter()

    # (a) Metric oracle: three hand-computed confusion matrices at 1e-9.
    def realize(matrix, classes):
        y_true, y_pred = [], []
        for ti, row in enumerate(matrix):
            for pi, count in enumerate(row):
                y_true.extend([classes[ti]] * count)
                y_pred.extend([classes[pi]] * count)
        return y_true, y_pred

    cases = [
        # ([[2,1,0],[0,2,0],[1,0,4]]) worked by hand: per-class F1
        # 2/3, 4/5, 8/9; micro 8/10; weighted (3*2/3 + 2*4/5 + 5*8/9)/10.
        (
            [[2, 1, 0], [0, 2, 0], [1, 0, 4]], (0, 1, 2),
            {
                "f1": (2 / 3, 4 / 5, 8 / 9),
                "micro": 8 / 10,
                "macro": (2 / 3 + 4 / 5 + 8 / 9) / 3,
                "weighted": (3 * (2 / 3) + 2 * (4 / 5) + 5 * (8 / 9)) / 10,
                "precision": (2 / 3, 2 / 3, 1.0),
                "recall": (2 / 3, 1.0, 4 / 5),
            },
        ),
        # [[5,0],[2,3]]: F1 5/6 and 3/4; equal supports so macro == weighted.
        (
            [[5, 0], [2, 3]], (0, 1),
            {
                "f1": (5 / 6, 3 / 4),
                "micro": 8 / 10,
                "macro": 19 / 24,
                "weighted": 19 / 24,
                "precision": (5 / 7, 1.0),
                "recall": (1.0, 3 / 5),
            },
        ),
        # [[0,2],[0,3]]: class 0 all-zero counts define P=R=F=0.
        (
            [[0, 2], [0, 3]], (0, 1),
            {
                "f1": (0.0, 3 / 4),
                "micro": 6 / 10,
                "macro": 3 / 8,
                "weighted": (2 * 0.0 + 3 * (3 / 4)) / 5,
                "precision": (0.0, 3 / 5),
                "recall": (0.0, 1.0),
            },
        ),
    ]
    for matrix, classes, want in cases:
        report = evaluate_predictions(classes, *realize(matrix, classes))
        for i in range(len(classes)):
            assert abs(report.f1[i] - want["f1"][i]) <= 1e-9
            assert abs(report.precision[i] - want["precision"][i]) <= 1e-9
            assert abs(report.recall[i] - want["recall"][i]) <= 1e-9
        assert abs(report.micro_f - want["micro"]) <= 1e-9
        assert abs(report.macro_f - want["macro"]) <= 1e-9
        assert abs(report.weighted_f - want["weighted"]) <= 1e-9

    # (b) micro-F equals accuracy, exactly, on 100 randomized
    # single-label prediction sets.
    rng = random.Random(1234)
    for _ in range(100):
        classes = (0, 1, 2) if rng.random() < 0.5 else (0, 1)
        n = rng.randrange(1, 120)
        y_true = [rng.choice(classes) for _ in range(n)]
        y_pred = [rng.choice(classes) for _ in range(n)]
        report = evaluate_predictions(classes, y_true, y_pred)
        accuracy = sum(t == p for t, p in zip(y_true, y_pred)) / n
        assert report.micro_f == accuracy

    # (c) Learning sanity on the 600-document keyword-planted corpus
    # with the published class balance (42/32/26 utility, 92/8 opportune).
    corpus = synth_labeled_corpus(n=600, seed=42)
    utility_counts = [sum(1 for _, (_, j, _) in corpus if j.utility == c) for c in (0, 1, 2)]
    assert utility_counts == [252, 192, 156]
    assert sum(1 for _, (_, j, _) in corpus if j.opportune == 1) == 48

    train_set, test_set = split(corpus, 0.8, seed=42)
    assert (len(train_set), len(test_set)) == (480, 120)
    vocab = fit_vocabulary([text for text, _ in train_set], min_df=2)
    micro = {}
    for task in (Task.UTILITY, Task.OPPORTUNE):
        model = train(task, train_set, vocab, TrainConfig(seed=42))
        micro[task] = evaluate(model, test_set).micro_f
        assert micro[task] >= 0.95, f"{task.value} micro-F {micro[task]:.4f} < 0.95"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s (budget 30s)"
    _passed(
        3,
        "metric oracle at 1e-9; micro-F == accuracy on 100 random sets; "
        f"learning sanity micro-F utility={micro[Task.UTILITY]:.3f} "
        f"opportune={micro[Task.OPPORTUNE]:.3f} ({elapsed:.2f}s)",
    )


def test_criterion_4_scoring_properties():
    started = time.perf_counter()

    # Exhaustive multiplier table.
    for utility, factor_u in ((0, 1), (1, 2), (2, 3)):
        for opportune, factor_o in ((0, 1), (1, 2)):
            labels = Judgment(utility, opportune, Labeler.SME)
            assert threat_score(Decimal("1.0"), 0, labels) == Decimal(factor_u * factor_o)

    # Strict monotonicity over 10,000 randomized instances with cvss+wx > 0.
    rng = random.Random(4242)
    weights = [Decimal("1.0"), Decimal("1.2"), Decimal("1.5"), Decimal("2.25")]
    for _ in range(10_000):
        cvss = Decimal(rng.randrange(1, 101)).scaleb(-1) if rng.random() < 0.9 else Decimal("0.0")
        wx = rng.randrange(0, 300)
        if cvss == 0 and wx == 0:
            wx = 1
        utility, opportune = rng.choice((0, 1, 2)), rng.choice((0, 1))
        env = rng.choice(weights) * rng.choice(weights)
        labels = Judgment(utility, opportune, Labeler.SME)
        base = threat_score(cvss, wx, labels, env)

        bumped_wx = threat_score(cvss, wx + 1, labels, env)
        assert bumped_wx - base == (utility + 1) * (opportune + 1) * env
        if utility < 2:
            raised = Judgment(utility + 1, opportune, Labeler.SME)
            assert threat_score(cvss, wx, raised, env) > base
        if opportune == 0:
            flagged = Judgment(utility, 1, Labeler.SME)
            assert threat_score(cvss, wx, flagged, env) > base

    # Neutral case: the formula degenerates to the CVSS score.
    neutral = Judgment(0, 0, Labeler.SME)
    for tenths in range(0, 101):
        cvss = Decimal(tenths).scaleb(-1)
        assert threat_score(cvss, 0, neutral, NEUTRAL_ENV) == cvss

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.2f}s (budget 5s)"
    _passed(4, f"multiplier table, 10k monotonicity instances, neutral identity ({elapsed:.2f}s)")


def test_criterion_5_comparison_report_properties():
    started = time.perf_counter()

    portfolio = synth_portfolio(n=1000, seed=42, wx_rate=0.05)
    assert len(portfolio) == 1000
    assert sum(1 for s in portfolio if s.wx > 0) == 50

    report = compare(portfolio)
    assert sum(report.cvss_bands.values()) == 1000
    assert sum(count for _, count in report.threat_tiers) == 1000

    ranked = rank(portfolio)
    assert sorted(s.cve_id for s in ranked) == sorted(s.cve_id for s in portfolio)

    assert report.top_k_overlap[10] < 1.0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s (budget 5s)"
    _passed(
        5,
        f"band sums hold, ranking is a permutation, top-10 jaccard "
        f"{report.top_k_overlap[10]:.3f} < 1.0 ({elapsed:.2f}s)",
    )


def _run_pipeline(workdir, seed):
    """ingest -> train x2 -> predict x2 -> score -> report, seed pinned."""
    corpus = synth_labeled_corpus(n=200, seed=5)
    labeled = [row for _, row in corpus[:170]]
    records = synth_cve_records(corpus, seed=5)
    write_cve_feed(workdir / "cves.jsonl", records)
    save_labels(workdir / "labels.jsonl", labeled)
    ref_rows = [
        {
            "cve": records[i].cve_id,
            "url": f"https://www.exploit-db.com/exploits/{40000 + i}",
            "source": "ExploitDB",
            "exploit": True,
        }
        for i in range(0, 200, 9)
    ]
    write_ref_feed(workdir / "refs.jsonl", ref_rows)

    base = [
        "--cves", str(workdir / "cves.jsonl"),
        "--labels", str(workdir / "labels.jsonl"),
        "--model-utility", str(workdir / "utility_model.json"),
        "--model-opportune", str(workdir / "opportune_model.json"),
        "--seed", str(seed),
        "--min-df", "1",
    ]
    assert main(["ingest"] + base + ["--refs", str(workdir / "refs.jsonl")]) == 0
    assert main(["train", "--task", "utility"] + base) == 0
    assert main(["train", "--task", "opportune"] + base) == 0
    assert main(["predict", "--task", "utility"] + base) == 0
    assert main(["predict", "--task", "opportune"] + base) == 0
    assert main(
        ["score"] + base
        + ["--refs", str(workdir / "refs.jsonl"), "--output", str(workdir / "scores.jsonl")]
    ) == 0
    assert main(
        ["report"] + base
        + [
            "--refs", str(workdir / "refs.jsonl"),
            "--format", "csv",
            "--output", str(workdir / "report.csv"),
        ]
    ) == 0

    artifacts = (
        "utility_model.json",
        "opportune_model.json",
        "labels.jsonl",
        "scores.jsonl",
        "report.csv",
    )
    return {name: (workdir / name).read_bytes() for name in artifacts}


def test_criterion_6_end_to_end_determinism(tmp_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    first = _run_pipeline(run_a, seed=42)
    second = _run_pipeline(run_b, seed=42)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    with capsys.disabled():
        _passed(6, "two seed-42 pipeline runs produced byte-identical models and reports")
