"""Self-tests of the benchmark: generator, span arithmetic, output checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import importlib
import json
from decimal import Decimal
from pathlib import Path

import pytest

import checks
import feedgen
import run
import tracer

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(feedgen, "PORTFOLIO_CVES", 400)
    monkeypatch.setattr(feedgen, "EXPLOIT_REFS_CVES", 300)
    monkeypatch.setattr(feedgen, "TRIAGE_SME", 60)
    monkeypatch.setattr(feedgen, "TRIAGE_UNLABELED", 40)


def _feeds(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(feedgen.GENERATORS))
def test_generator_is_deterministic_per_seed(small, tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    generate = feedgen.GENERATORS[workload]
    generate(7, dirs[0])
    generate(7, dirs[1])
    generate(8, dirs[2])
    assert _feeds(dirs[0]) == _feeds(dirs[1])
    assert _feeds(dirs[0])["cves.jsonl"] != _feeds(dirs[2])["cves.jsonl"]


def test_generator_writes_no_inline_references(small, tmp_path):
    feedgen.portfolio(1, tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "cves.jsonl").read_text().splitlines()]
    assert rows and not any("references" in row for row in rows)


def test_cvss_reference_matches_known_scores():
    assert checks.cvss_tenths("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H") == 98
    assert checks.cvss_tenths("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H") == 100
    assert checks.cvss_tenths("CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:N/A:N") == 59
    assert checks.cvss_tenths("CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:N/I:N/A:N") == 0


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "kind": "span", "start": start, "end": end,
            "parent": parent, "cmd": 0, "counters": {}}


def _folded(i, name, total, parent, calls=1):
    return {"id": i, "name": name, "kind": "folded", "total_s": total, "calls": calls,
            "parent": parent, "cmd": 0, "counters": {}}


def test_self_time_subtracts_what_children_cover():
    nodes = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),  # overlaps a: together they cover 1..6
        _span(3, "c", 9.0, 12.0, parent=0),  # clipped at the root's end
        _folded(4, "f", 0.5, parent=0, calls=100),
        _folded(5, "g", 1.25, parent=1, calls=10),
        _folded(6, "h", 0.25, parent=5, calls=10),
    ]
    got = tracer.self_times(nodes)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert got[1] == pytest.approx(3.0 - 1.25)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(0.5)
    assert got[5] == pytest.approx(1.0)
    assert got[6] == pytest.approx(0.25)


def _restore_targets(monkeypatch):
    for module_name, attr, *_ in tracer.SPANS + tracer.FOLDED:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))


def test_tracer_records_absent_functions_and_keeps_going(monkeypatch, small, tmp_path):
    _restore_targets(monkeypatch)
    monkeypatch.delattr("vulnrank.triage.svm.design_matrix", raising=False)
    t = tracer.Tracer(cmd=0)
    tracer.install(t)
    assert "vulnrank.triage.svm.design_matrix" in t.absent

    from vulnrank.cli import main

    truth = feedgen.portfolio(3, tmp_path)
    status = t.span("cli.main", main, ([
        "score", "--cves", str(tmp_path / "cves.jsonl"), "--refs", str(tmp_path / "refs.jsonl"),
        "--labels", str(tmp_path / "labels.jsonl"), "--context", str(tmp_path / "context.jsonl"),
        "--output", str(tmp_path / "out.jsonl")],), {})
    assert status == 0
    metrics = run.layer_metrics([{"absent": t.absent, "nodes": t.dump()}], truth)
    assert set(metrics) <= set(run.PER_LAYER)
    assert metrics["cli.main.s"] > 0
    vectors = sum(isinstance(v, str) for v in truth.cvss.values())
    assert metrics["cvss.parse_vector.calls"] <= vectors
    assert 0 <= metrics["cvss.vectors.distinct_ratio"] <= 1
    assert metrics["trace.absent"] == len(t.absent)


@pytest.fixture
def scored(small, tmp_path):
    from vulnrank.cli import main

    truth = feedgen.portfolio(5, tmp_path)
    feeds = ["--cves", str(tmp_path / "cves.jsonl"), "--refs", str(tmp_path / "refs.jsonl"),
             "--labels", str(tmp_path / "labels.jsonl"), "--context", str(tmp_path / "context.jsonl")]
    for command, name in (("score", "score.jsonl"), ("rank", "rank.txt"), ("report", "report.txt")):
        assert main([command, *feeds, "--output", str(tmp_path / name)]) == 0
    return checks.expected_rows(truth), tmp_path


def _swap_rows(lines: list[str], first: int) -> list[str]:
    lines = list(lines)
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    return lines


def test_checks_accept_real_output_and_reject_a_swapped_row(scored):
    expected, out = scored
    score = (out / "score.jsonl").read_text().splitlines()
    rank = (out / "rank.txt").read_text().splitlines()
    assert checks.check_score_jsonl("\n".join(score).encode(), expected) == []
    assert checks.check_rank_text("\n".join(rank).encode(), expected) == []
    assert checks.check_report_text((out / "report.txt").read_bytes(), expected) == []
    assert checks.check_score_jsonl("\n".join(_swap_rows(score, 0)).encode(), expected)
    assert checks.check_rank_text("\n".join(_swap_rows(rank, 1)).encode(), expected)


def test_checks_reject_a_threat_score_edited_by_a_tenth(scored):
    expected, out = scored
    rows = [json.loads(line) for line in (out / "score.jsonl").read_text().splitlines()]
    rows[5]["threat_score"] = str(Decimal(rows[5]["threat_score"]) + Decimal("0.1"))
    data = "\n".join(json.dumps(row) for row in rows).encode()
    assert any("does not follow" in p for p in checks.check_score_jsonl(data, expected))

    lines = (out / "rank.txt").read_text().splitlines()
    fields = lines[3].split()
    fields[2] = str(Decimal(fields[2]) + Decimal("0.1"))
    lines[3] = " ".join(fields)
    assert checks.check_rank_text("\n".join(lines).encode(), expected)


def test_checks_reject_a_report_count_that_does_not_sum(scored):
    expected, out = scored
    text = (out / "report.txt").read_text()
    total = len(expected)
    assert checks.check_report_text(text.replace(f"total: {total}", f"total: {total + 1}").encode(),
                                     expected)


def test_label_store_check(small, tmp_path):
    truth = feedgen.triage(2, tmp_path)
    model = [{"cve": cve, "utility": truth.true_labels[cve][0], "opportune": truth.true_labels[cve][1],
              "labeler": "Model", "ts": "2024-01-01T00:00:00Z"} for cve in sorted(truth.unlabeled)]

    def store(rows):
        return "\n".join(json.dumps(row) for row in sorted(rows, key=lambda r: r["cve"])).encode()

    assert checks.check_label_store(store(truth.sme_lines + model), truth, ("utility", "opportune")) == []
    assert checks.check_label_store(store(truth.sme_lines + model[1:]), truth, ("utility",))
    edited = [dict(truth.sme_lines[0], utility=(truth.sme_lines[0]["utility"] + 1) % 3)]
    assert checks.check_label_store(store(edited + truth.sme_lines[1:] + model), truth, ("utility",))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
