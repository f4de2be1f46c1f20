"""End-to-end and per-layer benchmark of the vulnrank CLI.

    python3 perfbench/run.py --workload portfolio|triage|exploit_refs|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports nothing from an installed
vulnrank and runs ``python3 -m vulnrank`` with ``PYTHONPATH=src``. It
generates the workload's feeds from the seed (set-up, never timed), then
drives the workload's command sequence as a closed loop with one client:
each command is a fresh CLI process that starts only after the previous
one exits. Passes of the sequence repeat while another fits in
``--seconds``. Every output is checked against the generator's truth.
Commands are started by ``spawn.py`` so that their peak RSS is their own,
and a run's times are scaled by a fixed reference probe that cancels the
host's speed drift (see README.md).

``--trace 0`` times the CLI processes and prints the end-to-end metrics.
``--trace 1`` alternates traced passes (each command in a worker that runs
``vulnrank.cli.main`` in-process under ``tracer.py``) with untraced ones
and prints the per-layer metrics plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import feedgen
from tracer import duration, self_times

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
# Cold starts measured after each untraced pass, so that setup_s samples
# the same stretch of the run as the command timings.
COLD_STARTS_PER_PASS = 2
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import vulnrank.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t)"
)
# A fixed command that owes nothing to vulnrank: an interpreter start, the
# libraries vulnrank imports, and a little Python and numpy work. It runs
# just before every timed command and cold start, and a run's times are
# scaled by REFERENCE_S / (the median probe time of the run). The host's
# speed drifts by up to 2x over minutes; the scaling cancels that drift,
# and a change to vulnrank cannot move the probe (see README.md).
REFERENCE_PROBE = (
    "import argparse, decimal, json, numpy; numpy.ones(4_000_000).sum(); "
    "rows = sorted(json.loads('[%d, \"x%d\"]' % (i, -i)) for i in range(30_000)); "
    "sum(decimal.Decimal(r[0]) / 10 for r in rows)"
)
REFERENCE_S = 0.3

END_TO_END = {
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Wall time of each command kind, summed over one pass (both train runs
# make train_s). Printed on every run, reported as metrics by --trace 1.
COMMAND_KINDS = ("score", "rank", "report", "train", "predict")


@dataclass
class Command:
    kind: str
    args: list[str]
    output: str
    check: Callable[[bytes, str], list[str]]


def scored_commands(truth: feedgen.Truth, work: Path) -> list[Command]:
    expected = checks.expected_rows(truth)
    feeds = ["--cves", "cves.jsonl", "--refs", "refs.jsonl",
             "--labels", "store.jsonl", "--context", "context.jsonl"]
    return [
        Command("score", ["score", *feeds, "--output", "score.jsonl"], "score.jsonl",
                lambda data, _out: checks.check_score_jsonl(data, expected)),
        Command("rank", ["rank", *feeds, "--output", "rank.txt"], "rank.txt",
                lambda data, _out: checks.check_rank_text(data, expected)),
        Command("report", ["report", *feeds, "--output", "report.txt"], "report.txt",
                lambda data, _out: checks.check_report_text(data, expected)),
    ]


def triage_commands(truth: feedgen.Truth, work: Path) -> list[Command]:
    feeds = ["--cves", "cves.jsonl", "--labels", "store.jsonl"]
    tasks = ("utility", "opportune")
    commands = [
        Command("train", ["train", "--task", task, *feeds, f"--model-{task}", f"{task}.json"],
                f"{task}.json",
                lambda _data, out, task=task: checks.check_train(out, work / f"{task}.json", task))
        for task in tasks
    ]
    for i, task in enumerate(tasks):
        commands.append(
            Command("predict", ["predict", "--task", task, *feeds, f"--model-{task}", f"{task}.json"],
                    "store.jsonl",
                    lambda data, _out, done=tasks[: i + 1]: checks.check_label_store(data, truth, done)))
    return commands


WORKLOADS = {
    "portfolio": scored_commands,
    "triage": triage_commands,
    "exploit_refs": scored_commands,
}


@dataclass
class Outcome:
    kind: str
    wall_s: float
    rss_mb: float
    problems: list[str]


class Spawner:
    """The helper (spawn.py) that starts and times every measured command.

    Start it before generating feeds: its children's peak RSS starts at
    its own, which stays that of a bare interpreter."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the spawn helper exited")
        return json.loads(answer)


class Session:
    """One workload at one seed: its feeds, commands and checked outputs."""

    def __init__(self, workload: str, seed: int, work: Path, spawner: Spawner):
        self.work = work
        self.spawner = spawner
        started = time.perf_counter()
        self.truth = feedgen.GENERATORS[workload](seed, work)
        self.generate_s = time.perf_counter() - started
        self.commands = WORKLOADS[workload](self.truth, work)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("VULNRANK_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.checked: dict[tuple[int, str], list[str]] = {}
        self.digests: set[str] = set()
        self.absent: set[str] = set()
        self.probes: list[float] = []

    def prepare_pass(self) -> None:
        # predict writes into the label store, so every pass starts from
        # a fresh copy of the generated labels.
        for command in self.commands:
            (self.work / command.output).unlink(missing_ok=True)
        shutil.copyfile(self.work / "labels.jsonl", self.work / "store.jsonl")

    def run_pass(self, traced: bool) -> tuple[list[Outcome], list[dict]]:
        """Run the sequence once; return per-command outcomes and, when
        traced, each worker's span document."""
        self.prepare_pass()
        digest = hashlib.sha256()
        outcomes, docs = [], []
        for i, command in enumerate(self.commands):
            if traced:
                spans = self.work / f"spans-{i}.json"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(i), "--", *command.args]
            else:
                argv = [sys.executable, "-m", "vulnrank", *command.args]
            self.probes.append(self._probe(REFERENCE_PROBE))
            status, wall, rss = self._spawn(argv)
            stdout = (self.work / "stdout.txt").read_text(encoding="utf-8", errors="replace")
            output = self.work / command.output
            data = output.read_bytes() if output.exists() else b""
            digest.update(f"{i} {command.kind} {len(data)} {len(stdout)}\n".encode())
            digest.update(data)
            digest.update(stdout.encode())
            if status != 0:
                stderr = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
                problems = [f"exit {status}: {stderr.strip()[-500:]}"]
            else:
                key = (i, hashlib.sha256(data + stdout.encode()).hexdigest())
                if key not in self.checked:
                    self.checked[key] = command.check(data, stdout)
                problems = self.checked[key]
            outcomes.append(Outcome(command.kind, wall, rss, problems))
            if traced:
                doc = (json.loads(spans.read_text(encoding="utf-8")) if spans.exists() else
                       {"cmd": i, "status": status, "absent": [], "nodes": []})
                self.absent.update(doc["absent"])
                docs.append(doc)
        self.digests.add(digest.hexdigest())
        return outcomes, docs

    def _spawn(self, argv: list[str]) -> tuple[int, float, float]:
        done = self.spawner.run(argv, self.work, self.env, self.work / "stdout.txt", self.work / "stderr.txt")
        return done["status"], done["wall_s"], done["rss_mb"]

    def _probe(self, code: str) -> float:
        status, wall, _ = self._spawn([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError((self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace"))
        return wall

    def scale(self) -> float:
        """Factor that takes this run's times to a host on which the
        reference probe takes REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.probes)

    def cold_starts(self, count: int) -> list[float]:
        """Import vulnrank.cli and build its parser in fresh interpreters."""
        samples = []
        for _ in range(count):
            self.probes.append(self._probe(REFERENCE_PROBE))
            self._probe(SETUP_PROBE)
            samples.append(float((self.work / "stdout.txt").read_text(encoding="utf-8")))
        return samples


def repeat(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` at least once, and again while the run would end
    nearer to ``seconds`` with one more call than without it."""
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - started + (now - before) / 2 >= seconds:
            return


def median_walls(passes: list[list[Outcome]], scale: float = 1.0) -> list[float]:
    """Each command's median wall time over the passes of a run, times ``scale``."""
    return [statistics.median(p[i].wall_s for p in passes) * scale for i in range(len(passes[0]))]


def command_times(kinds: list[str], walls: list[float]) -> dict[str, float]:
    times = defaultdict(float)
    for kind, wall in zip(kinds, walls):
        times[kind] += wall
    return times


def end_to_end(session: Session, seconds: float) -> tuple[dict, list[list[Outcome]]]:
    session.cold_starts(1)  # compiles bytecode; not kept
    setup: list[float] = []
    passes: list[list[Outcome]] = []

    def one_pass() -> None:
        outcomes, _ = session.run_pass(traced=False)
        passes.append(outcomes)
        setup.extend(session.cold_starts(COLD_STARTS_PER_PASS))

    repeat(seconds, one_pass)
    walls = median_walls(passes, session.scale())
    metrics = {
        "records_per_s": len(session.truth.ids) * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
        "setup_s": statistics.median(setup) * session.scale(),
    }
    return metrics, passes


# Per-layer metrics: name -> unit. Every ``.s`` metric is self time in
# seconds summed over one traced pass of the workload's sequence.
SPAN_NAMES = (
    "cli.import", "cli.main",
    "feeds.load_cve_records", "feeds.load_exploit_refs", "feeds.load_labels",
    "feeds.merge_labels", "feeds.load_asset_context", "feeds.attach_descriptions",
    "feeds.save_labels", "wx.count_wx", "scoring.score_portfolio",
    "report.rank", "report.export", "report.compare",
    "triage.features.fit_vocabulary", "triage.features.design_matrix", "triage.svm.train",
    "triage.metrics.evaluate", "triage.modelio.save_model", "triage.modelio.load_model",
)
PER_LAYER = {
    "cli.import.s": "s",
    "cli.main.s": "s",
    "feeds.load_cve_records.s": "s",
    "feeds.load_cve_records.records_per_s": "1/s",
    "feeds.load_exploit_refs.s": "s",
    "feeds.refs.kept_ratio": "ratio",
    "feeds.load_labels.s": "s",
    "feeds.labels.effective_ratio": "ratio",
    "feeds.merge_labels.s": "s",
    "feeds.load_asset_context.s": "s",
    "feeds.attach_descriptions.s": "s",
    "feeds.save_labels.s": "s",
    "cvss.parse_vector.calls": "count",
    "cvss.parse_vector.s": "s",
    "cvss.vectors.distinct_ratio": "ratio",
    "cvss.base_score.calls": "count",
    "cvss.base_score.s": "s",
    "wx.count_wx.s": "s",
    "wx.cves_with_wx": "count",
    "scoring.score_portfolio.s": "s",
    "scoring.threat_score.s": "s",
    "scoring.threat_score.calls_per_record": "ratio",
    "report.rank.s": "s",
    "report.export.s": "s",
    "report.export.bytes": "bytes",
    "report.compare.s": "s",
    "triage.features.fit_vocabulary.s": "s",
    "triage.vocab_size": "count",
    "triage.features.design_matrix.s": "s",
    "triage.features.design_matrix.bytes": "bytes",
    "triage.features.density": "ratio",
    "triage.features.featurize.calls": "count",
    "triage.features.featurize.s": "s",
    "triage.svm.train.s": "s",
    "triage.svm.sgd_steps": "count",
    "triage.svm.predict_text.calls": "count",
    "triage.svm.predict_text.s": "s",
    "triage.metrics.evaluate.s": "s",
    "triage.micro_f": "ratio",
    "triage.modelio.save_model.s": "s",
    "triage.modelio.load_model.s": "s",
    "triage.modelio.model_bytes": "bytes",
    **{f"{name}.rss_hwm_delta_mb": "MB" for name in SPAN_NAMES},
    **{f"{kind}_s": "s" for kind in COMMAND_KINDS},
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.absent": "count",
    "reference.probe_s": "s",
}
# Counters that describe one call rather than add up across calls.
_REDUCE = {"micro_f": min, "vocab_size": max, "matrix_bytes": max, "cves_with_wx": max}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(docs: list[dict], truth: feedgen.Truth) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one span document per command)."""
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    rss = defaultdict(float)
    counters: dict[str, dict] = defaultdict(dict)
    for doc in docs:
        own = self_times(doc["nodes"])
        for node in doc["nodes"]:
            name = node["name"]
            self_s[name] += own[node["id"]]
            total_s[name] += duration(node)
            calls[name] += node.get("calls", 1)
            if node["kind"] == "span":
                rss[name] = max(rss[name], node["rss_hwm_delta_mb"])
            for key, value in node["counters"].items():
                have = counters[name].get(key)
                counters[name][key] = value if have is None else _REDUCE.get(key, operator.add)(have, value)

    def counter(name, key):
        return counters[name].get(key, 0)

    metrics = {name: self_s[name[: -len(".s")]] for name in PER_LAYER if name.endswith(".s")}
    metrics.update({
        "feeds.load_cve_records.records_per_s": _ratio(
            counter("feeds.load_cve_records", "records"), total_s["feeds.load_cve_records"]),
        "feeds.refs.kept_ratio": _ratio(
            counter("feeds.load_exploit_refs", "kept"),
            truth.ref_lines * calls["feeds.load_exploit_refs"]),
        "feeds.labels.effective_ratio": _ratio(
            counter("feeds.merge_labels", "effective"), counter("feeds.merge_labels", "loaded")),
        "cvss.parse_vector.calls": calls["cvss.parse_vector"],
        "cvss.vectors.distinct_ratio": _ratio(
            counter("cvss.parse_vector", "distinct"), calls["cvss.parse_vector"]),
        "cvss.base_score.calls": calls["cvss.base_score"],
        "wx.cves_with_wx": counter("wx.count_wx", "cves_with_wx"),
        "scoring.threat_score.calls_per_record": _ratio(
            calls["scoring.threat_score"], counter("scoring.score_portfolio", "records")),
        "report.export.bytes": counter("report.export", "bytes"),
        "triage.vocab_size": counter("triage.features.fit_vocabulary", "vocab_size"),
        "triage.features.design_matrix.bytes": counter("triage.features.design_matrix", "matrix_bytes"),
        "triage.features.density": _ratio(
            counter("triage.features.featurize", "nnz"), counter("triage.features.featurize", "cells")),
        "triage.features.featurize.calls": calls["triage.features.featurize"],
        "triage.svm.sgd_steps": counter("triage.svm.train", "sgd_steps"),
        "triage.svm.predict_text.calls": calls["triage.svm.predict_text"],
        "triage.micro_f": counter("triage.metrics.evaluate", "micro_f"),
        "triage.modelio.model_bytes": counter("triage.modelio.save_model", "model_bytes"),
        "trace.absent": len({name for doc in docs for name in doc["absent"]}),
    })
    metrics.update({f"{name}.rss_hwm_delta_mb": rss[name] for name in SPAN_NAMES})
    return metrics


def per_layer(session: Session, seconds: float, trace_path: Path) -> tuple[dict, list[list[Outcome]]]:
    session.cold_starts(1)  # compiles bytecode outside the first cli.import span
    traced, plain, layer = [], [], []

    def one_pair() -> None:
        outcomes, docs = session.run_pass(traced=True)
        if not layer:
            trace_path.write_text(json.dumps(docs), encoding="utf-8")
        layer.append(layer_metrics(docs, session.truth))
        traced.append(outcomes)
        plain.append(session.run_pass(traced=False)[0])

    repeat(seconds, one_pair)
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    plain_walls = median_walls(plain, session.scale())
    times = command_times([c.kind for c in session.commands], plain_walls)
    metrics.update({f"{kind}_s": times.get(kind, 0.0) for kind in COMMAND_KINDS})
    overhead = sum(median_walls(traced, session.scale())) - sum(plain_walls)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / sum(plain_walls)
    metrics["reference.probe_s"] = statistics.median(session.probes)
    return metrics, traced + plain


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spawner: Spawner) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        session = Session(workload, seed, work, spawner)
        if trace:
            metrics, passes = per_layer(session, seconds, WORK / f"trace-{workload}-{seed}.json")
            units = PER_LAYER
        else:
            metrics, passes = end_to_end(session, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(session.digests) > 1:
        for p in passes:
            p[-1].problems = p[-1].problems + [f"{len(session.digests)} different outputs from one seed"]
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problems]
    print(f"{workload} seed {seed}: {len(session.truth.ids)} CVEs, {len(passes)} passes of "
          f"{' '.join(c.kind for c in session.commands)}, feeds generated in {session.generate_s:.2f} s")
    for outcome in failed[:10]:
        print(f"  FAILED {outcome.kind}: {'; '.join(outcome.problems[:3])}")
    if not trace:
        times = command_times([c.kind for c in session.commands], median_walls(passes, session.scale()))
        for kind, wall in times.items():
            print(f"  {kind + '_s':<14} {wall:.4f} s")
        raw = median_walls(passes)
        print(f"  unscaled records_per_s {len(session.truth.ids) * len(raw) / sum(raw):.6g} 1/s, "
              f"reference probe median {statistics.median(session.probes):.4f} s "
              f"(scaled to {REFERENCE_S} s)")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    print(f"  {'ops_failed_ratio':<14} {len(failed) / len(outcomes):.4g} ratio ({len(failed)}/{len(outcomes)})")
    if session.absent:
        print(f"  absent (not traced): {', '.join(sorted(session.absent))}")
    print(f"  output digest  sha256:{min(session.digests)}")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vulnrank" / "cli.py").is_file():
        print(f"error: no vulnrank sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spawner)
                   for w in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
