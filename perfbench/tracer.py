"""Spans around vulnrank's public layer functions, recorded from outside.

Run as a script, this is the traced worker: it imports ``vulnrank.cli``
under a ``cli.import`` span, replaces the layer functions that
``vulnrank.cli`` and the layer modules call through module globals with
timing wrappers, runs ``vulnrank.cli.main`` on one command in-process
under a ``cli.main`` span, and writes every span to a JSON file at exit:

    python3 perfbench/tracer.py SPANS.json CMD_ID -- score --cves ...

Spans live in memory until then. Per-record functions (``FOLDED``) get
no span per call; their calls fold into one node per parent holding a
call count and total time, so tracing 100k calls costs 100k clock reads,
not 100k span records.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Span and folded-call nodes for one command.

    A span node has ``start``/``end``; a folded node has ``calls`` and
    ``total_s``. Both have an ``id``, a ``name``, the ``parent`` node id
    (None at the root), the command id ``cmd`` and a ``counters`` dict.
    """

    def __init__(self, cmd: int):
        self.cmd = cmd
        self.nodes: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[dict] = []
        self._folded: dict[tuple, dict] = {}
        self._distinct: dict[int, set] = defaultdict(set)

    def _node(self, name: str, **fields) -> dict:
        node = {"id": len(self.nodes), "name": name, "cmd": self.cmd,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "counters": {}, **fields}
        self.nodes.append(node)
        return node

    def span(self, name, fn, args, kwargs, observe=None):
        node = self._node(name, kind="span", start=0.0, end=0.0, rss_hwm_delta_mb=0.0)
        self._stack.append(node)
        rss = _maxrss_mb()
        node["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            node["end"] = time.perf_counter()
            node["rss_hwm_delta_mb"] = _maxrss_mb() - rss
            self._stack.pop()
        if observe is not None:
            _add(node["counters"], observe(args, result))
        return result

    def folded(self, name, fn, args, kwargs, observe=None, distinct=False):
        key = (self._stack[-1]["id"] if self._stack else None, name)
        node = self._folded.get(key)
        if node is None:
            node = self._folded[key] = self._node(name, kind="folded", calls=0, total_s=0.0)
        self._stack.append(node)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            node["total_s"] += time.perf_counter() - start
            node["calls"] += 1
            self._stack.pop()
        if distinct:
            self._distinct[node["id"]].add(args[0] if args else None)
        if observe is not None:
            _add(node["counters"], observe(args, result))
        return result

    def dump(self) -> list[dict]:
        for node_id, values in self._distinct.items():
            self.nodes[node_id]["counters"]["distinct"] = len(values)
        return self.nodes


def _add(counters: dict, values: dict) -> None:
    for key, value in values.items():
        counters[key] = counters.get(key, 0) + value


def duration(node: dict) -> float:
    return node["end"] - node["start"] if node["kind"] == "span" else node["total_s"]


def self_times(nodes: list[dict]) -> dict[int, float]:
    """Self time per node id: its duration minus the time its children cover.

    Span children cover the union of their intervals clipped to the
    parent; folded children cover their total time, since their calls
    ran one at a time inside the parent.
    """
    children = defaultdict(list)
    for node in nodes:
        if node["parent"] is not None:
            children[node["parent"]].append(node)
    out = {}
    for node in nodes:
        kids = children[node["id"]]
        covered = sum(duration(k) for k in kids if k["kind"] == "folded")
        spans = [k for k in kids if k["kind"] == "span"]
        if node["kind"] == "folded":
            covered += sum(duration(k) for k in spans)
        else:
            cursor = node["start"]
            for start, end in sorted((k["start"], k["end"]) for k in spans):
                start, end = max(start, cursor), min(end, node["end"])
                if end > start:
                    covered += end - start
                    cursor = end
        out[node["id"]] = duration(node) - covered
    return out


def _kept_refs(_args, result) -> dict:
    return {"kept": sum(len(group) for group in result.values())}


def _merge_counts(args, result) -> dict:
    loaded = args[0] if args else ()
    return {"loaded": len(loaded) if hasattr(loaded, "__len__") else 0, "effective": len(result)}


def _train_steps(args, _result) -> dict:
    # train(task, examples, vocab, config): one SGD step per example per epoch.
    try:
        return {"sgd_steps": args[3].epochs * len(args[1])}
    except (IndexError, AttributeError, TypeError):
        return {}


def _featurized(_args, result) -> dict:
    return {"nnz": len(result.weights), "cells": result.dim}


# (module, attribute, span name, observe). The same function is wrapped
# under every module global it is called through.
SPANS = (
    ("vulnrank.cli", "load_cve_records", "feeds.load_cve_records", lambda a, r: {"records": len(r)}),
    ("vulnrank.cli", "load_exploit_refs", "feeds.load_exploit_refs", _kept_refs),
    ("vulnrank.cli", "load_labels", "feeds.load_labels", None),
    ("vulnrank.feeds", "load_labels", "feeds.load_labels", None),
    ("vulnrank.cli", "merge_labels", "feeds.merge_labels", _merge_counts),
    ("vulnrank.feeds", "merge_labels", "feeds.merge_labels", _merge_counts),
    ("vulnrank.cli", "load_asset_context", "feeds.load_asset_context", None),
    ("vulnrank.cli", "attach_descriptions", "feeds.attach_descriptions", None),
    ("vulnrank.cli", "save_labels", "feeds.save_labels", None),
    ("vulnrank.cli", "count_wx", "wx.count_wx",
     lambda a, r: {"cves_with_wx": sum(1 for w in r.values() if w.count)}),
    ("vulnrank.cli", "score_portfolio", "scoring.score_portfolio", lambda a, r: {"records": len(r)}),
    ("vulnrank.cli", "rank", "report.rank", None),
    ("vulnrank.cli", "export", "report.export", lambda a, r: {"bytes": len(r)}),
    ("vulnrank.cli", "compare", "report.compare", None),
    ("vulnrank.cli", "fit_vocabulary", "triage.features.fit_vocabulary",
     lambda a, r: {"vocab_size": r.size}),
    ("vulnrank.triage.svm", "design_matrix", "triage.features.design_matrix",
     lambda a, r: {"matrix_bytes": r.nbytes}),
    ("vulnrank.cli", "train", "triage.svm.train", _train_steps),
    ("vulnrank.cli", "evaluate", "triage.metrics.evaluate", lambda a, r: {"micro_f": r.micro_f}),
    ("vulnrank.cli", "save_model", "triage.modelio.save_model",
     lambda a, r: {"model_bytes": os.path.getsize(a[0])}),
    ("vulnrank.cli", "load_model", "triage.modelio.load_model", None),
)

# (module, attribute, folded name, observe, count distinct first arguments)
FOLDED = (
    ("vulnrank.feeds", "parse_vector", "cvss.parse_vector", None, True),
    ("vulnrank.scoring", "base_score", "cvss.base_score", None, False),
    ("vulnrank.scoring", "threat_score", "scoring.threat_score", None, False),
    ("vulnrank.triage.features", "featurize", "triage.features.featurize", _featurized, False),
    ("vulnrank.triage.svm", "featurize", "triage.features.featurize", _featurized, False),
    ("vulnrank.triage.metrics", "featurize", "triage.features.featurize", _featurized, False),
    ("vulnrank.cli", "predict_text", "triage.svm.predict_text", None, False),
)


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the rest as absent."""

    def wrap(module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.absent.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(fn))

    for module_name, attr, name, observe in SPANS:
        wrap(module_name, attr, lambda fn, name=name, observe=observe:
             lambda *a, **k: tracer.span(name, fn, a, k, observe))
    for module_name, attr, name, observe, distinct in FOLDED:
        wrap(module_name, attr, lambda fn, name=name, observe=observe, distinct=distinct:
             lambda *a, **k: tracer.folded(name, fn, a, k, observe, distinct))


def main(argv: list[str]) -> int:
    out, cmd, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json CMD_ID -- VULNRANK_ARGS...")
    tracer = Tracer(int(cmd))
    cli = tracer.span("cli.import", importlib.import_module, ("vulnrank.cli",), {})
    install(tracer)
    try:
        status = tracer.span("cli.main", cli.main, (command,), {})
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    doc = {"cmd": tracer.cmd, "argv": command, "status": status,
           "absent": tracer.absent, "nodes": tracer.dump()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
