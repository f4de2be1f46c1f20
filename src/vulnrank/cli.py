"""Command-line front end: ingest, train, predict, score, rank, report, label.

Configuration resolves in four layers, weakest first: built-in defaults,
the --config JSON file, VULNRANK_* environment variables, then the
flags, which are built from ``CONFIG_KEYS``. The default ``format`` of
score, rank and report is the command's own, from ``EXPORT_FORMATS``, so
it is the weakest layer like every other default. Every value, a flag's
as typed or one-dash like ``-1e-3``, goes through its key's parser, the
one check of its type and range; argparse rejects only usage errors (an
unknown flag, a flag without its value, a missing subcommand or --task).

Exit codes are a stable scripting contract: 0 success, 2 ingest,
validation, configuration or file read/write failure, 3 training
failure, 4 model compatibility failure, 5 scoring completeness failure,
130 stopped by SIGINT. Every failure prints one ``error:`` line to
stderr, SIGINT ``error: interrupted``, except at a ``label`` prompt:
there SIGINT, SIGTERM and SIGHUP save the answers given so far, print
``interrupted: saved N label(s) to <store>`` and exit 128 plus the
signal's number (130, 143 and 129). Output files are written
by ``feeds.write_atomic``, which follows symlinks, refuses a target that
is not a regular file, and fsyncs a temporary file beside the target
before renaming it into place, so an interrupted command leaves its
output as it was.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import partial
from itertools import islice
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from vulnrank.cvss import CvssError
from vulnrank.feeds import (
    Criticality,
    CveRecord,
    Exposure,
    FeedError,
    IoError,
    Judgment,
    Labeler,
    Task,
    attach_descriptions,
    fold_labels,
    iter_cve_records,
    iter_label_rows,
    load_asset_context,
    load_exploit_refs,
    load_judgments,
    output_target,
    parse_ts,
    save_labels,
    write_atomic,
    write_labels,
)
from vulnrank.report import DEFAULT_TIER_BOUNDS, ExportFormat, compare, export_chunks, rank
from vulnrank.scoring import (
    DEFAULT_ENV_WEIGHTS,
    InvalidConfig,
    MissingCvss,
    MissingLabels,
    score_portfolio,
)

# vulnrank.triage imports numpy, which only train and predict need. The
# triage names below are bound into this module on first access
# (``__getattr__``), and main binds them all before it runs either
# command, so ingest, score, rank, report and label never load numpy.
_TRIAGE_NAMES = (
    "CorpusTooSmall", "DegenerateTaskWarning", "ModelVersionError", "TrainConfig",
    "TrainingDiverged", "evaluate", "fit_vocabulary", "load_model", "predict_texts",
    "save_model", "split", "train",
)


def __getattr__(name: str):
    if name not in _TRIAGE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("vulnrank.triage"), name)
    return value


def _bind_triage() -> None:
    # getattr keeps a name that is already bound, such as a wrapper a
    # profiler installed, and imports the rest.
    module = sys.modules[__name__]
    for name in _TRIAGE_NAMES:
        getattr(module, name)


EXIT_OK = 0
EXIT_INGEST = 2
EXIT_TRAIN = 3
EXIT_MODEL = 4
EXIT_SCORING = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT

ENV_PREFIX = "VULNRANK_"
FORMAT_NAMES = "text, csv or json-lines"
# The commands that export, each with the format it writes when no layer sets one.
EXPORT_FORMATS = {
    "score": ExportFormat.STRUCTURED, "rank": ExportFormat.TEXT, "report": ExportFormat.TEXT
}


class RunConfig(NamedTuple):
    """All knobs for a run; field names double as config keys and flags."""

    cves: str | None = None
    refs: str | None = None
    context: str | None = None
    labels: str | None = None
    model_utility: str = "utility_model.json"
    model_opportune: str = "opportune_model.json"
    output: str | None = None
    format: ExportFormat | None = None
    seed: int = 42
    min_df: int = 2
    epochs: int = 20
    reg_lambda: float = 1e-4
    stratified: bool = False
    env_weights: Mapping[Exposure | Criticality, Decimal] = DEFAULT_ENV_WEIGHTS
    tier_bounds: tuple[Decimal, ...] = DEFAULT_TIER_BOUNDS

    def model_path(self, task: Task) -> str:
        return self.model_utility if task is Task.UTILITY else self.model_opportune


def _bad(where: str, raw, expected: str) -> InvalidConfig:
    return InvalidConfig(f"{where}: expected {expected}, got {raw!r}")


def _path(raw, where: str) -> str:
    if isinstance(raw, str) and raw and "\0" not in raw:
        return raw
    raise _bad(where, raw, "a file path")


def _format(raw, where: str) -> ExportFormat:
    try:
        if isinstance(raw, str):
            return ExportFormat(raw)
    except ValueError:
        pass
    raise _bad(where, raw, FORMAT_NAMES)


# JSON values are taken as they are, strings are cast. type() rather than
# isinstance(), because bool is an int subclass and true would read as 1.
def _integer(raw, where: str, low: int, high: float = math.inf) -> int:
    try:
        if isinstance(raw, str) or type(raw) is int:
            value = int(raw)
            if low <= value <= high:
                return value
    except ValueError:
        pass
    span = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
    raise _bad(where, raw, f"an integer {span}")


# An infinite lambda would train an all-zero model and write Infinity.
def _positive_real(raw, where: str) -> float:
    try:
        if isinstance(raw, str) or type(raw) in (int, float):
            value = float(raw)
            if 0 < value < math.inf:
                return value
    except (ValueError, OverflowError):
        pass
    raise _bad(where, raw, "a positive finite number")


# Bounded in range and scale: a threat score with wx up to 10^6 then needs
# at most 25 digits, exact in Decimal's 28, and never renders as 1E-29.
# Threat scores are never negative, so a tier below 0 could never fill.
WEIGHT_RANGE = (Decimal("0.0001"), Decimal(10**4))
TIER_BOUND_RANGE = (Decimal(0), Decimal(10**9))


def _decimal(raw, where: str, low: Decimal, high: Decimal) -> Decimal:
    try:
        if isinstance(raw, str) or type(raw) in (int, float):
            value = Decimal(str(raw))
            if value.is_finite() and low <= value <= high and value.as_tuple().exponent >= -4:
                return value
    except InvalidOperation:
        pass
    raise _bad(where, raw, f"a number in [{low}, {high}] with at most four decimals")


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True}
_BOOL_WORDS |= {"0": False, "false": False, "no": False, "off": False}


def _boolean(raw, where: str) -> bool:
    value = _BOOL_WORDS.get(raw.strip().lower()) if isinstance(raw, str) else raw
    if isinstance(value, bool):
        return value
    raise _bad(where, raw, "true or false")


def _tier_bounds(raw, where: str) -> tuple[Decimal, ...]:
    # A JSON list or a comma-separated string ("64,32,16,8").
    values = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(values, list) or not values:
        raise _bad(where, raw, "a list of numbers")
    bounds = tuple(_decimal(v, where, *TIER_BOUND_RANGE) for v in values)
    if list(bounds) != sorted(set(bounds), reverse=True):
        raise _bad(where, raw, "strictly descending bounds")
    return bounds


def _env_weights(raw, where: str) -> Mapping[Exposure | Criticality, Decimal]:
    if not isinstance(raw, dict) or not raw.keys() <= {"exposure", "criticality"}:
        raise _bad(where, raw, "an object of exposure and criticality weights")
    # A member the config leaves out keeps its default weight.
    weights = dict(DEFAULT_ENV_WEIGHTS)
    for name, enum in (("exposure", Exposure), ("criticality", Criticality)):
        section, members = raw.get(name, {}), {m.value: m for m in enum}
        if not isinstance(section, dict) or not section.keys() <= members.keys():
            raise _bad(f"{where}.{name}", section, f"weights for {', '.join(members)}")
        for k, v in section.items():
            weights[members[k]] = _decimal(v, f"{where}.{name}.{k}", *WEIGHT_RANGE)
    return MappingProxyType(weights)


# Each RunConfig key, in field order, with its parser (the JSON value or its
# string form in, InvalidConfig naming where it came from out) and its flag's
# help; None for env_weights, which only the config file sets.
CONFIG_KEYS = {
    "cves": (_path, "CVE feed path"),
    "refs": (_path, "exploit reference feed path"),
    "context": (_path, "asset context feed path"),
    "labels": (_path, "label store path"),
    "model_utility": (_path, "utility model file"),
    "model_opportune": (_path, "opportune model file"),
    "output": (_path, "output path (default: stdout)"),
    "format": (_format, FORMAT_NAMES),
    # The seeds of the legacy MT19937 seeding (triage.svm.SEED_RANGE, not
    # imported here: that would load numpy for every command).
    "seed": (partial(_integer, low=0, high=2**32 - 1), "RNG seed (default 42)"),
    "min_df": (partial(_integer, low=1), "vocabulary min document frequency"),
    "epochs": (partial(_integer, low=1), "training epochs"),
    "reg_lambda": (_positive_real, "L2 regularization"),
    "stratified": (_boolean, "stratify the train/test split by task label"),
    "env_weights": (_env_weights, None),
    "tier_bounds": (
        _tier_bounds, "comma-separated threat tier boundaries, descending (default 64,32,16,8)"
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then environment, then flags.

    Every value, whichever layer sets it, goes through its key's parser
    in ``CONFIG_KEYS``; a later layer overrides an earlier one.
    """
    settings = []
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
                raise InvalidConfig(f"{args.config}: not a JSON config file: {exc}") from None
        if not isinstance(doc, dict):
            raise _bad(args.config, type(doc).__name__, "a JSON object")
        for key, raw in doc.items():
            if key not in CONFIG_KEYS:
                raise InvalidConfig(f"{args.config}: unknown config key {key!r}")
            settings.append((key, raw, f"{args.config}: {key}"))
    for key, (_, help_text) in CONFIG_KEYS.items():
        name = ENV_PREFIX + key.upper()
        if help_text is not None and name in os.environ:
            settings.append((key, os.environ[name], name))
        if getattr(args, key, None) is not None:
            settings.append((key, getattr(args, key), _flag(key)))
    return RunConfig(format=EXPORT_FORMATS.get(getattr(args, "command", None)))._replace(
        **{key: CONFIG_KEYS[key][0](raw, where) for key, raw, where in settings}
    )


def _require_paths(config: RunConfig, required: list[str], optional: tuple[str, ...] = ()) -> None:
    for name in (*required, *optional):
        value = getattr(config, name)
        if value is None:
            if name in required:
                raise FeedError(f"no {name} path configured (flag {_flag(name)})")
        elif not Path(value).exists():
            raise FeedError(f"{name} file not found: {value}")


def cmd_ingest(config: RunConfig) -> int:
    _require_paths(config, ["cves"], ("refs", "context", "labels"))
    cve_count = sum(1 for _ in iter_cve_records(config.cves))
    ref_count = 0
    if config.refs is not None:
        ref_count = sum(map(len, load_exploit_refs(config.refs).values()))
    label_count = 0
    if config.labels is not None:
        label_count = sum(1 for _ in iter_label_rows(config.labels))
    ctx_count = 0
    if config.context is not None:
        ctx_count = len(load_asset_context(config.context))
    print(
        f"{cve_count} CVEs, {ref_count} references, "
        f"{label_count} labels, {ctx_count} context entries"
    )
    return EXIT_OK


def cmd_train(config: RunConfig, task: Task) -> int:
    train_config = TrainConfig(epochs=config.epochs, reg_lambda=config.reg_lambda, seed=config.seed)
    _require_paths(config, ["cves", "labels"])
    with _cve_feed_error_first(config, CorpusTooSmall):
        judgments, stamps = load_judgments(config.labels)
        # Model rows are predictions, with a placeholder 0 for the task not
        # predicted; a model learns from SME judgments only.
        rows = [
            (cve_id, judgment, stamps[cve_id])
            for cve_id, judgment in sorted(judgments.items())
            if judgment.labeler is Labeler.SME
        ]
        del judgments, stamps  # train's peak comes after the join
        if len(rows) < 5:
            raise CorpusTooSmall(f"label store holds {len(rows)} SME examples; need at least 5")
    # The CVE feed streams through the join, which keeps only the labeled
    # CVEs' descriptions; a bad feed line raises before the missing ids.
    docs = attach_descriptions(rows, iter_cve_records(config.cves))

    stratify = (lambda doc: task.label_of(doc[1][1])) if config.stratified else None
    train_set, test_set = split(docs, seed=config.seed, stratify_key=stratify)
    vocab = fit_vocabulary([text for text, _ in train_set], min_df=config.min_df)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateTaskWarning)
        model = train(task, train_set, vocab, train_config)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    report = evaluate(model, test_set)
    save_model(config.model_path(task), model)
    print(f"task: {task.value}")
    print(f"train/test: {len(train_set)}/{len(test_set)}, vocabulary: {vocab.size}")
    for line in report.lines():
        print(line)
    print(f"model written to {config.model_path(task)}")
    return EXIT_OK


def _without_sme_labels(records, judgments: dict[str, Judgment]) -> Iterator[CveRecord]:
    return (
        rec
        for rec in records
        if rec.cve_id not in judgments or judgments[rec.cve_id].labeler is not Labeler.SME
    )


def cmd_predict(config: RunConfig, task: Task) -> int:
    _require_paths(config, ["cves"])
    if config.labels is None:
        raise FeedError("no labels path configured (flag --labels)")
    output_target(config.labels)  # before reading it: a FIFO would block
    model = load_model(config.model_path(task))
    if model.task is not task:
        raise ModelVersionError(
            f"{config.model_path(task)} holds a {model.task.value} model, not {task.value}"
        )
    judgments, stamps = load_judgments(config.labels) if Path(config.labels).exists() else ({}, {})
    # Reruns on identical inputs must produce identical label files, so
    # model labels are stamped with the newest stamp already in the store
    # rather than the wall clock.
    stamp = max(stamps.values(), default=datetime(1970, 1, 1, tzinfo=timezone.utc))
    # The CVE feed streams: one block of targets, descriptions included, is
    # held at a time, and only each target's fresh row is kept. A bad
    # feed line still raises before the store is written.
    from vulnrank.triage.features import BLOCK_TEXTS  # numpy is loaded by now

    targets = _without_sme_labels(iter_cve_records(config.cves), judgments)
    fresh = []
    while block := list(islice(targets, BLOCK_TEXTS)):
        predictions = predict_texts(model, [rec.description for rec in block])
        for rec, predicted in zip(block, predictions):
            utility, opportune, _ = judgments.get(rec.cve_id, (0, 0, None))
            labels = (predicted, opportune) if task is Task.UTILITY else (utility, predicted)
            fresh.append((rec.cve_id, Judgment(*labels, Labeler.MODEL), stamp))
    if not fresh:
        print("all CVEs already carry SME labels; nothing to predict")
        return EXIT_OK
    # Rows new to the store hold a placeholder 0 for the other task.
    placeholders = sum(cve_id not in judgments for cve_id, _, _ in fresh)
    # What save_labels would write, without reading the store again: the
    # store is folded row by row, so folding the fresh rows into its fold
    # equals folding them after every stored row.
    write_labels(config.labels, *fold_labels(fresh, judgments, stamps))
    if placeholders:
        other = (Task.OPPORTUNE if task is Task.UTILITY else Task.UTILITY).value
        warning = f"{placeholders} new Model rows hold {other} 0 until predict --task {other} runs"
        print(f"warning: {warning}", file=sys.stderr)
    print(f"predicted {task.value} for {len(fresh)} CVEs -> {config.labels}")
    return EXIT_OK


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector, and leave it as it was found.

    Feed objects, records, scored rows, rankings and rendered rows hold
    no reference cycles, so the collector's passes over them, which grow
    with the portfolio, find nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def _cve_feed_error_first(config: RunConfig, *errors: type[Exception]):
    """Run a block that reads the other inputs before the CVE feed streams.

    The CVE feed's own error wins, as when it was read first: when the
    block raises a FeedError, an OSError or one of ``errors``, the CVE
    feed is read through before that error is raised.
    """
    try:
        yield
    except (FeedError, OSError, *errors):
        for _ in iter_cve_records(config.cves):
            pass
        raise


def _scored_portfolio(config: RunConfig):
    """Load labels, refs and context, then score the CVE feed as it streams."""
    _require_paths(config, ["cves", "labels"], ("refs", "context"))
    with _cve_feed_error_first(config):
        # Only the judgments: the stamps are freed before the feed streams.
        labels = load_judgments(config.labels)[0]
        wx_map = {}
        if config.refs is not None:
            # Unbound, the URL dicts are freed before scoring starts.
            wx_map = {
                cve_id: sum(urls.values())
                for cve_id, urls in load_exploit_refs(config.refs).items()
            }
        ctx_map = {}
        if config.context is not None:
            ctx_map = load_asset_context(config.context)
    records = iter_cve_records(config.cves)
    return score_portfolio(records, wx_map, labels, ctx_map, config.env_weights)


def cmd_export(config: RunConfig, command: str) -> int:
    """score and rank write the ranked portfolio, report the comparison."""
    with _cyclic_gc_paused():
        if command == "report":
            result = compare(_scored_portfolio(config), tier_bounds=config.tier_bounds)
        else:
            result = rank(_scored_portfolio(config))
        chunks = export_chunks(result, config.format)
        if config.output is None:
            try:
                sys.stdout.flush()
                sys.stdout.buffer.writelines(chunks)
                sys.stdout.buffer.flush()
            except OSError as exc:
                raise IoError(f"cannot write stdout: {exc.strerror or exc}") from exc
        else:
            write_atomic(config.output, chunks)
    return EXIT_OK


def _prompt(task: Task) -> str:
    """One of ``task``'s classes, ``s`` (skip) or ``q`` (quit, also at EOF)."""
    classes = [str(c) for c in task.classes]
    question = f"{task.value} [{'/'.join(classes)}, s=skip, q=quit]: "
    legal = {*classes, "s", "q"}
    while True:
        try:
            answer = input(question).strip().lower()
        except EOFError:
            return "q"
        if answer in legal:
            return answer
        print(f"  enter one of: {', '.join(sorted(legal))}")


class _Stopped(KeyboardInterrupt):
    """A stop signal at a label prompt; its argument is the exit code."""


def _raise_stopped(signum, _frame):
    raise _Stopped(128 + signum)


@contextmanager
def _stop_signals_raise():
    """Within the block SIGINT, SIGTERM and SIGHUP raise ``_Stopped``,
    unless found ignored; the handlers found are restored after it. Off
    the main thread, where no handler can be set, they are left alone."""
    import signal  # only label needs it; at the top every command would load it

    try:
        previous = {
            signum: signal.signal(signum, _raise_stopped)
            for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
            if signal.getsignal(signum) is not signal.SIG_IGN
        }
    except ValueError:
        previous = {}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def cmd_label(config: RunConfig, timestamp: str | None) -> int:
    if timestamp is None:
        stamp = datetime.now(timezone.utc)
    else:
        stamp = parse_ts(timestamp, "--timestamp")
    _require_paths(config, ["cves"])
    if config.labels is None:
        raise FeedError("no labels path configured (flag --labels)")
    output_target(config.labels)  # before reading it: a FIFO would block
    with _cve_feed_error_first(config):
        judgments = load_judgments(config.labels)[0] if Path(config.labels).exists() else {}
    targets = sorted(
        _without_sme_labels(iter_cve_records(config.cves), judgments), key=lambda r: r.cve_id
    )
    if not targets:
        print("all CVEs already carry SME labels")
        return EXIT_OK

    collected, code = [], None
    try:
        with _stop_signals_raise():
            for rec in targets:
                print(f"\n{rec.cve_id}: {rec.description}")
                # Each task's value is the name of the Judgment field it labels.
                answers = {}
                for task in Task:
                    answer = _prompt(task)
                    if answer in ("s", "q"):
                        break
                    answers[task.value] = int(answer)
                if answer == "q":
                    break
                if answer != "s":
                    collected.append((rec.cve_id, Judgment(**answers, labeler=Labeler.SME), stamp))
    except _Stopped as exc:
        # A stop signal quits: the answers given so far are saved.
        code = exc.args[0]
    if collected:
        # Reads the store again, or a predict run during this session would be lost.
        save_labels(config.labels, collected)
    if code is not None:
        print()  # ends the prompt's line
        print(f"interrupted: saved {len(collected)} label(s) to {config.labels}", file=sys.stderr)
        return code
    print(f"\nsaved {len(collected)} label(s) to {config.labels}")
    return EXIT_OK


# The flags that take a value: --config, --timestamp and every flagged key's but the switch's.
_VALUE_FLAGS = {"--config", "--timestamp"}
_VALUE_FLAGS |= {_flag(k) for k, (_, h) in CONFIG_KEYS.items() if h and k != "stratified"}


# argparse reads a token that starts with "-" and is not a plain negative
# number ("-1e-3", "-5,1") as an option. Every vulnrank option that takes a
# value has two dashes, so a one-dash token after one is joined to it
# ("--reg-lambda=-1e-3") and reaches the key's parser.
class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[1:2] != "-":
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vulnrank",
        description="Threat-score vulnerability prioritization pipeline.",
    )
    # Every flag but --format, which only score, rank and report take.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for key, (_, help_text) in CONFIG_KEYS.items():
        if help_text is not None and key != "format":
            switch = {"action": "store_const", "const": "true"} if key == "stratified" else {}
            common.add_argument(_flag(key), dest=key, help=help_text, **switch)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common], help="validate feeds and print counts")

    for name, help_text in (
        ("train", "train a triage model and report held-out F-scores"),
        ("predict", "fill missing labels with model predictions"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--task", required=True, choices=[task.value for task in Task])

    for name, help_text in (
        ("score", "score and emit the ranked portfolio"),
        ("rank", "emit the ranked remediation queue"),
        ("report", "emit the CVSS-versus-threat comparison report"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--format", help=f"{FORMAT_NAMES} (default {EXPORT_FORMATS[name].value})")

    label = sub.add_parser("label", parents=[common], help="interactive SME labeling loop")
    label.add_argument("--timestamp", help="ISO-8601 stamp for saved labels (default: now)")

    return parser


def _error(exc: Exception | str, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _triage_main(command: str, config: RunConfig, task_name: str) -> int:
    _bind_triage()
    try:
        task = Task(task_name)
        return cmd_train(config, task) if command == "train" else cmd_predict(config, task)
    except ModelVersionError as exc:
        return _error(exc, EXIT_MODEL)
    except (CorpusTooSmall, TrainingDiverged) as exc:
        return _error(exc, EXIT_TRAIN)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = build_config(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command in ("train", "predict"):
            return _triage_main(args.command, config, args.task)
        if args.command in EXPORT_FORMATS:
            return cmd_export(config, args.command)
        if args.command == "label":
            return cmd_label(config, args.timestamp)
        raise AssertionError(args.command)
    except (MissingLabels, MissingCvss) as exc:
        return _error(exc, EXIT_SCORING)
    except (FeedError, CvssError, InvalidConfig, OSError) as exc:
        return _error(exc, EXIT_INGEST)
    except KeyboardInterrupt:
        return _error("interrupted", EXIT_INTERRUPTED)


if __name__ == "__main__":
    sys.exit(main())
