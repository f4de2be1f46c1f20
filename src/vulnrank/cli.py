"""Command-line front end: ingest, train, predict, score, rank, report, label.

Configuration resolves in four layers, weakest first: built-in defaults,
the --config JSON file, VULNRANK_* environment variables, then explicit
flags. Every flag mirrors a config key of the same name. Every value,
from whichever layer, is type-checked by its key's parser.

Exit codes are a stable scripting contract: 0 success, 2 ingest,
validation, configuration or file read/write failure, 3 training
failure, 4 model compatibility failure, 5 scoring completeness failure.
Every failure prints one ``error:`` line to stderr. Output files are
written to ``<path>.tmp`` and renamed into place, so a failed write
leaves the previous file untouched.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path

from vulnrank.cvss import CvssError
from vulnrank.feeds import (
    Criticality,
    Exposure,
    FeedError,
    LabeledExample,
    Labeler,
    attach_descriptions,
    load_asset_context,
    load_cve_records,
    load_exploit_refs,
    load_labels,
    merge_labels,
    parse_ts,
    save_labels,
    write_atomic,
    write_labels,
)
from vulnrank.report import DEFAULT_TIER_BOUNDS, ExportFormat, IoError, compare, export, rank
from vulnrank.scoring import (
    DEFAULT_ENV_WEIGHTS,
    EnvWeights,
    InvalidConfig,
    MissingCvss,
    MissingLabels,
    score_portfolio,
)
from vulnrank.wx import count_wx

# vulnrank.triage imports numpy, which only train and predict need. The
# triage names below are bound into this module on first access
# (``__getattr__``), and main binds them all before it runs either
# command, so ingest, score, rank, report and label never load numpy.
_TRIAGE_NAMES = (
    "CorpusTooSmall", "DegenerateTaskWarning", "ModelVersionError", "Task", "TrainConfig",
    "TrainingDiverged", "evaluate", "fit_vocabulary", "load_model", "predict_texts",
    "save_model", "split", "train",
)
# The values of triage.svm.Task, for the --task flag.
TASK_NAMES = ("utility", "opportune")


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

ENV_PREFIX = "VULNRANK_"


@dataclass(frozen=True)
class RunConfig:
    """All knobs for a run; field names double as config keys and flags."""

    cves: str | None = None
    refs: str | None = None
    context: str | None = None
    labels: str | None = None
    model_utility: str = "utility_model.json"
    model_opportune: str = "opportune_model.json"
    output: str | None = None
    format: str | None = None
    seed: int = 42
    min_df: int = 2
    epochs: int = 20
    reg_lambda: float = 1e-4
    stratified: bool = False
    env_weights: EnvWeights = DEFAULT_ENV_WEIGHTS
    tier_bounds: tuple[Decimal, ...] = DEFAULT_TIER_BOUNDS

    def model_path(self, task: Task) -> str:
        return self.model_utility if task is Task.UTILITY else self.model_opportune


def _bad(where: str, raw, expected: str) -> InvalidConfig:
    return InvalidConfig(f"{where}: expected {expected}, got {raw!r}")


def _path(raw, where: str) -> str:
    if isinstance(raw, str) and raw and "\0" not in raw:
        return raw
    raise _bad(where, raw, "a file path")


def _format(raw, where: str) -> str:
    try:
        if isinstance(raw, str) and ExportFormat.parse(raw):
            return raw
    except ValueError:
        pass
    raise _bad(where, raw, "text, csv or json-lines")


# JSON values are taken as they are, strings are cast. type() rather than
# isinstance(), because bool is an int subclass and true would read as 1.
def _integer(raw, where: str) -> int:
    try:
        if isinstance(raw, str) or type(raw) is int:
            return int(raw)
    except ValueError:
        pass
    raise _bad(where, raw, "an integer")


# The seeds numpy's RandomState accepts (triage.svm.SEED_RANGE, which
# this module does not import: that would load numpy for every command).
SEED_RANGE = (0, 2**32 - 1)


def _seed(raw, where: str) -> int:
    value = _integer(raw, where)
    low, high = SEED_RANGE
    if not low <= value <= high:
        raise _bad(where, raw, f"an integer in [{low}, {high}]")
    return value


def _real(raw, where: str) -> float:
    try:
        if isinstance(raw, str) or type(raw) in (int, float):
            return float(raw)
    except (ValueError, OverflowError):
        pass
    raise _bad(where, raw, "a number")


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


def _env_weights(raw, where: str) -> EnvWeights:
    if not isinstance(raw, dict) or not raw.keys() <= {"exposure", "criticality"}:
        raise _bad(where, raw, "an object of exposure and criticality weights")
    tables = {}
    for name, enum in (("exposure", Exposure), ("criticality", Criticality)):
        section, members = raw.get(name, {}), {m.value: m for m in enum}
        if not isinstance(section, dict) or not section.keys() <= members.keys():
            raise _bad(f"{where}.{name}", section, f"weights for {', '.join(members)}")
        tables[name] = {
            members[k]: _decimal(v, f"{where}.{name}.{k}", *WEIGHT_RANGE) for k, v in section.items()
        }
    return EnvWeights(
        exposure=tables["exposure"] or DEFAULT_ENV_WEIGHTS.exposure,
        criticality=tables["criticality"] or DEFAULT_ENV_WEIGHTS.criticality,
    )


# One parser per RunConfig key, in field order. Each takes the JSON value
# or its string form and raises InvalidConfig naming where it came from.
CONFIG_KEYS = {
    "cves": _path,
    "refs": _path,
    "context": _path,
    "labels": _path,
    "model_utility": _path,
    "model_opportune": _path,
    "output": _path,
    "format": _format,
    "seed": _seed,
    "min_df": _integer,
    "epochs": _integer,
    "reg_lambda": _real,
    "stratified": _boolean,
    "env_weights": _env_weights,
    "tier_bounds": _tier_bounds,
}
FILE_ONLY_KEYS = {"env_weights"}


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
            except ValueError as exc:  # also UnicodeDecodeError
                raise InvalidConfig(f"{args.config}: not a JSON config file: {exc}") from None
        if not isinstance(doc, dict):
            raise _bad(args.config, type(doc).__name__, "a JSON object")
        for key, raw in doc.items():
            if key not in CONFIG_KEYS:
                raise InvalidConfig(f"{args.config}: unknown config key {key!r}")
            settings.append((key, raw, f"{args.config}: {key}"))
    for key in CONFIG_KEYS:
        name = ENV_PREFIX + key.upper()
        if key not in FILE_ONLY_KEYS and name in os.environ:
            settings.append((key, os.environ[name], name))
        if getattr(args, key, None) is not None:
            settings.append((key, getattr(args, key), "--" + key.replace("_", "-")))
    return replace(
        RunConfig(), **{key: CONFIG_KEYS[key](raw, where) for key, raw, where in settings}
    )


def _require_paths(config: RunConfig, names: list[str]) -> None:
    for name in names:
        value = getattr(config, name)
        if value is None:
            raise FeedError(f"no {name} path configured (flag --{name.replace('_', '-')})")
        if not Path(value).exists():
            raise FeedError(f"{name} file not found: {value}")


def _optional_paths(config: RunConfig, names: list[str]) -> None:
    for name in names:
        value = getattr(config, name)
        if value is not None and not Path(value).exists():
            raise FeedError(f"{name} file not found: {value}")


def _effective_labels(config: RunConfig) -> dict[str, LabeledExample]:
    path = Path(config.labels)
    return merge_labels(load_labels(path)) if path.exists() else {}


def _emit(config: RunConfig, data: bytes) -> None:
    if config.output is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            write_atomic(config.output, data)
        except OSError as exc:
            raise IoError(f"cannot write {config.output}: {exc}") from exc


def cmd_ingest(config: RunConfig) -> int:
    _require_paths(config, ["cves"])
    _optional_paths(config, ["refs", "context", "labels"])
    records = load_cve_records(config.cves)
    ref_count = 0
    if config.refs is not None:
        ref_count = sum(len(group) for group in load_exploit_refs(config.refs).values())
    label_count = 0
    if config.labels is not None:
        label_count = len(load_labels(config.labels))
    ctx_count = 0
    if config.context is not None:
        ctx_count = len(load_asset_context(config.context))
    print(
        f"{len(records)} CVEs, {ref_count} references, "
        f"{label_count} labels, {ctx_count} context entries"
    )
    return EXIT_OK


def cmd_train(config: RunConfig, task: Task) -> int:
    try:
        train_config = TrainConfig(
            epochs=config.epochs, reg_lambda=config.reg_lambda, seed=config.seed
        )
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"bad training config: {exc}") from None
    if config.min_df < 1:
        raise InvalidConfig(f"min_df must be >= 1, got {config.min_df}")
    _require_paths(config, ["cves", "labels"])
    records = load_cve_records(config.cves)
    merged = _effective_labels(config)
    examples = [merged[cve_id] for cve_id in sorted(merged)]
    if len(examples) < 5:
        raise CorpusTooSmall(f"label store holds {len(examples)} examples; need at least 5")
    examples = attach_descriptions(examples, records)

    stratify = (lambda ex: task.label_of(ex)) if config.stratified else None
    train_set, test_set = split(examples, 0.8, seed=config.seed, stratify_key=stratify)
    vocab = fit_vocabulary([ex.description for ex in train_set], min_df=config.min_df)

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


def _without_sme_labels(records, merged: dict[str, LabeledExample]) -> list:
    return [
        rec
        for rec in records
        if rec.cve_id not in merged or merged[rec.cve_id].labeler is not Labeler.SME
    ]


def _deterministic_ts(merged: dict[str, LabeledExample]) -> datetime:
    # Reruns on identical inputs must produce identical label files, so
    # model labels are stamped with the newest timestamp already in the
    # store rather than the wall clock.
    if not merged:
        return datetime(1970, 1, 1, tzinfo=timezone.utc)
    return max(ex.labeled_at for ex in merged.values())


def cmd_predict(config: RunConfig, task: Task) -> int:
    _require_paths(config, ["cves"])
    if config.labels is None:
        raise FeedError("no labels path configured (flag --labels)")
    model = load_model(config.model_path(task))
    if model.task is not task:
        raise ModelVersionError(
            f"{config.model_path(task)} holds a {model.task.value} model, not {task.value}"
        )
    merged = _effective_labels(config)
    targets = _without_sme_labels(load_cve_records(config.cves), merged)
    if not targets:
        print("all CVEs already carry SME labels; nothing to predict")
        return EXIT_OK

    stamp = _deterministic_ts(merged)
    fresh = []
    for rec, predicted in zip(targets, predict_texts(model, [rec.description for rec in targets])):
        existing = merged.get(rec.cve_id)
        utility, opportune = (existing.utility, existing.opportune) if existing else (0, 0)
        if task is Task.UTILITY:
            utility = predicted
        else:
            opportune = predicted
        fresh.append(LabeledExample(rec.cve_id, utility, opportune, Labeler.MODEL, stamp))
    # What save_labels would write, without reading the store again:
    # merge_labels is a left fold, so merging the merged store with the
    # fresh labels equals merging every stored entry with them.
    write_labels(config.labels, merge_labels([*merged.values(), *fresh]))
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


def _scored_portfolio(config: RunConfig):
    _require_paths(config, ["cves", "labels"])
    _optional_paths(config, ["refs", "context"])
    records = load_cve_records(config.cves)
    labels = _effective_labels(config)
    wx_map = {}
    if config.refs is not None:
        wx_map = count_wx(load_exploit_refs(config.refs))
    ctx_map = {}
    if config.context is not None:
        ctx_map = load_asset_context(config.context)
    return score_portfolio(records, wx_map, labels, ctx_map, config.env_weights)


def cmd_rank(config: RunConfig, default_format: str) -> int:
    fmt = ExportFormat.parse(config.format or default_format)
    with _cyclic_gc_paused():
        _emit(config, export(rank(_scored_portfolio(config)), fmt))
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    fmt = ExportFormat.parse(config.format or "text")
    with _cyclic_gc_paused():
        report = compare(_scored_portfolio(config), tier_bounds=config.tier_bounds)
        _emit(config, export(report, fmt))
    return EXIT_OK


def _prompt(question: str, legal: set[str]) -> str:
    while True:
        try:
            answer = input(question).strip().lower()
        except EOFError:
            return "q"
        if answer in legal:
            return answer
        print(f"  enter one of: {', '.join(sorted(legal))}")


def cmd_label(config: RunConfig, timestamp: str | None) -> int:
    if timestamp is None:
        stamp = datetime.now(timezone.utc)
    else:
        stamp = parse_ts(timestamp, "--timestamp")
    _require_paths(config, ["cves"])
    if config.labels is None:
        raise FeedError("no labels path configured (flag --labels)")
    records = sorted(load_cve_records(config.cves), key=lambda r: r.cve_id)
    targets = _without_sme_labels(records, _effective_labels(config))
    if not targets:
        print("all CVEs already carry SME labels")
        return EXIT_OK

    collected = []
    for rec in targets:
        print(f"\n{rec.cve_id}: {rec.description}")
        utility = _prompt("utility [0/1/2, s=skip, q=quit]: ", {"0", "1", "2", "s", "q"})
        if utility == "q":
            break
        if utility == "s":
            continue
        opportune = _prompt("opportune [0/1, s=skip, q=quit]: ", {"0", "1", "s", "q"})
        if opportune == "q":
            break
        if opportune == "s":
            continue
        collected.append(LabeledExample(rec.cve_id, int(utility), int(opportune), Labeler.SME, stamp))
    if collected:
        save_labels(config.labels, collected)
    print(f"\nsaved {len(collected)} label(s) to {config.labels}")
    return EXIT_OK


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--cves", help="CVE feed path")
    common.add_argument("--refs", help="exploit reference feed path")
    common.add_argument("--context", help="asset context feed path")
    common.add_argument("--labels", help="label store path")
    common.add_argument("--model-utility", dest="model_utility", help="utility model file")
    common.add_argument("--model-opportune", dest="model_opportune", help="opportune model file")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--seed", type=int, help="RNG seed (default 42)")
    common.add_argument("--min-df", dest="min_df", type=int, help="vocabulary min document frequency")
    common.add_argument("--epochs", type=int, help="training epochs")
    common.add_argument("--reg-lambda", dest="reg_lambda", type=float, help="L2 regularization")
    common.add_argument(
        "--stratified",
        action="store_const",
        const=True,
        default=None,
        help="stratify the train/test split by task label",
    )
    common.add_argument(
        "--tier-bounds",
        dest="tier_bounds",
        help="comma-separated threat tier boundaries, descending (default 64,32,16,8)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnrank",
        description="Threat-score vulnerability prioritization pipeline.",
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common], help="validate feeds and print counts")

    for name, help_text in (
        ("train", "train a triage model and report held-out F-scores"),
        ("predict", "fill missing labels with model predictions"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--task", required=True, choices=TASK_NAMES)

    for name, default_fmt, help_text in (
        ("score", "json-lines", "score and emit the ranked portfolio"),
        ("rank", "text", "emit the ranked remediation queue"),
        ("report", "text", "emit the CVSS-versus-threat comparison report"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument(
            "--format",
            choices=["text", "csv", "json-lines"],
            help=f"output format (default {default_fmt})",
        )

    label = sub.add_parser("label", parents=[common], help="interactive SME labeling loop")
    label.add_argument("--timestamp", help="ISO-8601 stamp for saved labels (default: now)")

    return parser


def _error(exc: Exception, code: int) -> int:
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
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command in ("train", "predict"):
            return _triage_main(args.command, config, args.task)
        if args.command == "score":
            return cmd_rank(config, "json-lines")
        if args.command == "rank":
            return cmd_rank(config, "text")
        if args.command == "report":
            return cmd_report(config)
        if args.command == "label":
            return cmd_label(config, args.timestamp)
        raise AssertionError(args.command)
    except (MissingLabels, MissingCvss) as exc:
        return _error(exc, EXIT_SCORING)
    except (FeedError, CvssError, InvalidConfig, OSError) as exc:
        return _error(exc, EXIT_INGEST)


if __name__ == "__main__":
    sys.exit(main())
