"""End-to-end CLI behavior: commands, exit codes, determinism."""

import argparse
import errno
import gc
import io
import json
import os
import re
import select
import signal
import stat
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest

import vulnrank.cli as cli
from vulnrank import feeds
from vulnrank.cli import CONFIG_KEYS, RunConfig, build_config, build_parser, main
from vulnrank.feeds import Criticality, Exposure, Judgment, Labeler, format_ts, save_labels
from vulnrank.report import ExportFormat
from vulnrank.scoring import DEFAULT_ENV_WEIGHTS
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed

from conftest import read_store, trio_cve_rows, trio_label_rows, write_jsonl

SRC = Path(__file__).resolve().parent.parent / "src"
# A JSON value nested far deeper than the recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def make_args(**overrides):
    base = {"config": None, **dict.fromkeys(CONFIG_KEYS)}
    base.update(overrides)
    return argparse.Namespace(**base)


def trio_score_args(feeds):
    return ["score", "--cves", str(feeds / "cves.jsonl"), "--labels", str(feeds / "labels.jsonl")]


@pytest.fixture
def synth_feeds(tmp_path):
    """A small but trainable synthetic corpus written as feed files."""
    corpus = synth_labeled_corpus(n=200, seed=7)
    write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus, seed=7))
    save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
    return tmp_path


class TestConfigResolution:
    def test_defaults(self):
        config = build_config(make_args())
        assert config.seed == 42
        assert config.min_df == 2
        assert config.epochs == 20

    def test_config_file_applies(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7, "cves": "feed.jsonl"}))
        config = build_config(make_args(config=str(path)))
        assert config.seed == 7
        assert config.cves == "feed.jsonl"

    def test_env_overrides_file(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7}))
        monkeypatch.setenv("VULNRANK_SEED", "9")
        config = build_config(make_args(config=str(path)))
        assert config.seed == 9

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("VULNRANK_SEED", "9")
        assert build_config(make_args(seed=11)).seed == 11

    def test_env_weights_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"env_weights": {"exposure": {"Public": 2.0, "Private": 1.0}}})
        )
        config = build_config(make_args(config=str(path)))
        assert config.env_weights[Exposure.PUBLIC] == 2

    @pytest.mark.parametrize(
        "weights",
        [{"exposure": {"Public": 2}}, {"criticality": {"High": 3}}, {}],
    )
    def test_partial_env_weights_keep_defaults(self, tmp_path, weights):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"env_weights": weights}))
        config = build_config(make_args(config=str(path)))
        for name, enum in (("exposure", Exposure), ("criticality", Criticality)):
            given = {m.value: w for m, w in config.env_weights.items() if isinstance(m, enum)}
            default = {m.value: w for m, w in DEFAULT_ENV_WEIGHTS.items() if isinstance(m, enum)}
            assert given == default | {k: Decimal(v) for k, v in weights.get(name, {}).items()}

    @pytest.mark.parametrize("command", ["score", "rank", "report"])
    def test_partial_env_weights_score_every_context(self, trio_feed_dir, capsys, command):
        # A partial exposure table once passed the config check, then
        # exited 2 with "no weight configured for Exposure.PRIVATE" on
        # the first Private context line.
        write_jsonl(
            trio_feed_dir / "context.jsonl",
            [
                {"cve": "CVE-2019-11324", "exposure": "Private", "criticality": "Low"},
                {"cve": "CVE-2017-0143", "exposure": "Public", "criticality": "High"},
            ],
        )
        outputs = []
        for exposure in ({"Public": 2}, {"Public": 2, "Private": 1.0}):
            config = trio_feed_dir / "config.json"
            config.write_text(json.dumps({"env_weights": {"exposure": exposure}}))
            argv = trio_score_args(trio_feed_dir)[1:] + [
                "--context", str(trio_feed_dir / "context.jsonl"), "--config", str(config),
            ]
            assert main([command, *argv]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] != ""

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sedd": 7}))
        assert main(["ingest", "--config", str(path)]) == 2

    def test_every_run_config_field_has_one_parser(self):
        assert list(CONFIG_KEYS) == list(RunConfig._fields)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"seed": "x"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**32}, "seed"),
            ({"epochs": 2.5}, "epochs"),
            ({"tier_bounds": 5}, "tier_bounds"),
            ({"env_weights": [1]}, "env_weights"),
            ({"output": 5}, "output"),
            ({"cves": None}, "cves"),
            ({"format": "xml"}, "format"),
            ([1], "JSON object"),
            ({"env_weights": {"exposure": {"Public": -1}}}, "env_weights.exposure.Public"),
            # Out of range or scale: an InvalidOperation traceback and a
            # threat score printed as 1E-29 before weights were bounded.
            ({"env_weights": {"exposure": {"Public": 1e300}}}, "env_weights.exposure.Public"),
            ({"env_weights": {"exposure": {"Public": 1e-30}}}, "env_weights.exposure.Public"),
            ({"env_weights": {"criticality": {"High": "1.00001"}}}, "env_weights.criticality.High"),
        ],
    )
    def test_bad_config_value_exits_2(self, trio_feed_dir, capsys, doc, named):
        path = trio_feed_dir / "config.json"
        path.write_text(json.dumps(doc))
        assert main(trio_score_args(trio_feed_dir) + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert named in err

    @pytest.mark.parametrize("name, value", [("VULNRANK_FORMAT", "xml"), ("VULNRANK_STRATIFIED", "maybe")])
    def test_bad_env_value_exits_2(self, trio_feed_dir, monkeypatch, capsys, name, value):
        monkeypatch.setenv(name, value)
        assert main(trio_score_args(trio_feed_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "abc"), ("--min-df", "1.5"), ("--epochs", "x"), ("--reg-lambda", "x"),
         ("--format", "xml")],
    )
    def test_bad_flag_value_exits_2(self, trio_feed_dir, capsys, flag, value):
        # argparse once refused these itself, with its usage block.
        assert main(trio_score_args(trio_feed_dir) + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # score took these and exited 0, while train refused them.
            (["score", "--epochs", "0"], "--epochs"),
            (["score", "--min-df", "0"], "--min-df"),
            (["score", "--reg-lambda", "nan"], "--reg-lambda"),
            (["score", "--epochs", "0", "--min-df", "0", "--reg-lambda", "nan"], "--min-df"),
            # argparse read a value like these as an option and printed its usage block.
            (["train", "--task", "utility", "--reg-lambda", "-1e-3"], "--reg-lambda"),
            (["report", "--tier-bounds", "-5,1"], "--tier-bounds"),
        ],
    )
    def test_range_checked_for_every_command(self, trio_feed_dir, capsys, argv, flag):
        feeds = [f"--{name}={trio_feed_dir / name}.jsonl" for name in ("cves", "labels")]
        assert main(argv + feeds) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1, err

    def test_config_path_may_start_with_one_dash(self, trio_feed_dir, tmp_path, monkeypatch, capsys):
        # argparse read "-cfg.json" as an option and printed its usage block.
        (tmp_path / "-cfg.json").write_text(json.dumps({"cves": str(trio_feed_dir / "cves.jsonl")}))
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--config", "-cfg.json"]) == 0
        assert capsys.readouterr().out == "3 CVEs, 0 references, 0 labels, 0 context entries\n"

    def test_option_in_value_position_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["score", "--cves", "--labels", "x"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and err.count("error:") == 1, err
        assert "argument --cves: expected one argument" in err

    def test_structured_format_flag_as_env(self, trio_feed_dir, monkeypatch, capsys):
        assert main(trio_score_args(trio_feed_dir) + ["--format", "structured"]) == 0
        from_flag = capsys.readouterr().out
        monkeypatch.setenv("VULNRANK_FORMAT", "structured")
        assert main(trio_score_args(trio_feed_dir)) == 0
        assert capsys.readouterr().out == from_flag != ""

    def test_flags_follow_config_keys(self):
        # One flag per key with help, in CONFIG_KEYS order, and argparse
        # neither converts nor checks their values.
        flagged = [key for key, (_, help_text) in CONFIG_KEYS.items() if help_text is not None]
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        for name, sub in commands.items():
            actions = [a for a in sub._actions if a.dest in CONFIG_KEYS]
            expected = [k for k in flagged if k != "format"]
            expected += ["format"] if name in ("score", "rank", "report") else []
            assert [a.dest for a in actions] == expected, name
            flags = [["--" + k.replace("_", "-")] for k in expected]
            assert [a.option_strings for a in actions] == flags, name
            assert all(a.type is None and a.choices is None for a in actions), name

    @pytest.mark.parametrize(
        "doc, key, expected",
        [
            ({"stratified": "no"}, "stratified", False),
            ({"stratified": " Yes "}, "stratified", True),
            ({"stratified": False}, "stratified", False),
            ({"seed": "7"}, "seed", 7),
            ({"reg_lambda": 1}, "reg_lambda", 1.0),
            ({"tier_bounds": "100,50"}, "tier_bounds", (Decimal(100), Decimal(50))),
            ({"tier_bounds": [100, "50.5"]}, "tier_bounds", (Decimal(100), Decimal("50.5"))),
            ({"format": "structured"}, "format", ExportFormat.STRUCTURED),
            (
                {"tier_bounds": "1e9,0.0001,0"},
                "tier_bounds",
                (Decimal(10**9), Decimal("0.0001"), Decimal(0)),
            ),
        ],
    )
    def test_config_value_forms(self, tmp_path, doc, key, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        value = getattr(build_config(make_args(config=str(path))), key)
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("body", ["{not json", "", "\xff", "# seed: 7"])
    def test_config_not_json_exits_2(self, trio_feed_dir, capsys, body):
        path = trio_feed_dir / "config.txt"
        path.write_bytes(body.encode("latin-1"))
        assert main(trio_score_args(trio_feed_dir) + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a JSON config file: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("body", [DEEP_JSON, f'{{"seed": {DEEP_JSON}}}'], ids=["doc", "seed"])
    def test_config_nested_too_deep_exits_2(self, trio_feed_dir, capsys, body):
        path = trio_feed_dir / "deep.json"
        path.write_text(body)
        assert main(["ingest", "--cves", str(trio_feed_dir / "cves.jsonl"), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a JSON config file: ") and err.count("\n") == 1, err

    def test_env_reads_only_known_keys(self, monkeypatch):
        monkeypatch.setenv("VULNRANK_ENV_WEIGHTS", "not even json")
        monkeypatch.setenv("VULNRANK_SEDD", "x")
        monkeypatch.setenv("VULNRANK_STRATIFIED", "off")
        config = build_config(make_args())
        assert config.env_weights == DEFAULT_ENV_WEIGHTS
        assert config.stratified is False


CONTEXT_MESSAGE = "exposure must be Public/Private and criticality Low/Medium/High"


class TestIngest:
    def test_summary_counts(self, trio_feed_dir, capsys):
        code = main(
            [
                "ingest",
                "--cves", str(trio_feed_dir / "cves.jsonl"),
                "--refs", str(trio_feed_dir / "refs.jsonl"),
                "--labels", str(trio_feed_dir / "labels.jsonl"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "3 CVEs, 28 references, 3 labels, 0 context entries"

    def test_missing_file_names_path(self, tmp_path, capsys):
        code = main(["ingest", "--cves", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_duplicate_id_names_id(self, tmp_path, capsys):
        rows = trio_cve_rows() + [trio_cve_rows()[0]]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        assert main(["ingest", "--cves", str(path)]) == 2
        assert "CVE-2017-0143" in capsys.readouterr().err

    @pytest.mark.parametrize("feed", ["cves", "refs", "labels", "context"])
    def test_non_utf8_byte_names_line(self, trio_feed_dir, capsys, feed):
        write_jsonl(
            trio_feed_dir / "context.jsonl",
            [{"cve": "CVE-2019-11324", "exposure": "Public", "criticality": "High"}],
        )
        path = trio_feed_dir / f"{feed}.jsonl"
        first = path.read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(first + b'{"note": "caf\xe9"}\n')  # Latin-1 e-acute
        args = ["ingest"]
        for name in ("cves", "refs", "labels", "context"):
            args += [f"--{name}", str(trio_feed_dir / f"{name}.jsonl")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: not UTF-8 ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [["SME"], {"SME": 1}, ["Public"], {"High": True}, 1])
    @pytest.mark.parametrize(
        "feed, field, message",
        [
            ("labels", "labeler", "labeler must be SME or Model"),
            ("context", "exposure", CONTEXT_MESSAGE),
            ("context", "criticality", CONTEXT_MESSAGE),
        ],
    )
    def test_non_string_category_exits_2(self, trio_feed_dir, capsys, feed, field, message, value):
        row = {"cve": "CVE-2019-11324", "utility": 1, "opportune": 0, "labeler": "SME",
               "ts": "2021-01-01T00:00:00Z", "exposure": "Public", "criticality": "High", field: value}
        path = write_jsonl(trio_feed_dir / f"{feed}.jsonl", [row])
        assert main(["ingest", "--cves", str(trio_feed_dir / "cves.jsonl"), f"--{feed}", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: {message}\n"

    @pytest.mark.parametrize("exposure", ["DMZ", ["Public"], None])
    def test_bad_exposure_reported_before_missing_criticality(self, trio_feed_dir, capsys, exposure):
        path = write_jsonl(trio_feed_dir / "context.jsonl", [{"cve": "CVE-2019-11324", "exposure": exposure}])
        assert main(["ingest", "--cves", str(trio_feed_dir / "cves.jsonl"), "--context", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: {CONTEXT_MESSAGE}\n"

    def test_schema_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "cves.jsonl"
        path.write_text('{"id": "CVE-2020-0001", "description": "ok"}\n{"id": "CVE-2020-0002"}\n')
        assert main(["ingest", "--cves", str(path)]) == 2
        assert ":2" in capsys.readouterr().err


def micro_f_from(output: str) -> float:
    match = re.search(r"micro-F (\d\.\d+)", output)
    assert match, output
    return float(match.group(1))


class TestTrain:
    def train_args(self, feeds, task="utility", **extra):
        args = [
            "train", "--task", task,
            "--cves", str(feeds / "cves.jsonl"),
            "--labels", str(feeds / "labels.jsonl"),
            "--model-utility", str(feeds / "utility_model.json"),
            "--model-opportune", str(feeds / "opportune_model.json"),
        ]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_trains_and_reports(self, synth_feeds, capsys):
        assert main(self.train_args(synth_feeds, min_df=1)) == 0
        out = capsys.readouterr().out
        assert micro_f_from(out) >= 0.95
        assert (synth_feeds / "utility_model.json").exists()

    def test_imbalanced_supports_visible(self, synth_feeds, capsys):
        assert main(self.train_args(synth_feeds, task="opportune", min_df=1)) == 0
        out = capsys.readouterr().out
        assert "support" in out
        # Held-out class supports reflect the 92/8 imbalance.
        rows = [line.split() for line in out.splitlines() if re.match(r"\s+[01] ", line)]
        supports = {int(row[0]): int(row[-1]) for row in rows}
        assert supports[0] > supports[1]

    def test_rerun_byte_identical(self, synth_feeds):
        assert main(self.train_args(synth_feeds, min_df=1, seed=42)) == 0
        first = (synth_feeds / "utility_model.json").read_bytes()
        assert main(self.train_args(synth_feeds, min_df=1, seed=42)) == 0
        assert (synth_feeds / "utility_model.json").read_bytes() == first

    def test_corpus_too_small_exits_3(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=3, seed=1)
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus))
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
        assert main(self.train_args(tmp_path)) == 3

    def test_fewer_than_five_sme_rows_exits_3(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=10, seed=1)
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus))
        model_rows = [(cve_id, j._replace(labeler=Labeler.MODEL), ts) for _, (cve_id, j, ts) in corpus[4:]]
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus[:4]] + model_rows)
        assert main(self.train_args(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err == "error: label store holds 4 SME examples; need at least 5\n"
        assert not (tmp_path / "utility_model.json").exists()

    # The CVE feed streams through the join after the label store loads,
    # yet its error is the one reported, as when it was read first.
    def bad_cve_feed(self, directory, corpus):
        cves = directory / "cves.jsonl"
        write_cve_feed(cves, synth_cve_records(corpus))
        cves.write_text(cves.read_text() + '{"id": "CVE-2020-0009"}\n')
        return f"error: {cves}:{len(corpus) + 1}: missing field 'description'\n"

    def test_cve_feed_error_wins_over_a_bad_label_store(self, tmp_path, capsys):
        expected = self.bad_cve_feed(tmp_path, synth_labeled_corpus(n=10, seed=1))
        (tmp_path / "labels.jsonl").write_text("not json\n")
        assert main(self.train_args(tmp_path)) == 2
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "utility_model.json").exists()

    def test_cve_feed_error_wins_over_too_few_sme_rows(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=10, seed=1)
        expected = self.bad_cve_feed(tmp_path, corpus)
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus[:4]])
        assert main(self.train_args(tmp_path)) == 2
        assert capsys.readouterr().err == expected

    def test_cve_feed_error_wins_over_labels_absent_from_it(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=10, seed=1)
        expected = self.bad_cve_feed(tmp_path, corpus[:5])
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
        assert main(self.train_args(tmp_path)) == 2
        assert capsys.readouterr().err == expected

    def test_labels_absent_from_a_good_feed_exit_2(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=10, seed=1)
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus[2:]))
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
        assert main(self.train_args(tmp_path)) == 2
        missing = ", ".join(sorted(cve_id for _, (cve_id, _, _) in corpus[:2]))
        assert capsys.readouterr().err == f"error: labeled CVEs absent from the CVE feed: {missing}\n"

    def test_bad_label_store_when_the_cve_feed_is_good(self, tmp_path, capsys):
        corpus = synth_labeled_corpus(n=10, seed=1)
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus))
        (tmp_path / "labels.jsonl").write_text("not json\n")
        assert main(self.train_args(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'labels.jsonl'}:1: invalid JSON ("), err
        assert err.count("\n") == 1, err

    def test_model_rows_are_not_trained_on(self, tmp_path, capsys):
        # predict stores its outputs as Model rows, with a placeholder 0 for
        # the task it did not predict; training on them once took the
        # opportune split from 160/40 to 480/120 and its macro-F to 0.61.
        corpus = synth_labeled_corpus(n=600, seed=3)
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus, seed=3))
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus[:200]])

        def train_both():
            trained = {}
            for task in ("utility", "opportune"):
                assert main(self.train_args(tmp_path, task=task)) == 0
                out = capsys.readouterr().out
                (split_line,) = [line for line in out.splitlines() if line.startswith("train/test:")]
                trained[task] = (split_line, (tmp_path / f"{task}_model.json").read_bytes())
            return trained

        before = train_both()
        assert before["opportune"][0].startswith("train/test: 160/40,")
        assert main(["predict", *self.train_args(tmp_path)[1:]]) == 0
        stored = read_store(tmp_path / "labels.jsonl")
        assert sum(j.labeler is Labeler.MODEL for _, j, _ in stored) == 400
        assert train_both() == before

    @pytest.mark.parametrize(
        "flags, env",
        [
            ({"epochs": 0}, {}),
            ({"reg_lambda": 0}, {}),
            ({"reg_lambda": -0.5}, {}),
            ({"reg_lambda": "nan"}, {}),
            ({"min_df": 0}, {}),
            ({}, {"VULNRANK_SEED": "abc"}),
            ({}, {"VULNRANK_EPOCHS": "abc"}),
            ({}, {"VULNRANK_MIN_DF": "abc"}),
            ({}, {"VULNRANK_REG_LAMBDA": "abc"}),
            # The legacy MT19937 seeding takes seeds in [0, 2**32 - 1];
            # outside it, once a ValueError traceback and exit 1.
            ({"seed": -1}, {}),
            ({}, {"VULNRANK_SEED": str(2**32)}),
            # An infinite lambda trained an all-zero model and wrote
            # Infinity into the model file.
            ({"reg_lambda": "inf"}, {}),
            ({}, {"VULNRANK_REG_LAMBDA": "1e309"}),
        ],
    )
    def test_bad_training_knob_exits_2(self, synth_feeds, monkeypatch, capsys, flags, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(self.train_args(synth_feeds, **flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (synth_feeds / "utility_model.json").exists()

    def test_largest_seed_trains(self, synth_feeds):
        assert main(self.train_args(synth_feeds, min_df=1, seed=2**32 - 1)) == 0

    def test_non_finite_weights_exit_3(self, synth_feeds, capsys):
        # A subnormal lambda makes the first step infinite; the model was
        # written with Infinity and NaN weights, which predict refused.
        assert main(self.train_args(synth_feeds, min_df=1, reg_lambda=1e-320)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: training the utility model diverged"), err
        assert err.count("\n") == 1, err
        assert not (synth_feeds / "utility_model.json").exists()
        assert not list(synth_feeds.glob("*.tmp"))

    def test_unwritable_model_path_exits_2(self, synth_feeds, capsys):
        args = self.train_args(synth_feeds, min_df=1)
        missing = synth_feeds / "missing"
        args[args.index("--model-utility") + 1] = str(missing / "utility_model.json")
        before = sorted(p.name for p in synth_feeds.iterdir())
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in synth_feeds.iterdir()) == before

    def test_model_path_directory_exits_2(self, synth_feeds, capsys):
        target = synth_feeds / "utility_model.json"
        target.mkdir()
        assert main(self.train_args(synth_feeds, min_df=1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert target.is_dir() and not any(target.iterdir())
        assert not list(synth_feeds.rglob("*.tmp"))

    def test_degenerate_task_warns_but_succeeds(self, tmp_path, capsys):
        corpus = [doc for doc in synth_labeled_corpus(n=200, seed=3) if doc[1][1].opportune == 0][:40]
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus))
        save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
        assert main(self.train_args(tmp_path, task="opportune", min_df=1)) == 0
        captured = capsys.readouterr()
        assert "constant" in captured.err
        assert (tmp_path / "opportune_model.json").exists()


def first_token_renamed(doc, token):
    (_, df), *rest = doc["vocabulary"]["tokens"]
    return {**doc, "vocabulary": {**doc["vocabulary"], "tokens": [[token, df], *rest]}}


class TestPredict:
    @pytest.fixture
    def trained(self, synth_feeds):
        args = [
            "--cves", str(synth_feeds / "cves.jsonl"),
            "--labels", str(synth_feeds / "labels.jsonl"),
            "--model-utility", str(synth_feeds / "utility_model.json"),
            "--model-opportune", str(synth_feeds / "opportune_model.json"),
            "--min-df", "1",
        ]
        assert main(["train", "--task", "utility"] + args) == 0
        assert main(["train", "--task", "opportune"] + args) == 0
        return synth_feeds

    def predict_args(self, feeds, portfolio_dir, task="utility"):
        return [
            "predict", "--task", task,
            "--cves", str(portfolio_dir / "portfolio.jsonl"),
            "--labels", str(portfolio_dir / "portfolio_labels.jsonl"),
            "--model-utility", str(feeds / "utility_model.json"),
            "--model-opportune", str(feeds / "opportune_model.json"),
        ]

    def write_portfolio(self, tmp_path, labeled_count=2):
        corpus = synth_labeled_corpus(n=12, seed=99)
        write_cve_feed(tmp_path / "portfolio.jsonl", synth_cve_records(corpus, seed=99))
        save_labels(tmp_path / "portfolio_labels.jsonl", [row for _, row in corpus[:labeled_count]])
        return tmp_path

    def test_predicts_only_unlabeled(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path, labeled_count=11)
        assert main(self.predict_args(trained, portfolio)) == 0
        labels = read_store(portfolio / "portfolio_labels.jsonl")
        model_labels = [row for row in labels if row[1].labeler is Labeler.MODEL]
        assert len(model_labels) == 1
        assert len(labels) == 12

    def test_all_sme_is_noop(self, trained, tmp_path, capsys):
        portfolio = self.write_portfolio(tmp_path, labeled_count=12)
        before = (portfolio / "portfolio_labels.jsonl").read_bytes()
        assert main(self.predict_args(trained, portfolio)) == 0
        assert (portfolio / "portfolio_labels.jsonl").read_bytes() == before
        assert "nothing to predict" in capsys.readouterr().out

    def test_never_overwrites_sme(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        sme_before = {row[0]: row for row in read_store(portfolio / "portfolio_labels.jsonl")}
        assert main(self.predict_args(trained, portfolio)) == 0
        after = {row[0]: row for row in read_store(portfolio / "portfolio_labels.jsonl")}
        for cve_id, row in sme_before.items():
            assert after[cve_id] == row
            assert after[cve_id][1].labeler is Labeler.SME

    def test_rerun_byte_identical(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        assert main(self.predict_args(trained, portfolio)) == 0
        first = (portfolio / "portfolio_labels.jsonl").read_bytes()
        assert main(self.predict_args(trained, portfolio)) == 0
        assert (portfolio / "portfolio_labels.jsonl").read_bytes() == first

    def test_both_tasks_fill_both_fields(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path, labeled_count=0)
        assert main(self.predict_args(trained, portfolio, task="utility")) == 0
        assert main(self.predict_args(trained, portfolio, task="opportune")) == 0
        labels = read_store(portfolio / "portfolio_labels.jsonl")
        assert len(labels) == 12
        assert all(j.labeler is Labeler.MODEL for _, j, _ in labels)

    def test_placeholder_rows_warn_until_the_other_task_runs(self, trained, tmp_path, capsys):
        # Ten CVEs have no row: utility's run writes them with opportune 0
        # and says so; opportune's run then only replaces Model rows.
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        store = portfolio / "portfolio_labels.jsonl"
        capsys.readouterr()
        assert main(self.predict_args(trained, portfolio, task="utility")) == 0
        first = capsys.readouterr()
        assert first.err == (
            "warning: 10 new Model rows hold opportune 0 until predict --task opportune runs\n"
        )
        assert first.out == f"predicted utility for 10 CVEs -> {store}\n"
        assert main(self.predict_args(trained, portfolio, task="opportune")) == 0
        second = capsys.readouterr()
        assert second.err == ""
        assert second.out == f"predicted opportune for 10 CVEs -> {store}\n"

    def test_opportune_first_warns_of_utility_placeholders(self, trained, tmp_path, capsys):
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        store = portfolio / "portfolio_labels.jsonl"
        before = {cve_id for cve_id, _, _ in read_store(store)}
        assert main(self.predict_args(trained, portfolio, task="opportune")) == 0
        assert capsys.readouterr().err == (
            "warning: 10 new Model rows hold utility 0 until predict --task utility runs\n"
        )
        rows = [row for row in read_store(store) if row[0] not in before]
        assert len(rows) == 10 and all(j.utility == 0 for _, j, _ in rows)

    @pytest.mark.parametrize("store", ["superseded", "missing"])
    def test_store_equals_what_save_labels_writes(self, trained, tmp_path, monkeypatch, store):
        # predict writes the store from the entries it loaded once; the
        # bytes must be those save_labels, which loads them again, writes.
        portfolio = self.write_portfolio(tmp_path, labeled_count=0)
        path = portfolio / "portfolio_labels.jsonl"
        ids = [json.loads(line)["id"] for line in (portfolio / "portfolio.jsonl").read_text().splitlines()]
        if store == "missing":
            path.unlink()
        else:
            rows = [
                (0, 1, 0, "SME", "2021-01-01T00:00:00Z"),
                (0, 2, 1, "SME", "2021-03-01T00:00:00Z"),
                (0, 0, 0, "Model", "2021-09-01T00:00:00Z"),
                (1, 2, 0, "Model", "2021-05-01T00:00:00Z"),
                (1, 1, 1, "Model", "2021-01-01T00:00:00Z"),
                # Equal instants in different UTC offsets: the later line wins the tie.
                (2, 0, 1, "Model", "2021-06-01T12:00:00+02:00"),
                (2, 2, 0, "Model", "2021-06-01T10:00:00Z"),
                (3, 1, 0, "SME", "2021-06-01T10:00:00"),
                (5, 0, 0, "SME", "2021-06-01T00:00:00Z"),
                # The newest stamp, which stamps the predictions, in another offset.
                (4, 1, 1, "Model", "2021-09-01T02:00:00+02:00"),
            ]
            write_jsonl(path, [
                {"cve": ids[n], "utility": u, "opportune": o, "labeler": who, "ts": ts}
                for n, u, o, who, ts in rows
            ])
        loads, folds = [], []
        real_load, real_fold = cli.load_judgments, cli.fold_labels

        def spy_load(p):
            loads.append(p)
            return real_load(p)

        def spy_fold(rows, judgments, stamps):
            folds.append(list(rows))
            return real_fold(folds[-1], judgments, stamps)

        monkeypatch.setattr(cli, "load_judgments", spy_load)
        monkeypatch.setattr(feeds, "load_judgments", spy_load)
        monkeypatch.setattr(cli, "fold_labels", spy_fold)
        for task in ("utility", "opportune"):
            expected = tmp_path / "expected.jsonl"
            expected.unlink(missing_ok=True)
            if path.exists():
                expected.write_bytes(path.read_bytes())
            loads.clear()
            folds.clear()
            assert main(self.predict_args(trained, portfolio, task=task)) == 0
            assert len(loads) == (1 if expected.exists() else 0)
            # The one fold takes the predictions, into the store's fold.
            (fresh,) = folds
            assert len(fresh) == len(ids) - (3 if store == "superseded" else 0)
            save_labels(expected, fresh)
            assert path.read_bytes() == expected.read_bytes()

    def test_predicts_one_block_of_descriptions_at_a_time(self, trained, tmp_path, monkeypatch):
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        path = portfolio / "portfolio_labels.jsonl"
        before = path.read_bytes()
        assert main(self.predict_args(trained, portfolio)) == 0
        whole = path.read_bytes()
        path.write_bytes(before)

        from vulnrank.triage import features

        sizes = []
        real_predict = cli.predict_texts

        def spy_predict(model, texts):
            sizes.append(len(texts))
            return real_predict(model, texts)

        monkeypatch.setattr(features, "BLOCK_TEXTS", 3)
        monkeypatch.setattr(cli, "predict_texts", spy_predict)
        assert main(self.predict_args(trained, portfolio)) == 0
        assert sizes == [3, 3, 3, 1]
        assert path.read_bytes() == whole
        # The cli binds no reader that lists the whole CVE feed.
        assert getattr(cli, "load_cve_records", None) is None

    @pytest.mark.parametrize("bad", ["model", "store", "cves"])
    def test_errors_keep_their_order(self, trained, tmp_path, monkeypatch, capsys, bad):
        # The model is read first, then the store, then the CVE feed; a
        # bad CVE feed line after full blocks still writes nothing.
        from vulnrank.triage import features

        monkeypatch.setattr(features, "BLOCK_TEXTS", 3)
        portfolio = self.write_portfolio(tmp_path, labeled_count=2)
        store = portfolio / "portfolio_labels.jsonl"
        faults = {
            "model": (trained / "utility_model.json", "{truncated\n"),
            "store": (store, "not json\n"),
            "cves": (portfolio / "portfolio.jsonl", "not json\n"),
        }
        order = list(faults)
        for name in order[order.index(bad):]:
            target, line = faults[name]
            with open(target, "a", encoding="utf-8") as fh:
                fh.write(line)
        before = store.read_bytes()
        capsys.readouterr()
        assert main(self.predict_args(trained, portfolio)) == (4 if bad == "model" else 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        if bad != "model":
            assert err.startswith(f"error: {faults[bad][0]}:"), err
        assert store.read_bytes() == before

    def test_version_mismatch_exits_4(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path)
        model_path = trained / "utility_model.json"
        doc = model_path.read_text().replace('"format_version": 1', '"format_version": 99')
        model_path.write_text(doc)
        assert main(self.predict_args(trained, portfolio)) == 4

    def test_model_nested_too_deep_exits_4(self, tmp_path, capsys):
        portfolio = self.write_portfolio(tmp_path)
        model_path = tmp_path / "utility_model.json"
        model_path.write_text(DEEP_JSON)
        before = (portfolio / "portfolio_labels.jsonl").read_bytes()
        assert main(self.predict_args(tmp_path, portfolio)) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: not a JSON model file: ") and err.count("\n") == 1, err
        assert (portfolio / "portfolio_labels.jsonl").read_bytes() == before

    def test_other_tasks_model_exits_4(self, trained, tmp_path, capsys):
        portfolio = self.write_portfolio(tmp_path)
        args = self.predict_args(trained, portfolio)
        args[args.index("--model-utility") + 1] = str(trained / "opportune_model.json")
        before = (portfolio / "portfolio_labels.jsonl").read_bytes()
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == f"error: {trained / 'opportune_model.json'} holds a opportune model, not utility\n"
        assert (portfolio / "portfolio_labels.jsonl").read_bytes() == before

    @pytest.mark.parametrize("command", ["predict", "label"])
    def test_no_label_store_exits_2(self, trio_feed_dir, monkeypatch, capsys, command):
        monkeypatch.delenv("VULNRANK_LABELS", raising=False)
        monkeypatch.setattr("builtins.input", lambda prompt="": "q")
        argv = [command, "--cves", str(trio_feed_dir / "cves.jsonl")]
        argv += ["--task", "utility"] if command == "predict" else []
        before = sorted(p.name for p in trio_feed_dir.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: no labels path configured (flag --labels)\n"
        assert sorted(p.name for p in trio_feed_dir.iterdir()) == before

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: "{truncated",
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "weights"}),
            lambda doc: json.dumps({**doc, "weights": [row[:-1] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "bias": doc["bias"] + [0.0]}),
            lambda doc: json.dumps({**doc, "classes": ["a", "b", "c"]}),
            lambda doc: json.dumps({**doc, "vocabulary": {**doc["vocabulary"], "num_documents": -1}}),
            # A model trained with an infinite lambda: all zeros, and
            # predict labelled every CVE 0.
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "reg_lambda": float("inf")}}),
            # A fractional seed and epoch count once loaded, and predict exited 0.
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "seed": 1.5, "epochs": 2.5}}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "seed": True}}),
            # A lambda of true once loaded as 1.
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "reg_lambda": True}}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "reg_lambda": "0.5"}}),
            # Tokens tokenize cannot produce once loaded and matched no text.
            lambda doc: json.dumps(first_token_renamed(doc, "Foo")),
            lambda doc: json.dumps(first_token_renamed(doc, "a")),
        ],
        ids=[
            "corrupt-json", "missing-weights", "weight-shape", "bias-length", "string-classes",
            "negative-documents", "infinite-lambda", "fractional-seed-and-epochs", "bool-seed",
            "bool-lambda", "string-lambda", "upper-case-token", "one-letter-token",
        ],
    )
    def test_corrupt_model_exits_4(self, trained, tmp_path, capsys, corrupt):
        portfolio = self.write_portfolio(tmp_path)
        model_path = trained / "utility_model.json"
        model_path.write_text(corrupt(json.loads(model_path.read_text())))
        before = (portfolio / "portfolio_labels.jsonl").read_bytes()
        capsys.readouterr()
        assert main(self.predict_args(trained, portfolio)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (portfolio / "portfolio_labels.jsonl").read_bytes() == before


class TestScoreRankReport:
    def base_args(self, feeds, cmd, with_refs=True):
        args = [
            cmd,
            "--cves", str(feeds / "cves.jsonl"),
            "--labels", str(feeds / "labels.jsonl"),
        ]
        if with_refs:
            args += ["--refs", str(feeds / "refs.jsonl")]
        return args

    def test_trio_csv_ranked(self, trio_feed_dir, capsys):
        code = main(self.base_args(trio_feed_dir, "rank") + ["--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("1,CVE-2017-0143,102.3,")
        assert lines[2].startswith("2,CVE-2020-27256,40.8,")
        assert lines[3].startswith("3,CVE-2019-11324,9.5,")

    def test_score_default_jsonl(self, trio_feed_dir, capsys):
        assert main(self.base_args(trio_feed_dir, "score")) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[0]["threat_score"] == "102.3"

    def test_refs_omitted_degrades_to_multipliers(self, trio_feed_dir, capsys):
        assert main(
            self.base_args(trio_feed_dir, "rank", with_refs=False) + ["--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # Without exploit counts: pump 6.8*3*2=40.8, SMB 8.1*3=24.3,
        # urllib3 7.5; every wx column reads zero.
        assert lines[1].startswith("1,CVE-2020-27256,40.8,")
        assert lines[2].startswith("2,CVE-2017-0143,24.3,")
        assert lines[3].startswith("3,CVE-2019-11324,7.5,")
        assert all(line.split(",")[5] == "0" for line in lines[1:])

    @pytest.mark.parametrize("command", ["score", "rank", "report"])
    def test_stdout_gets_the_bytes_output_gets(self, synth_feeds, monkeypatch, capsysbinary, command):
        # Seven lines to a chunk: the 200-CVE portfolio spans 29 of them.
        monkeypatch.setattr(feeds, "CHUNK_LINES", 7)
        args = trio_score_args(synth_feeds)
        args[0] = command
        assert main(args) == 0
        out = capsysbinary.readouterr().out
        assert main([*args, "--output", str(synth_feeds / "out")]) == 0
        assert (synth_feeds / "out").read_bytes() == out != b""

    def test_report_text_two_columns(self, trio_feed_dir, capsys):
        assert main(self.base_args(trio_feed_dir, "report")) == 0
        out = capsys.readouterr().out
        assert "CVSS band" in out
        assert "threat tier" in out

    @pytest.mark.parametrize("command", ["score", "rank", "report"])
    def test_no_cves_path_exits_2(self, trio_feed_dir, monkeypatch, capsys, command):
        monkeypatch.delenv("VULNRANK_CVES", raising=False)
        assert main([command, "--labels", str(trio_feed_dir / "labels.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no cves path configured (flag --cves)\n"
        assert captured.out == ""

    def test_missing_labels_exit_5(self, trio_feed_dir, tmp_path, capsys):
        empty = tmp_path / "empty_labels.jsonl"
        empty.write_text("")
        code = main(
            [
                "score",
                "--cves", str(trio_feed_dir / "cves.jsonl"),
                "--labels", str(empty),
            ]
        )
        assert code == 5
        assert "CVE-2017-0143" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "rank", "report"])
    @pytest.mark.parametrize("other", ["labels", "refs", "context"])
    def test_cve_feed_error_wins_over_another_bad_feed(self, trio_feed_dir, capsys, command, other):
        # The CVE feed streams through scoring after the other feeds load,
        # yet its error is the one reported, as when it was read first.
        cves = trio_feed_dir / "cves.jsonl"
        cves.write_text(cves.read_text() + '{"id": "CVE-2020-0009"}\n')
        write_jsonl(trio_feed_dir / "context.jsonl", [])
        bad = trio_feed_dir / f"{other}.jsonl"
        bad.write_text("not json\n")
        args = self.base_args(trio_feed_dir, command) + ["--context", str(trio_feed_dir / "context.jsonl")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {cves}:4: missing field 'description'\n"

    @pytest.mark.parametrize("other", ["labels", "refs", "context"])
    def test_other_feed_error_when_the_cve_feed_is_good(self, trio_feed_dir, capsys, other):
        write_jsonl(trio_feed_dir / "context.jsonl", [])
        bad = trio_feed_dir / f"{other}.jsonl"
        bad.write_text("not json\n")
        args = self.base_args(trio_feed_dir, "score") + ["--context", str(trio_feed_dir / "context.jsonl")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:1: invalid JSON (") and err.count("\n") == 1, err

    def test_cve_feed_error_wins_over_missing_cvss_and_labels(self, trio_feed_dir, capsys):
        cves = trio_feed_dir / "cves.jsonl"
        rows = [{"id": "CVE-2020-0001", "description": "no score"}, *trio_cve_rows()]
        write_jsonl(cves, rows + [{"id": "CVE-2020-0002", "description": "unlabeled", "score": 5}])
        cves.write_text(cves.read_text() + "{\n")
        assert main(self.base_args(trio_feed_dir, "score")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cves}:6: invalid JSON (") and err.count("\n") == 1, err

    def test_missing_cvss_names_every_id_in_feed_order(self, trio_feed_dir, capsys):
        rows = [
            {"id": "CVE-2020-0003", "description": "unlabeled", "score": 5},
            {"id": "CVE-2020-0002", "description": "no score, unlabeled"},
            *trio_cve_rows(),
            {"id": "CVE-2020-0001", "description": "no score, unlabeled"},
        ]
        write_jsonl(trio_feed_dir / "cves.jsonl", rows)
        assert main(self.base_args(trio_feed_dir, "score")) == 5
        assert capsys.readouterr().err == (
            "error: no CVSS vector or score for: CVE-2020-0002, CVE-2020-0001\n"
        )

    def test_refs_warning_can_precede_the_cve_feed_error(self, trio_feed_dir):
        # refs load before the CVE feed streams, so their one warning is
        # printed before the CVE feed's error; the error is still last.
        cves = trio_feed_dir / "cves.jsonl"
        cves.write_text(cves.read_text() + "[]\n")
        refs = trio_feed_dir / "refs.jsonl"
        refs.write_text(refs.read_text() + '{"cve": "CVE-2017-0143", "url": "u", "source": "Blog"}\n')
        done = subprocess.run(
            [sys.executable, "-m", "vulnrank", *self.base_args(trio_feed_dir, "score")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"{refs}: 1 reference(s) with unknown source downgraded to Other\n"
            f"error: {cves}:4: expected an object per line\n"
        )

    @pytest.mark.parametrize("command", ["score", "rank", "report"])
    @pytest.mark.parametrize("case, code", [("ok", 0), ("bad feed line", 2), ("missing labels", 5)])
    @pytest.mark.parametrize("enabled_before", [True, False])
    def test_gc_state_restored(self, trio_feed_dir, capsys, command, case, code, enabled_before):
        # The collector is paused while the portfolio is loaded and
        # scored; however the command ends, it is left as it was found.
        if case == "bad feed line":
            with open(trio_feed_dir / "cves.jsonl", "a") as fh:
                fh.write("not json\n")
        elif case == "missing labels":
            (trio_feed_dir / "labels.jsonl").write_text("")
        was_enabled = gc.isenabled()
        (gc.enable if enabled_before else gc.disable)()
        try:
            assert main(self.base_args(trio_feed_dir, command)) == code
            assert gc.isenabled() is enabled_before
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert capsys.readouterr().err.count("error: ") == (code != 0)

    def test_output_file_written(self, trio_feed_dir, tmp_path):
        out_path = tmp_path / "queue.csv"
        code = main(
            self.base_args(trio_feed_dir, "rank")
            + ["--format", "csv", "--output", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().startswith("rank,cve_id,threat_score")

    def test_custom_tier_bounds(self, trio_feed_dir, capsys):
        assert main(
            self.base_args(trio_feed_dir, "report") + ["--tier-bounds", "100,50,10"]
        ) == 0
        out = capsys.readouterr().out
        assert ">=100" in out
        assert "50-100" in out
        assert "<10" in out

    def test_context_scales_scores(self, trio_feed_dir, capsys):
        write_jsonl(
            trio_feed_dir / "context.jsonl",
            [{"cve": "CVE-2019-11324", "exposure": "Public", "criticality": "High"}],
        )
        assert main(
            self.base_args(trio_feed_dir, "rank")
            + ["--context", str(trio_feed_dir / "context.jsonl"), "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        # (7.5+2) * 2.25 = 21.375
        assert ",21.375," in out

    def test_smallest_weights_render_without_exponent(self, trio_feed_dir, capsys):
        write_jsonl(
            trio_feed_dir / "context.jsonl",
            [{"cve": "CVE-2019-11324", "exposure": "Public", "criticality": "High"}],
        )
        config = trio_feed_dir / "config.json"
        weights = {"exposure": {"Public": 0.0001}, "criticality": {"High": 0.0001}}
        config.write_text(json.dumps({"env_weights": weights}))
        assert main(
            self.base_args(trio_feed_dir, "rank")
            + ["--context", str(trio_feed_dir / "context.jsonl"), "--config", str(config)]
            + ["--format", "csv"]
        ) == 0
        # (7.5+2) * 0.0001 * 0.0001, once printed as 9.5E-8 and 1E-8
        assert "3,CVE-2019-11324,0.000000095,7.5,High,2,0,0,0.00000001,SME" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bounds", ["1,2", "8,8", "x", "", "1e999999999,1", "64,0.00001", "0,-5"]
    )
    def test_bad_tier_bounds_exit_2(self, trio_feed_dir, capsys, bounds):
        assert main(self.base_args(trio_feed_dir, "report") + ["--tier-bounds", bounds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tier-bounds: ") and err.count("\n") == 1, err

    def test_label_store_directory_exits_2(self, trio_feed_dir, capsys):
        store = trio_feed_dir / "store"
        store.mkdir()
        args = self.base_args(trio_feed_dir, "score")
        args[args.index("--labels") + 1] = str(store)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(store) in err and err.count("\n") == 1, err
        assert not any(store.iterdir())
        assert not list(trio_feed_dir.rglob("*.tmp"))

    def test_negative_zero_score_renders_unsigned(self, trio_feed_dir, capsys):
        rows = trio_cve_rows()
        del rows[1]["vector"]
        rows[1]["score"] = -0.0
        write_jsonl(trio_feed_dir / "cves.jsonl", rows)
        assert main(self.base_args(trio_feed_dir, "score")) == 0
        out = capsys.readouterr().out
        assert '"cvss":"0.0"' in out and "-0.0" not in out

    @pytest.mark.parametrize("score", [True, 7.25])
    def test_bad_published_score_exits_2(self, trio_feed_dir, capsys, score):
        rows = trio_cve_rows()
        del rows[1]["vector"]
        rows[1]["score"] = score
        write_jsonl(trio_feed_dir / "cves.jsonl", rows)
        assert main(self.base_args(trio_feed_dir, "score")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trio_feed_dir / 'cves.jsonl'}:2: score ")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("cmd", ["score", "rank", "report"])
    def test_unwritable_output_exits_2(self, trio_feed_dir, capsys, cmd):
        work = trio_feed_dir / "work"
        out = work / "out"
        out.mkdir(parents=True)
        # The second target is a directory, refused before anything is written.
        for target in (work / "missing" / "out.txt", out):
            assert main(self.base_args(trio_feed_dir, cmd) + ["--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err
        assert [p.name for p in work.iterdir()] == ["out"]
        assert main(self.base_args(trio_feed_dir, cmd) + ["--output", str(out / "ok")]) == 0
        assert [p.name for p in out.iterdir()] == ["ok"]

    @pytest.mark.parametrize("cmd", ["score", "rank", "report"])
    def test_closed_stdout_exits_2_naming_stdout(self, trio_feed_dir, monkeypatch, capsys, cmd):
        # As when the reader of a pipe has exited: `vulnrank rank ... | head -1`.
        class ClosedPipe(io.BytesIO):
            def writelines(self, lines):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(ClosedPipe()))
        assert main(self.base_args(trio_feed_dir, cmd)) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


ROLES = ("output", "labels", "model")


def writing_args(feeds, role, path):
    """argv that writes ``path`` as score's --output, predict's --labels or
    train's model; for predict, the model it reads is trained first."""
    base = [
        "--cves", str(feeds / "cves.jsonl"), "--labels", str(feeds / "labels.jsonl"),
        "--model-utility", str(feeds / "utility_model.json"), "--min-df", "1",
    ]
    if role == "output":
        return ["score", *base, "--output", str(path)]
    if role == "model":
        return ["train", "--task", "utility", *base, "--model-utility", str(path)]
    assert main(["train", "--task", "utility", *base]) == 0
    return ["predict", "--task", "utility", *base, "--labels", str(path)]


class TestOutputFiles:
    """--output, the label store predict writes and model files share one
    writer, feeds.write_atomic."""

    @pytest.mark.parametrize("role", ROLES)
    def test_symlink_is_written_through(self, synth_feeds, capsys, role):
        # The link was replaced by a regular file, and its target kept.
        target, link = synth_feeds / "target", synth_feeds / "link"
        target.write_bytes(b"")
        link.symlink_to(target)
        assert main(writing_args(synth_feeds, role, link)) == 0
        assert "error:" not in capsys.readouterr().err
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.stat().st_size > 0
        assert not list(synth_feeds.rglob("*.tmp"))

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize("role", ROLES)
    def test_non_regular_target_exits_2(self, synth_feeds, capsys, role, kind):
        # A FIFO was replaced by a regular file, with exit 0.
        path = synth_feeds / "special"
        if kind == "fifo":
            os.mkfifo(path)
        else:
            path.mkdir()
        args = writing_args(synth_feeds, role, path)
        before = sorted(p.name for p in synth_feeds.iterdir())
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: not a regular file\n", err
        if kind == "fifo":
            assert stat.S_ISFIFO(path.stat().st_mode)
        else:
            assert path.is_dir() and not any(path.iterdir())
        assert sorted(p.name for p in synth_feeds.iterdir()) == before

    @pytest.mark.parametrize("role", ROLES)
    def test_existing_tmp_file_is_left_alone(self, synth_feeds, capsys, role):
        path, tmp = synth_feeds / "written", synth_feeds / "written.tmp"
        tmp.write_bytes(b"not ours\n")
        assert main(writing_args(synth_feeds, role, path)) == 0
        assert "error:" not in capsys.readouterr().err
        assert path.stat().st_size > 0 and tmp.read_bytes() == b"not ours\n"
        assert [p.name for p in synth_feeds.rglob("*.tmp")] == ["written.tmp"]

    @pytest.mark.parametrize("umask", [0o027, 0o002])
    @pytest.mark.parametrize("role", ROLES)
    def test_new_file_mode_follows_umask(self, synth_feeds, capsys, role, umask):
        path = synth_feeds / "written"
        args = writing_args(synth_feeds, role, path)
        old = os.umask(umask)
        try:
            assert main(args) == 0
        finally:
            os.umask(old)
        assert "error:" not in capsys.readouterr().err
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("role, mode", [("labels", 0o600), ("model", 0o640), ("output", 0o600)])
    def test_rewritten_file_keeps_its_mode(self, synth_feeds, capsys, role, mode):
        # A 0600 label store came back 0644 after one predict.
        path = synth_feeds / "written"
        path.write_bytes(b"")
        path.chmod(mode)
        args = writing_args(synth_feeds, role, path)
        old = os.umask(0o022)
        try:
            assert main(args) == 0
        finally:
            os.umask(old)
        assert "error:" not in capsys.readouterr().err
        assert path.stat().st_size > 0
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("role", ROLES)
    def test_error_names_the_path_given(self, synth_feeds, monkeypatch, capsys, role):
        # train once said "No such file or directory: 'nodir/m.json.tmp'".
        args = writing_args(synth_feeds, role, "nodir/written")
        monkeypatch.chdir(synth_feeds)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot write nodir/written: No such file or directory\n", err


def _interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt


class TestInterrupt:
    """SIGINT anywhere but at a label prompt ends a command with one
    ``error: interrupted`` line and exit 130. It once ended in a traceback
    and return code -2. An output being written is left as it was, since
    write_atomic renames the temporary file last and removes it on failure."""

    @staticmethod
    def files(directory) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    @staticmethod
    def main(args) -> int:
        # An interrupt that escapes main would stop the whole test run.
        try:
            return main(args)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main")

    @pytest.mark.parametrize("role", ROLES)
    def test_interrupted_write_leaves_the_output(self, synth_feeds, monkeypatch, capsys, role):
        # score's --output, predict's store or train's model, written in
        # full to the temporary file; SIGINT comes at its fsync. The file
        # holds one store line, so predict has labels to write.
        path = synth_feeds / "written"
        path.write_bytes(b'{"cve":"CVE-2020-0001","utility":1,"opportune":0,"labeler":"SME","ts":"2021-06-01T00:00:00Z"}\n')
        args = writing_args(synth_feeds, role, path)
        before = self.files(synth_feeds)
        capsys.readouterr()
        monkeypatch.setattr(os, "fsync", _interrupt)
        assert self.main(args) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert self.files(synth_feeds) == before

    @pytest.mark.parametrize("command", ["score", "rank", "report", "ingest"])
    def test_interrupted_read_writes_nothing(self, trio_feed_dir, monkeypatch, capsys, command):
        path = trio_feed_dir / "written"
        path.write_bytes(b"before\n")
        args = [command]
        for name in ("cves", "refs", "labels"):
            args += [f"--{name}", str(trio_feed_dir / f"{name}.jsonl")]
        if command != "ingest":
            args += ["--output", str(path)]
        before = self.files(trio_feed_dir)
        monkeypatch.setattr(cli, "load_exploit_refs", _interrupt)
        assert self.main(args) == 130
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: interrupted\n")
        assert self.files(trio_feed_dir) == before


# Runs the process entry point in a child, then prints what the command
# left: the variable, the process's thread count and whether numpy loaded.
ENTRY_PROBE = """
import os, sys
from vulnrank.__main__ import main
code = main()
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")), "numpy" in sys.modules)
sys.exit(code)
"""


class TestEntryPoint:
    """``python -m vulnrank`` and the ``vulnrank`` script start numpy's
    OpenBLAS with one thread unless OPENBLAS_NUM_THREADS is set, since
    vulnrank never uses OpenBLAS's worker threads; ``vulnrank.cli.main``,
    called in-process, leaves the environment as it is."""

    @staticmethod
    def train_args(feeds):
        return ["train", "--task", "utility", "--cves", str(feeds / "cves.jsonl"),
                "--labels", str(feeds / "labels.jsonl"), "--model-utility", str(feeds / "model.json")]

    def probe_train(self, feeds, blas_threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, *self.train_args(feeds)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1].split()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_train_loads_numpy_without_blas_worker_threads(self, synth_feeds):
        assert self.probe_train(synth_feeds, None) == ["1", "1", "True"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_a_value_the_user_set_is_kept(self, synth_feeds):
        variable, _, numpy_loaded = self.probe_train(synth_feeds, "2")
        assert (variable, numpy_loaded) == ("2", "True")

    def test_cli_main_leaves_the_environment_as_it_is(self, synth_feeds, monkeypatch, capsys):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert main(self.train_args(synth_feeds)) == 0
        assert dict(os.environ) == before

    def test_the_console_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"vulnrank": "vulnrank.__main__:main"}


UTILITY_PROMPT ="utility [0/1/2, s=skip, q=quit]: "
OPPORTUNE_PROMPT = "opportune [0/1, s=skip, q=quit]: "


class TestLabelLoop:
    def label_args(self, feed_dir, labels_name="new_labels.jsonl"):
        return [
            "label",
            "--cves", str(feed_dir / "cves.jsonl"),
            "--labels", str(feed_dir / labels_name),
            "--timestamp", "2024-05-01T00:00:00Z",
        ]

    def run_with_keys(self, monkeypatch, keys):
        feed = iter(keys)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))

    def prompts_for(self, monkeypatch, keys) -> list[str]:
        """Answer with ``keys`` and return every prompt ``input`` was given."""
        feed, prompts = iter(keys), []

        def answer(prompt=""):
            prompts.append(prompt)
            return next(feed)

        monkeypatch.setattr("builtins.input", answer)
        return prompts

    def test_prompts_are_byte_exact(self, trio_feed_dir, monkeypatch, capsys):
        prompts = self.prompts_for(monkeypatch, ["2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert prompts == [UTILITY_PROMPT, OPPORTUNE_PROMPT, UTILITY_PROMPT]

    def test_quit_at_opportune_saves_nothing(self, trio_feed_dir, monkeypatch, capsys):
        prompts = self.prompts_for(monkeypatch, ["2", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert prompts == [UTILITY_PROMPT, OPPORTUNE_PROMPT]
        assert "saved 0 label(s)" in capsys.readouterr().out
        assert not (trio_feed_dir / "new_labels.jsonl").exists()

    def test_skip_at_opportune_moves_on(self, trio_feed_dir, monkeypatch, capsys):
        prompts = self.prompts_for(monkeypatch, ["2", "s", "0", "0", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert prompts == [UTILITY_PROMPT, OPPORTUNE_PROMPT] * 2 + [UTILITY_PROMPT]
        ((cve_id, judgment, _),) = read_store(trio_feed_dir / "new_labels.jsonl")
        assert (cve_id, judgment.utility, judgment.opportune) == ("CVE-2019-11324", 0, 0)

    def test_invalid_opportune_reprompts(self, trio_feed_dir, monkeypatch, capsys):
        prompts = self.prompts_for(monkeypatch, ["2", "5", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert prompts == [UTILITY_PROMPT, OPPORTUNE_PROMPT, OPPORTUNE_PROMPT, UTILITY_PROMPT]
        assert "  enter one of: 0, 1, q, s\n" in capsys.readouterr().out
        ((_, judgment, _),) = read_store(trio_feed_dir / "new_labels.jsonl")
        assert (judgment.utility, judgment.opportune) == (2, 1)

    def test_records_labels(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        ((_, judgment, _),) = read_store(trio_feed_dir / "new_labels.jsonl")
        assert judgment is Judgment(2, 1, Labeler.SME)

    def test_fifo_store_exits_2_before_reading(self, trio_feed_dir, monkeypatch, capsys):
        # label reads the store, then writes it; reading a FIFO would block.
        store = trio_feed_dir / "store"
        os.mkfifo(store)
        self.run_with_keys(monkeypatch, [])
        assert main(self.label_args(trio_feed_dir, "store")) == 2
        assert capsys.readouterr().err == f"error: cannot write {store}: not a regular file\n"
        assert stat.S_ISFIFO(store.stat().st_mode)

    @pytest.mark.parametrize("signum, code", [
        (signal.SIGINT, 130), (signal.SIGTERM, 143), (signal.SIGHUP, 129),
    ], ids=["SIGINT", "SIGTERM", "SIGHUP"])
    def test_stop_signal_at_a_prompt_saves_the_answers(self, trio_feed_dir, signum, code):
        # Two CVEs are answered on a pipe, then the signal comes while the
        # third CVE's prompt waits. SIGINT once ended in a traceback, return
        # code -2 and no store; SIGTERM and SIGHUP killed the process and
        # lost every answer.
        child = subprocess.Popen(
            [sys.executable, "-m", "vulnrank", *self.label_args(trio_feed_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            child.stdin.write(b"2\n1\n0\n0\n")
            child.stdin.flush()
            out, deadline = b"", time.monotonic() + 60
            while out.count(UTILITY_PROMPT.encode()) < 3:
                ready, _, _ = select.select([child.stdout], [], [], max(deadline - time.monotonic(), 0))
                chunk = os.read(child.stdout.fileno(), 4096) if ready else b""
                assert chunk, out
                out += chunk
            child.send_signal(signum)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        store = trio_feed_dir / "new_labels.jsonl"
        assert child.returncode == code
        assert err.decode() == f"interrupted: saved 2 label(s) to {store}\n"
        assert store.read_bytes() == (
            b'{"cve":"CVE-2017-0143","utility":2,"opportune":1,"labeler":"SME","ts":"2024-05-01T00:00:00Z"}\n'
            b'{"cve":"CVE-2019-11324","utility":0,"opportune":0,"labeler":"SME","ts":"2024-05-01T00:00:00Z"}\n'
        )

    def test_stop_signals_are_handled_only_around_the_prompts(self, trio_feed_dir, monkeypatch, capsys):
        # A signal found ignored stays ignored, and every handler found is
        # back once the prompts are over.
        signums = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
        previous = signal.signal(signal.SIGHUP, signal.SIG_IGN)
        try:
            before = [signal.getsignal(signum) for signum in signums]
            during = []

            def answer(prompt=""):
                during.append([signal.getsignal(signum) for signum in signums])
                return "q"

            monkeypatch.setattr("builtins.input", answer)
            assert main(self.label_args(trio_feed_dir)) == 0
            assert [signal.getsignal(signum) for signum in signums] == before
        finally:
            signal.signal(signal.SIGHUP, previous)
        ((on_int, on_term, on_hup),) = during
        assert on_int is on_term and on_int not in before
        assert on_hup is signal.SIG_IGN

    def test_a_session_off_the_main_thread_runs(self, trio_feed_dir, monkeypatch, capsys):
        # Only the main thread may set a signal handler; elsewhere the
        # prompts run with the handlers as they are.
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(self.label_args(trio_feed_dir))))
        worker.start()
        worker.join(60)
        assert not worker.is_alive() and codes == [0]
        assert len(read_store(trio_feed_dir / "new_labels.jsonl")) == 1

    def test_invalid_entry_reprompts(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["7", "2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert "enter one of" in capsys.readouterr().out
        labels = read_store(trio_feed_dir / "new_labels.jsonl")
        assert len(labels) == 1

    def test_session_transcript_and_store(self, tmp_path, monkeypatch, capsys):
        # Five CVEs out of id order, one with an SME row and one with a Model
        # row: the session walks the other four in id order.
        new = [
            {"id": "CVE-2021-44228", "description": "JNDI lookups in log messages load remote code"},
            {"id": "CVE-2018-0001", "description": "crafted packet crashes the daemon"},
        ]
        write_jsonl(tmp_path / "cves.jsonl", [new[0], *reversed(trio_cve_rows()), new[1]])
        smb, _, pump = trio_label_rows()
        store = write_jsonl(tmp_path / "new_labels.jsonl", [smb, {**pump, "labeler": "Model"}])
        prompts = self.prompts_for(monkeypatch, ["2", "1", "s", "0", "7", "1", "q"])
        assert main(self.label_args(tmp_path)) == 0
        described = {row["id"]: row["description"] for row in trio_cve_rows()}
        assert capsys.readouterr().out == (
            "\nCVE-2018-0001: crafted packet crashes the daemon\n"
            f"\nCVE-2019-11324: {described['CVE-2019-11324']}\n"
            f"\nCVE-2020-27256: {described['CVE-2020-27256']}\n"
            "  enter one of: 0, 1, q, s\n"
            "\nCVE-2021-44228: JNDI lookups in log messages load remote code\n"
            f"\nsaved 2 label(s) to {store}\n"
        )
        assert prompts == [
            UTILITY_PROMPT, OPPORTUNE_PROMPT, UTILITY_PROMPT, UTILITY_PROMPT, OPPORTUNE_PROMPT,
            OPPORTUNE_PROMPT, UTILITY_PROMPT,
        ]
        assert store.read_bytes() == (
            b'{"cve":"CVE-2017-0143","utility":2,"opportune":0,"labeler":"SME","ts":"2021-06-01T00:00:00Z"}\n'
            b'{"cve":"CVE-2018-0001","utility":2,"opportune":1,"labeler":"SME","ts":"2024-05-01T00:00:00Z"}\n'
            b'{"cve":"CVE-2020-27256","utility":0,"opportune":1,"labeler":"SME","ts":"2024-05-01T00:00:00Z"}\n'
        )

    @pytest.mark.parametrize(
        "bad", [{"cves"}, {"store"}, {"cves", "store"}], ids=["cves", "store", "both"]
    )
    def test_a_bad_cve_feed_wins_over_a_bad_store(self, trio_feed_dir, monkeypatch, capsys, bad):
        # The store is read before the CVE feed streams; a bad feed line still wins.
        cves, store = trio_feed_dir / "cves.jsonl", trio_feed_dir / "labels.jsonl"
        if "cves" in bad:
            cves.write_text(cves.read_text() + "not json\n")
        if "store" in bad:
            store.write_text("not json\n")
        self.run_with_keys(monkeypatch, [])
        assert main(self.label_args(trio_feed_dir, "labels.jsonl")) == 2
        err = capsys.readouterr().err
        where = f"{cves}:4: " if "cves" in bad else f"{store}:1: "
        assert err.startswith(f"error: {where}invalid JSON") and err.count("\n") == 1, err

    def test_immediate_quit_writes_nothing(self, trio_feed_dir, monkeypatch):
        self.run_with_keys(monkeypatch, ["q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert not (trio_feed_dir / "new_labels.jsonl").exists()

    def test_eof_quits_and_saves_nothing(self, trio_feed_dir, monkeypatch, capsys):
        def eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", eof)
        assert main(self.label_args(trio_feed_dir)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "saved 0 label(s)" in captured.out
        assert not (trio_feed_dir / "new_labels.jsonl").exists()

    def test_skip_moves_on(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["s", "0", "0", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        labels = read_store(trio_feed_dir / "new_labels.jsonl")
        assert len(labels) == 1
        assert labels[0][0] == "CVE-2019-11324"  # second in id order

    @pytest.mark.parametrize(
        "stamp",
        [
            "notatime", "2024-13-01T00:00:00Z", "", "9999-12-31T23:59:59-01:00",
            "0001-01-01T00:00:00+01:00",
            # argparse read this as an option and printed its usage block.
            "-2024-01-01T00:00:00Z",
        ],
    )
    def test_bad_timestamp_exits_2(self, trio_feed_dir, monkeypatch, capsys, stamp):
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        args = self.label_args(trio_feed_dir)
        args[args.index("--timestamp") + 1] = stamp
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --timestamp: ") and err.count("\n") == 1, err
        assert not (trio_feed_dir / "new_labels.jsonl").exists()

    @pytest.mark.parametrize(
        "stamp", ["2024-05-01T00:00:00Z", "2024-05-01T00:00:00", "2024-05-01T02:00:00+02:00"]
    )
    def test_timestamp_forms_read_as_utc(self, trio_feed_dir, monkeypatch, stamp):
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        args = self.label_args(trio_feed_dir)
        args[args.index("--timestamp") + 1] = stamp
        assert main(args) == 0
        ((_, _, ts),) = read_store(trio_feed_dir / "new_labels.jsonl")
        assert format_ts(ts) == "2024-05-01T00:00:00Z"

    def test_store_year_below_1000_round_trips(self, trio_feed_dir, monkeypatch, capsys):
        store = write_jsonl(
            trio_feed_dir / "new_labels.jsonl", trio_label_rows("Model", "0999-06-01T00:00:00Z")
        )
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert store.read_text().count('"ts":"0999-06-01T00:00:00Z"') == 2
        assert main(["score", "--cves", str(trio_feed_dir / "cves.jsonl"), "--labels", str(store)]) == 0

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_store_stamp_outside_utc_years_exits_2(self, trio_feed_dir, monkeypatch, capsys, stamp):
        store = write_jsonl(trio_feed_dir / "new_labels.jsonl", trio_label_rows("Model", stamp))
        before = store.read_bytes()
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 2
        assert capsys.readouterr().err == f"error: {store}:1: ts '{stamp}' is outside years 1-9999 in UTC\n"
        assert store.read_bytes() == before
