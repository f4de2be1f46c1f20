"""End-to-end CLI behavior: commands, exit codes, determinism."""

import argparse
import gc
import json
import re
from dataclasses import fields
from decimal import Decimal

import pytest

import vulnrank.cli as cli
from vulnrank import feeds
from vulnrank.cli import CONFIG_KEYS, RunConfig, build_config, main
from vulnrank.feeds import Labeler, format_ts, load_labels, save_labels
from vulnrank.scoring import DEFAULT_ENV_WEIGHTS
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed

from conftest import trio_cve_rows, write_jsonl


def make_args(**overrides):
    base = {
        "config": None, "cves": None, "refs": None, "context": None, "labels": None,
        "model_utility": None, "model_opportune": None, "output": None, "format": None,
        "seed": None, "min_df": None, "epochs": None, "reg_lambda": None, "stratified": None,
        "tier_bounds": None,
    }
    base.update(overrides)
    return argparse.Namespace(**base)


def trio_score_args(feeds):
    return ["score", "--cves", str(feeds / "cves.jsonl"), "--labels", str(feeds / "labels.jsonl")]


@pytest.fixture
def synth_feeds(tmp_path):
    """A small but trainable synthetic corpus written as feed files."""
    corpus = synth_labeled_corpus(n=200, seed=7)
    write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus, seed=7))
    save_labels(tmp_path / "labels.jsonl", corpus)
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
        from vulnrank.feeds import Exposure

        assert config.env_weights.exposure[Exposure.PUBLIC] == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sedd": 7}))
        assert main(["ingest", "--config", str(path)]) == 2

    def test_every_run_config_field_has_one_parser(self):
        assert list(CONFIG_KEYS) == [f.name for f in fields(RunConfig)]

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
        "doc, key, expected",
        [
            ({"stratified": "no"}, "stratified", False),
            ({"stratified": " Yes "}, "stratified", True),
            ({"stratified": False}, "stratified", False),
            ({"seed": "7"}, "seed", 7),
            ({"reg_lambda": 1}, "reg_lambda", 1.0),
            ({"tier_bounds": "100,50"}, "tier_bounds", (Decimal(100), Decimal(50))),
            ({"tier_bounds": [100, "50.5"]}, "tier_bounds", (Decimal(100), Decimal("50.5"))),
            ({"format": "structured"}, "format", "structured"),
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
        save_labels(tmp_path / "labels.jsonl", corpus)
        assert main(self.train_args(tmp_path)) == 3

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
            # numpy's RandomState takes seeds in [0, 2**32 - 1]; outside
            # it, a ValueError traceback and exit 1.
            ({"seed": -1}, {}),
            ({}, {"VULNRANK_SEED": str(2**32)}),
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
        corpus = [ex for ex in synth_labeled_corpus(n=200, seed=3) if ex.opportune == 0][:40]
        write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus))
        save_labels(tmp_path / "labels.jsonl", corpus)
        assert main(self.train_args(tmp_path, task="opportune", min_df=1)) == 0
        captured = capsys.readouterr()
        assert "constant" in captured.err
        assert (tmp_path / "opportune_model.json").exists()


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
        save_labels(tmp_path / "portfolio_labels.jsonl", corpus[:labeled_count])
        return tmp_path

    def test_predicts_only_unlabeled(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path, labeled_count=11)
        assert main(self.predict_args(trained, portfolio)) == 0
        labels = load_labels(portfolio / "portfolio_labels.jsonl")
        model_labels = [ex for ex in labels if ex.labeler is Labeler.MODEL]
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
        sme_before = {
            ex.cve_id: ex for ex in load_labels(portfolio / "portfolio_labels.jsonl")
        }
        assert main(self.predict_args(trained, portfolio)) == 0
        after = {ex.cve_id: ex for ex in load_labels(portfolio / "portfolio_labels.jsonl")}
        for cve_id, ex in sme_before.items():
            assert after[cve_id] == ex
            assert after[cve_id].labeler is Labeler.SME

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
        labels = load_labels(portfolio / "portfolio_labels.jsonl")
        assert len(labels) == 12
        assert all(ex.labeler is Labeler.MODEL for ex in labels)

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
        loads, merges = [], []
        real_load, real_merge = cli.load_labels, cli.merge_labels

        def spy_load(p):
            loads.append(p)
            return real_load(p)

        def spy_merge(examples):
            merges.append(list(examples))
            return real_merge(merges[-1])

        monkeypatch.setattr(cli, "load_labels", spy_load)
        monkeypatch.setattr(feeds, "load_labels", spy_load)
        monkeypatch.setattr(cli, "merge_labels", spy_merge)
        for task in ("utility", "opportune"):
            expected = tmp_path / "expected.jsonl"
            expected.unlink(missing_ok=True)
            if path.exists():
                expected.write_bytes(path.read_bytes())
            loads.clear()
            merges.clear()
            assert main(self.predict_args(trained, portfolio, task=task)) == 0
            assert len(loads) == (1 if expected.exists() else 0)
            # The last merge takes the stored entries, merged, then the predictions.
            stored = len(real_merge(merges[0])) if len(merges) == 2 else 0
            fresh = merges[-1][stored:]
            assert len(fresh) == len(ids) - (3 if store == "superseded" else 0)
            save_labels(expected, fresh)
            assert path.read_bytes() == expected.read_bytes()

    def test_version_mismatch_exits_4(self, trained, tmp_path):
        portfolio = self.write_portfolio(tmp_path)
        model_path = trained / "utility_model.json"
        doc = model_path.read_text().replace('"format_version": 1', '"format_version": 99')
        model_path.write_text(doc)
        assert main(self.predict_args(trained, portfolio)) == 4

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: "{truncated",
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "weights"}),
            lambda doc: json.dumps({**doc, "weights": [row[:-1] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "bias": doc["bias"] + [0.0]}),
            lambda doc: json.dumps({**doc, "classes": ["a", "b", "c"]}),
            lambda doc: json.dumps({**doc, "vocabulary": {**doc["vocabulary"], "num_documents": -1}}),
        ],
        ids=[
            "corrupt-json", "missing-weights", "weight-shape", "bias-length", "string-classes",
            "negative-documents",
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

    def test_report_text_two_columns(self, trio_feed_dir, capsys):
        assert main(self.base_args(trio_feed_dir, "report")) == 0
        out = capsys.readouterr().out
        assert "CVSS band" in out
        assert "threat tier" in out

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
        # The second target is a directory: the temporary file is written,
        # then cannot replace it.
        for target in (work / "missing" / "out.txt", out):
            assert main(self.base_args(trio_feed_dir, cmd) + ["--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1, err
        assert [p.name for p in work.iterdir()] == ["out"]
        assert main(self.base_args(trio_feed_dir, cmd) + ["--output", str(out / "ok")]) == 0
        assert [p.name for p in out.iterdir()] == ["ok"]


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

    def test_records_labels(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        labels = load_labels(trio_feed_dir / "new_labels.jsonl")
        assert len(labels) == 1
        assert (labels[0].utility, labels[0].opportune) == (2, 1)
        assert labels[0].labeler is Labeler.SME

    def test_invalid_entry_reprompts(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["7", "2", "1", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert "enter one of" in capsys.readouterr().out
        labels = load_labels(trio_feed_dir / "new_labels.jsonl")
        assert len(labels) == 1

    def test_immediate_quit_writes_nothing(self, trio_feed_dir, monkeypatch):
        self.run_with_keys(monkeypatch, ["q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        assert not (trio_feed_dir / "new_labels.jsonl").exists()

    def test_skip_moves_on(self, trio_feed_dir, monkeypatch, capsys):
        self.run_with_keys(monkeypatch, ["s", "0", "0", "q"])
        assert main(self.label_args(trio_feed_dir)) == 0
        labels = load_labels(trio_feed_dir / "new_labels.jsonl")
        assert len(labels) == 1
        assert labels[0].cve_id == "CVE-2019-11324"  # second in id order

    @pytest.mark.parametrize("stamp", ["notatime", "2024-13-01T00:00:00Z", ""])
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
        (label,) = load_labels(trio_feed_dir / "new_labels.jsonl")
        assert format_ts(label.labeled_at) == "2024-05-01T00:00:00Z"
