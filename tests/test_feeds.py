"""Feed loading, validation, label-store round trips, and the one writer."""

import errno
import logging
import os
import re
import stat
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vulnrank import feeds
from vulnrank.feeds import (
    CVE_ID_RE,
    Criticality,
    CveRecord,
    DuplicateId,
    Exposure,
    InvalidCategory,
    IoError,
    Judgment,
    Labeler,
    ParseError,
    SchemaError,
    _label_lines,
    attach_descriptions,
    compact_json,
    format_ts,
    iter_cve_records,
    load_asset_context,
    load_exploit_refs,
    load_judgments,
    parse_ts,
    save_labels,
    write_atomic,
    write_labels,
)

from vulnrank.cli import main
from vulnrank.scoring import score_portfolio

from conftest import WORKED_TRIO, read_store, trio_cve_rows, trio_ref_rows, write_jsonl

SRC = Path(feeds.__file__).resolve().parents[1]


def ts(text):
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


def judgments_and_stamps(rows):
    """What ``write_labels`` takes for ``(cve_id, judgment, ts)`` rows, one per id."""
    rows = list(rows)
    return {cve_id: j for cve_id, j, _ in rows}, {cve_id: t for cve_id, _, t in rows}


# Ids the rule "CVE-, four ASCII digits, -, four or more ASCII digits, as
# the whole string" rejects although \d and $ would let them through.
BAD_IDS = {
    "trailing newline": "CVE-2020-0002\n",
    "Arabic-Indic digits": "CVE-\u0662\u0660\u0662\u0660-\u0660\u0660\u0660\u0662",
}


def assert_bad_id_exits_2(tmp_path, capsys, flag, key, row, bad_id):
    """Line 2 of the --flag feed carries ``bad_id``: ingest exits 2 with
    one error line naming that line."""
    cves = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001", "description": "a"}])
    argv = ["ingest", "--cves", str(cves)]
    path = cves
    if flag != "cves":
        path = tmp_path / f"{flag}.jsonl"
        argv += [f"--{flag}", str(path)]
    write_jsonl(path, [dict(row, **{key: "CVE-2020-0001"}), dict(row, **{key: bad_id})])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1, err


class TestLoadCveRecords:
    def test_worked_trio(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())
        records = list(iter_cve_records(path))
        assert [r.cve_id for r in records] == [rec["id"] for rec in WORKED_TRIO]
        assert [r.description for r in records] == [rec["description"] for rec in WORKED_TRIO]
        assert all(r.vector is not None for r in records)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text("")
        assert list(iter_cve_records(path)) == []

    def test_duplicate_id(self, tmp_path):
        rows = [
            {"id": "CVE-2020-0001", "description": "a", "score": 5.0},
            {"id": "CVE-2020-0001", "description": "b", "score": 5.0},
        ]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(DuplicateId, match="CVE-2020-0001"):
            list(iter_cve_records(path))

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text('{"id": "CVE-2020-0001", "description": "a"}\nnot json\n')
        with pytest.raises(ParseError, match=":2"):
            list(iter_cve_records(path))

    def test_missing_field_named(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001"}])
        with pytest.raises(SchemaError, match="description"):
            list(iter_cve_records(path))

    def test_bad_cve_id(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-20-1", "description": "a"}])
        with pytest.raises(SchemaError, match="CVE-20-1"):
            list(iter_cve_records(path))

    def test_bad_vector_wrapped(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "vector": "AV:N/AC:L"}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="vector"):
            list(iter_cve_records(path))

    def test_score_out_of_range(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "score": 11.0}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="11.0"):
            list(iter_cve_records(path))

    @pytest.mark.parametrize(
        "score,reason",
        [(True, "not a number"), (False, "not a number"), ("7.5", "not a number"),
         (7.25, "more than one decimal"), (0.05, "more than one decimal"),
         (1e-7, "more than one decimal")],
    )
    def test_score_rejected_with_line(self, tmp_path, score, reason):
        rows = [{"id": "CVE-2020-0001", "description": "a", "score": 5.0},
                {"id": "CVE-2020-0002", "description": "b", "score": score}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match=f"cves.jsonl:2: score .* {reason}"):
            list(iter_cve_records(path))

    @pytest.mark.parametrize(
        "score,value",
        [(0.3, "0.3"), (7, "7.0"), (0, "0.0"), (-0.0, "0.0"), (10, "10.0"), (9.9, "9.9"), (8, "8.0"),
         (8.0, "8.0")],
    )
    def test_one_decimal_score_accepted(self, tmp_path, score, value):
        rows = [{"id": "CVE-2020-0001", "description": "a", "score": score}]
        (record,) = iter_cve_records(write_jsonl(tmp_path / "cves.jsonl", rows))
        assert record.published_score == Decimal(value)
        # One place, whichever form the feed used: 8, 8.0 and 10 included.
        assert str(record.published_score) == value

    def test_non_string_vector_rejected(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "vector": ["AV:N"]}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="cves.jsonl:1: vector must be a string"):
            list(iter_cve_records(path))

    def test_record_without_vector_or_score_loads(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001", "description": "a"}])
        (record,) = iter_cve_records(path)
        assert not record.scoring_eligible

    def test_deterministic(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())
        assert list(iter_cve_records(path)) == list(iter_cve_records(path))

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"description": "b", "score": 5.0}
        assert_bad_id_exits_2(tmp_path, capsys, "cves", "id", row, bad_id)

    @pytest.mark.parametrize(
        "references",
        [None, 3, 2.5, True, "x", {}, [None],
         [{"url": "https://x/1", "source": "ExploitDB", "exploit": True}]],
        ids=repr,
    )
    def test_references_key_is_ignored(self, tmp_path, references):
        # Exploit references are read only from the --refs feed.
        row = {"id": "CVE-2020-0002", "description": "b", "score": 5.0}
        plain = write_jsonl(tmp_path / "plain.jsonl", [row])
        inline = write_jsonl(tmp_path / "inline.jsonl", [{**row, "references": references}])
        assert list(iter_cve_records(inline)) == list(iter_cve_records(plain))


def wx_of(refs):
    """The wx map the CLI builds from the loader's result."""
    return {cve_id: sum(urls.values()) for cve_id, urls in refs.items()}


class TestLoadExploitRefs:
    def test_wx_26_group(self, tmp_path):
        path = write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows())
        refs = load_exploit_refs(path)
        assert len(refs["CVE-2017-0143"]) == 26
        assert len(refs["CVE-2019-11324"]) == 2
        assert "CVE-2020-27256" not in refs
        assert wx_of(refs) == {"CVE-2017-0143": 26, "CVE-2019-11324": 2}

    def test_cve_missing_from_feed_scores_wx_0(self, tmp_path):
        refs = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows()))
        record = CveRecord("CVE-2020-27256", "text", published_score=Decimal("6.8"))
        labels = {"CVE-2020-27256": Judgment(0, 0, Labeler.SME)}
        (scored,) = score_portfolio([record], wx_of(refs), labels)
        assert scored.wx == 0
        assert scored.threat_score == Decimal("6.8")

    def test_same_url_deduplicated(self, tmp_path):
        row = {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "GitHub", "exploit": True}
        path = write_jsonl(tmp_path / "refs.jsonl", [row, dict(row)])
        assert load_exploit_refs(path) == {"CVE-2020-0001": {"https://x/1": True}}

    def test_non_exploit_reference_retained(self, tmp_path):
        # Kept, so ingest counts it, but it adds nothing to wx.
        rows = [
            {"cve": "CVE-2020-0001", "url": f"https://x/{n}", "source": "Other", "exploit": n < 3}
            for n in range(5)
        ]
        refs = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        assert refs == {"CVE-2020-0001": {f"https://x/{n}": n < 3 for n in range(5)}}
        assert wx_of(refs) == {"CVE-2020-0001": 3}

    @pytest.mark.parametrize("flags, expected", [((False, True), 0), ((True, False), 1)])
    def test_first_line_for_a_url_decides_its_flag(self, tmp_path, flags, expected):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "GitHub", "exploit": flag}
            for flag in flags
        ]
        refs = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        assert refs == {"CVE-2020-0001": {"https://x/1": flags[0]}}
        assert wx_of(refs) == {"CVE-2020-0001": expected}

    def test_unknown_source_downgraded_with_warning(self, tmp_path, caplog):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "PacketStorm", "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/2", "source": "PacketStorm", "exploit": True},
        ]
        path = write_jsonl(tmp_path / "refs.jsonl", rows)
        with caplog.at_level(logging.WARNING, logger="vulnrank.feeds"):
            refs = load_exploit_refs(path)
        assert refs == {"CVE-2020-0001": {"https://x/1": True, "https://x/2": True}}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: 2 reference(s) with unknown source downgraded to Other"
        ]

    def test_non_string_source_downgraded_and_counted(self, tmp_path, caplog):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": ["ExploitDB"], "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/2", "source": {"GitHub": 1}, "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/3", "source": None, "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/4", "source": "GitHub", "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/5", "exploit": True},
        ]
        path = write_jsonl(tmp_path / "refs.jsonl", rows)
        with caplog.at_level(logging.WARNING, logger="vulnrank.feeds"):
            refs = load_exploit_refs(path)
        assert refs == {"CVE-2020-0001": {f"https://x/{n}": True for n in range(1, 6)}}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: 3 reference(s) with unknown source downgraded to Other"
        ]

    def test_exploit_flag_defaults_false(self, tmp_path):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "ExploitDB"},
            {"cve": "CVE-2020-0001", "url": "https://x/2", "source": "ExploitDB", "exploit": None},
        ]
        refs = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        assert refs == {"CVE-2020-0001": {"https://x/1": False, "https://x/2": False}}

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, 1.0, [], [0], {}], ids=repr)
    def test_exploit_flag_not_bool_exits_2(self, tmp_path, capsys, flag):
        # "false" and 1 are truthy, yet only JSON true may count toward wx.
        cves = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001", "description": "a"}])
        row = {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "GitHub"}
        refs = write_jsonl(tmp_path / "refs.jsonl", [dict(row, exploit=True), dict(row, exploit=flag)])
        assert main(["ingest", "--cves", str(cves), "--refs", str(refs)]) == 2
        assert capsys.readouterr().err == f"error: {refs}:2: exploit must be true or false\n"

    def test_empty_url_rejected(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "url": "", "source": "Other"}]
        path = write_jsonl(tmp_path / "refs.jsonl", rows)
        with pytest.raises(SchemaError, match="url"):
            load_exploit_refs(path)

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"url": "https://x/1", "source": "GitHub", "exploit": True}
        assert_bad_id_exits_2(tmp_path, capsys, "refs", "cve", row, bad_id)


class TestLabels:
    def example(self, cve="CVE-2020-0001", utility=1, opportune=0, labeler=Labeler.SME, when="2021-01-01T00:00:00"):
        return cve, Judgment(utility, opportune, labeler), ts(when)

    def test_round_trip(self, tmp_path):
        examples = [self.example(), self.example(cve="CVE-2020-0002", utility=2, opportune=1)]
        path = tmp_path / "labels.jsonl"
        save_labels(path, examples)
        assert sorted(read_store(path)) == examples

    def test_save_is_deterministic(self, tmp_path):
        examples = [self.example(cve=f"CVE-2020-{n:04d}") for n in range(9, 0, -1)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_labels(a, examples)
        save_labels(b, list(reversed(examples)))
        assert a.read_bytes() == b.read_bytes()

    def test_write_labels_formats_every_row_stamp(self, tmp_path):
        # Stamps format once per distinct instant: equal instants in other
        # offsets share one string, other instants of one day do not.
        stamps = ["2021-06-01T00:00:00+00:00", "2021-06-01T10:00:00+00:00", "2021-06-01T12:00:00+02:00",
                  "2021-06-01T23:30:00-05:00", "2021-06-01T10:00:00+00:00"]
        rows = [
            (f"CVE-2020-{n:04d}", Judgment(n % 3, n % 2, Labeler.MODEL), datetime.fromisoformat(stamp))
            for n, stamp in enumerate(stamps, start=1)
        ]
        path = tmp_path / "labels.jsonl"
        write_labels(path, *judgments_and_stamps(reversed(rows)))
        assert path.read_text().splitlines() == [
            compact_json({"cve": cve_id, "utility": j.utility, "opportune": j.opportune,
                          "labeler": "Model", "ts": format_ts(t)})
            for cve_id, j, t in rows
        ]
        loaded = [t for _, _, t in read_store(path)]
        assert loaded == [t for _, _, t in rows]

    def test_write_labels_in_chunks_writes_the_same_bytes(self, tmp_path, monkeypatch):
        store = judgments_and_stamps([self.example(cve=f"CVE-2020-{n:04d}") for n in range(1, 6)])
        whole, chunked = tmp_path / "whole.jsonl", tmp_path / "chunked.jsonl"
        write_labels(whole, *store)
        monkeypatch.setattr("vulnrank.feeds.CHUNK_LINES", 2)  # three chunks
        write_labels(chunked, *store)
        assert chunked.read_bytes() == whole.read_bytes()
        assert len(whole.read_text().splitlines()) == 5

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()

        def fail(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr("vulnrank.feeds.os.replace", fail)
        with pytest.raises(IoError, match=f"^cannot write {re.escape(str(path))}: rename refused$"):
            save_labels(path, [self.example(cve="CVE-2020-0002")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    def test_fifo_store_raises_before_it_is_read(self, tmp_path):
        # save_labels read the store before the target was checked, and
        # reading a FIFO blocks until some process opens it for writing.
        store = tmp_path / "store"
        os.mkfifo(store)
        child = (
            "import sys\n"
            "from vulnrank.feeds import IoError, save_labels\n"
            "from vulnrank.synth import synth_labeled_corpus\n"
            "try:\n"
            "    save_labels(sys.argv[1], [row for _, row in synth_labeled_corpus(n=2, seed=1)])\n"
            "except IoError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(store)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"cannot write {store}: not a regular file\n"
        assert stat.S_ISFIFO(store.stat().st_mode)

    @pytest.mark.parametrize(
        "bad",
        ["", "cve-2020-0003", "CVE-2020-003", "CVE-2020-0003\n", 'CVE-2020-0003"', "CVE-2020-0003\\",
         "CVE-\uff12\uff10\uff12\uff10-0003", 20200003, None],
    )
    @pytest.mark.parametrize("writer", ["write_labels", "save_labels"])
    def test_non_cve_id_refused_before_the_store_is_opened(self, tmp_path, bad, writer):
        # Lines go out unescaped, so every id is checked first; the bad one
        # sorts or iterates last, after ids that would have been written.
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()
        rows = [self.example(cve="CVE-2020-0002"), self.example(cve=bad)]
        with pytest.raises(ValueError, match="not a CVE id$"):
            if writer == "write_labels":
                write_labels(path, *judgments_and_stamps(rows))
            else:
                save_labels(path, rows)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    @pytest.mark.parametrize(
        "bad", [(2, 1, Labeler.SME), None, {"utility": 2, "opportune": 1, "labeler": Labeler.SME}],
        ids=["plain-tuple", "none", "dict"],
    )
    def test_a_row_without_a_judgment_is_refused_before_the_store_is_opened(
        self, tmp_path, monkeypatch, bad
    ):
        # Only a Judgment is checked, so nothing else may reach the store;
        # the store is neither read nor written.
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()
        monkeypatch.setattr(feeds, "iter_label_rows", lambda *_: pytest.fail("store read"))
        monkeypatch.setattr(feeds, "output_target", lambda *_: pytest.fail("store opened"))
        rows = [self.example(cve="CVE-2020-0002"), ("CVE-2020-0003", bad, ts("2021-01-01T00:00:00"))]
        with pytest.raises(ValueError, match="^cannot write a label for CVE-2020-0003: .* is not a Judgment$"):
            save_labels(path, rows)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    @pytest.mark.parametrize(
        "cve, stamp",
        [
            ("CVE-2020-0003", datetime(2024, 1, 1)),
            ("CVE-2020-0001", datetime(2024, 1, 1)),  # naive, for an id already stored
            ("CVE-2020-0003", "2024-01-01T00:00:00Z"),
            ("CVE-2020-0003", None),
            ("CVE-2020-0003", datetime(2024, 1, 1).date()),
            ("CVE-2020-0003", datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))),
            ("CVE-2020-0003", datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone(timedelta(hours=-1)))),
        ],
        ids=["naive", "naive-stored-id", "str", "none", "date", "before-year-1", "after-year-9999"],
    )
    def test_a_stamp_that_is_not_aware_in_years_1_to_9999_is_refused_before_the_store_is_opened(
        self, tmp_path, monkeypatch, cve, stamp
    ):
        # A stamp is checked by the rule parse_ts reads by: aware, and in
        # years 1-9999 in UTC. A naive one would be written in local time.
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()
        monkeypatch.setattr(feeds, "iter_label_rows", lambda *_: pytest.fail("store read"))
        monkeypatch.setattr(feeds, "output_target", lambda *_: pytest.fail("store opened"))
        rows = [self.example(cve="CVE-2020-0002"), (cve, Judgment(2, 1, Labeler.SME), stamp)]
        refusal = f"^cannot write a label for {cve}: .* is not an aware datetime in years 1-9999 in UTC$"
        with pytest.raises(ValueError, match=refusal):
            save_labels(path, rows)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    @pytest.mark.parametrize("stamp", [datetime(2024, 1, 1), "2024-01-01T00:00:00Z"], ids=["naive", "str"])
    def test_write_labels_refuses_a_bad_stamp_before_the_store_is_opened(self, tmp_path, monkeypatch, stamp):
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()
        monkeypatch.setattr(feeds, "write_atomic", lambda *_: pytest.fail("store opened"))
        judgments, stamps = judgments_and_stamps([self.example(), self.example(cve="CVE-2020-0002")])
        stamps["CVE-2020-0002"] = stamp
        refusal = "^cannot write a label for CVE-2020-0002: .* is not an aware datetime in years 1-9999 in UTC$"
        with pytest.raises(ValueError, match=refusal):
            write_labels(path, judgments, stamps)
        assert path.read_bytes() == before

    def test_stamps_at_the_utc_bounds_are_saved(self, tmp_path):
        first = datetime(1, 1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
        last = datetime(9999, 12, 31, 22, 59, 59, tzinfo=timezone(timedelta(hours=-1)))
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example(), ("CVE-2020-0002", Judgment(0, 0, Labeler.MODEL), first),
                           ("CVE-2020-0003", Judgment(0, 0, Labeler.MODEL), last)])
        stamps = [format_ts(t) for _, _, t in read_store(path)]
        assert stamps == ["2021-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z"]

    def test_non_cve_id_creates_no_store(self, tmp_path):
        with pytest.raises(ValueError, match="^cannot write a label for 'CVE-1-1': not a CVE id$"):
            write_labels(tmp_path / "labels.jsonl", *judgments_and_stamps([self.example(cve="CVE-1-1")]))
        assert list(tmp_path.iterdir()) == []

    def test_newest_wins_on_merge(self, tmp_path):
        older = self.example(utility=0, when="2021-01-01T00:00:00")
        newer = self.example(utility=2, when="2021-06-01T00:00:00")
        path = tmp_path / "labels.jsonl"
        save_labels(path, [older])
        save_labels(path, [newer])
        ((_, judgment, _),) = read_store(path)
        assert judgment.utility == 2

    def test_sme_beats_newer_model(self, tmp_path):
        sme = self.example(utility=1, labeler=Labeler.SME, when="2021-01-01T00:00:00")
        model = self.example(utility=2, labeler=Labeler.MODEL, when="2022-01-01T00:00:00")
        path = tmp_path / "labels.jsonl"
        save_labels(path, [sme, model])
        judgments, stamps = load_judgments(path)
        assert judgments["CVE-2020-0001"] == (1, 0, Labeler.SME)
        assert stamps["CVE-2020-0001"] == sme[2]

    def test_invalid_category(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 7, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        with pytest.raises(InvalidCategory):
            read_store(path)

    @pytest.mark.parametrize(
        "field, value", [("utility", True), ("utility", 1.0), ("utility", "1"), ("opportune", False)]
    )
    def test_non_int_label_rejected(self, tmp_path, field, value):
        with pytest.raises(InvalidCategory, match=field):
            self.example(**{field: value})
        row = {"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}
        path = write_jsonl(tmp_path / "labels.jsonl", [row, dict(row, **{field: value})])
        with pytest.raises(InvalidCategory, match=f"labels.jsonl:2: {field} "):
            read_store(path)

    def test_invalid_labeler(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "Bot", "ts": "2021-01-01T00:00:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        with pytest.raises(InvalidCategory, match="labeler"):
            read_store(path)

    def test_ts_z_suffix_round_trip(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T12:30:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        ((_, _, stamp),) = read_store(path)
        assert format_ts(stamp) == "2021-01-01T12:30:00Z"

    def test_proportions_survive_round_trip(self, tmp_path):
        # 42%/32%/26% utility split over a synthetic corpus of 50.
        counts = {0: 21, 1: 16, 2: 13}
        examples, n = [], 0
        for utility, count in counts.items():
            for _ in range(count):
                examples.append(self.example(cve=f"CVE-2021-{n:04d}", utility=utility))
                n += 1
        path = tmp_path / "labels.jsonl"
        save_labels(path, examples)
        loaded = read_store(path)
        for utility, count in counts.items():
            assert sum(1 for _, j, _ in loaded if j.utility == utility) == count

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}
        assert_bad_id_exits_2(tmp_path, capsys, "labels", "cve", row, bad_id)


class TestAssetContext:
    def test_load(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "exposure": "Public", "criticality": "High"}]
        ctx = load_asset_context(write_jsonl(tmp_path / "ctx.jsonl", rows))
        assert ctx == {"CVE-2020-0001": (Exposure.PUBLIC, Criticality.HIGH)}

    def test_duplicate_rejected(self, tmp_path):
        rows = [
            {"cve": "CVE-2020-0001", "exposure": "Public", "criticality": "High"},
            {"cve": "CVE-2020-0001", "exposure": "Private", "criticality": "Low"},
        ]
        path = write_jsonl(tmp_path / "ctx.jsonl", rows)
        with pytest.raises(DuplicateId):
            load_asset_context(path)

    def test_invalid_enum(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "exposure": "DMZ", "criticality": "High"}]
        path = write_jsonl(tmp_path / "ctx.jsonl", rows)
        with pytest.raises(InvalidCategory):
            load_asset_context(path)

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"exposure": "Public", "criticality": "High"}
        assert_bad_id_exits_2(tmp_path, capsys, "context", "cve", row, bad_id)


class TestAttachDescriptions:
    def test_join(self, tmp_path):
        records = list(iter_cve_records(write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())))
        rows = [("CVE-2017-0143", Judgment(2, 0, Labeler.SME), ts("2021-01-01T00:00:00"))]
        ((description, _),) = attach_descriptions(rows, records)
        assert "SMBv1" in description

    def test_pairs_follow_the_rows(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [
            {"id": "CVE-2020-0001", "description": "a", "score": 5},
            {"id": "CVE-2020-0002", "description": "unlabeled", "score": 5},
            {"id": "CVE-2020-0003", "description": "", "score": 5},
        ])
        stamp = ts("2021-01-01T00:00:00")
        rows = [
            ("CVE-2020-0003", Judgment(1, 0, Labeler.SME), stamp),
            ("CVE-2020-0001", Judgment(2, 1, Labeler.MODEL), stamp),
        ]
        joined = attach_descriptions(iter(rows), iter_cve_records(path))
        assert joined == [("", rows[0]), ("a", rows[1])]
        assert all(row is given for (_, row), given in zip(joined, rows, strict=True))

    def test_missing_record_named(self):
        rows = [("CVE-1999-9999", Judgment(0, 0, Labeler.SME), ts("2021-01-01T00:00:00"))]
        with pytest.raises(SchemaError, match="CVE-1999-9999"):
            attach_descriptions(rows, [])


class TestWriteAtomic:
    """Every output goes through write_atomic: a failure is one IoError
    naming the path as given, and leaves the old file and no temporary."""

    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_atomic(path, b"rank,cve_id\n")
        assert path.read_bytes() == b"rank,cve_id\n"

    def test_writes_chunks(self, tmp_path):
        path = tmp_path / "out.csv"
        write_atomic(path, iter([b"rank,cve_id\n", b"", b"1,CVE-2020-0001\n"]))
        assert path.read_bytes() == b"rank,cve_id\n1,CVE-2020-0001\n"

    def test_chunks_that_raise_part_way_keep_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o640)

        def chunks():
            yield b"new\n"
            raise ValueError("cannot export 'x': not a CVE id")

        with pytest.raises(ValueError, match="not a CVE id"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(IoError, match=f"^cannot write {re.escape(str(path))}: No such file"):
            write_atomic(path, b"x")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step", ["tempfile.mkstemp", "os.fsync", "os.replace"])
    def test_failed_step_keeps_old_file(self, tmp_path, monkeypatch, step):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")

        def fail(*args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(f"vulnrank.feeds.{step}", fail)
        message = f"^cannot write {re.escape(str(path))}: Input/output error$"
        with pytest.raises(IoError, match=message):
            write_atomic(path, b"new\n")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_fsyncs_the_target_directory_after_the_rename(self, tmp_path, monkeypatch):
        # Through a link, the directory is the real target's.
        (tmp_path / "real").mkdir()
        link = tmp_path / "out.csv"
        link.symlink_to(tmp_path / "real" / "out.csv")
        synced, fsync = [], os.fsync

        def spy(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                assert info.st_ino == (tmp_path / "real").stat().st_ino
                synced.append(link.read_bytes())
            fsync(fd)

        monkeypatch.setattr("vulnrank.feeds.os.fsync", spy)
        write_atomic(link, b"one\n")
        write_atomic(link, b"two\n")
        assert synced == [b"one\n", b"two\n"]

    def test_failed_directory_fsync_names_the_path(self, tmp_path, monkeypatch):
        path, fsync = tmp_path / "out.csv", os.fsync

        def fail_on_directory(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "Input/output error")
            fsync(fd)

        monkeypatch.setattr("vulnrank.feeds.os.fsync", fail_on_directory)
        message = f"^cannot write {re.escape(str(path))}: Input/output error$"
        with pytest.raises(IoError, match=message):
            write_atomic(path, b"new\n")
        # The rename came first: the target holds the new data.
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_non_regular_target_refused_before_any_write(self, tmp_path, monkeypatch):
        (tmp_path / "out.csv").mkdir()
        monkeypatch.setattr("vulnrank.feeds.tempfile.mkstemp", None)  # never reached
        with pytest.raises(IoError, match="out.csv: not a regular file$"):
            write_atomic(tmp_path / "out.csv", b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


LABEL_OFFSETS = [timezone(timedelta(minutes=m)) for m in (0, 330, -240, 845, -719, 1439)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(
            st.from_regex(CVE_ID_RE, fullmatch=True),
            st.integers(0, 2),
            st.integers(0, 1),
            st.sampled_from(Labeler),
            st.datetimes(datetime(2, 1, 1), datetime(9998, 12, 31),
                         timezones=st.sampled_from(LABEL_OFFSETS)),
        ),
        max_size=30,
    )
)
def test_label_lines_match_the_json_encoder(rows):
    """The templated store lines are the bytes compact_json wrote for them."""
    merged = {cve_id: (cve_id, Judgment(u, o, lab), t) for cve_id, u, o, lab, t in rows}
    store = judgments_and_stamps(merged.values())
    expected = "".join(
        compact_json({"cve": cve_id, "utility": j.utility, "opportune": j.opportune,
                      "labeler": j.labeler.value, "ts": format_ts(t)}) + "\n"
        for cve_id, j, t in sorted(merged.values())
    )
    assert "".join(_label_lines(*store)) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(
            st.from_regex(CVE_ID_RE, fullmatch=True),
            st.integers(0, 2),
            st.integers(0, 1),
            st.sampled_from(Labeler),
            # The store keeps whole seconds.
            st.datetimes(datetime(2, 1, 1), datetime(9998, 12, 31),
                         timezones=st.sampled_from(LABEL_OFFSETS)).map(lambda t: t.replace(microsecond=0)),
        ),
        max_size=30,
    )
)
def test_written_store_reads_back_without_the_json_decoder(tmp_path_factory, rows):
    """Every line write_labels renders is in the form iter_label_rows
    reads from the pattern's groups, and reads back as the entry it was."""
    merged = {cve_id: (cve_id, Judgment(u, o, lab), t) for cve_id, u, o, lab, t in rows}
    store = judgments_and_stamps(merged.values())
    scan = feeds._line_scan(feeds._STORE_LINE)
    assert all(scan(line.encode("utf-8"))[0][-1] == b"" for line in _label_lines(*store))
    path = tmp_path_factory.getbasetemp() / "fast_path_store.jsonl"
    write_labels(path, *store)

    def decoded(*args):
        raise AssertionError("a store line was decoded as JSON")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds.json, "loads", decoded)
        loaded = read_store(path)
    assert loaded == sorted(merged.values())
    assert [format_ts(t) for _, _, t in loaded] == [format_ts(merged[cve_id][2]) for cve_id, _, _ in loaded]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(local=st.datetimes(), minutes=st.integers(-(24 * 60 - 1), 24 * 60 - 1))
@example(datetime(999, 6, 1), 0)
@example(datetime(1, 1, 1), 60)
@example(datetime(9999, 12, 31, 23, 59, 59), -60)
@example(datetime.min, 0)
@example(datetime.max, 0)
def test_ts_round_trip(local, minutes):
    """A stamp whose UTC form falls in years 1-9999 is written back as one
    that reads as the same second; any other stamp is refused."""
    offset = timedelta(minutes=minutes)
    stamp = local.replace(tzinfo=timezone(offset))
    since_min = local - datetime.min - offset  # from 0001-01-01T00:00:00 UTC
    if not timedelta(0) <= since_min <= datetime.max - datetime.min:
        with pytest.raises(SchemaError, match=r"^x: ts '.*' is outside years 1-9999 in UTC$"):
            parse_ts(stamp.isoformat(), "x")
        return
    assert parse_ts(stamp.isoformat(), "x") == stamp
    text = format_ts(stamp)
    utc = (datetime.min + since_min).replace(microsecond=0, tzinfo=timezone.utc)
    assert re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", text)
    assert parse_ts(text, "x") == utc
    assert format_ts(parse_ts(text, "x")) == text


REF_CVES = ("CVE-2020-0001", "CVE-2020-0002", "CVE-2020-0003")


def ref_row(cve_id, url, exploit):
    """A reference line; exploit None leaves the key out."""
    row = {"cve": cve_id, "url": url, "source": "GitHub"}
    if exploit is not None:
        row["exploit"] = exploit
    return row


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(
    st.tuples(st.sampled_from(REF_CVES), st.sampled_from("abcde"), st.sampled_from([True, False, None])),
    max_size=40,
))
def test_wx_counts_distinct_urls_whose_first_line_is_an_exploit(tmp_path_factory, lines):
    path = write_jsonl(tmp_path_factory.getbasetemp() / "refs_first_line.jsonl",
                       [ref_row(cve_id, f"https://x/{url}", exploit) for cve_id, url, exploit in lines])
    expected = {
        cve_id: sum(
            next(flag for c, u, flag in lines if (c, u) == (cve_id, url)) is True
            for url in {u for c, u, _ in lines if c == cve_id}
        )
        for cve_id in {c for c, _, _ in lines}
    }
    assert wx_of(load_exploit_refs(path)) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), lines=st.lists(st.tuples(st.sampled_from(REF_CVES), st.booleans()), max_size=30))
def test_wx_of_distinct_urls_ignores_line_order(tmp_path_factory, data, lines):
    rows = [ref_row(cve_id, f"https://x/{n}", exploit) for n, (cve_id, exploit) in enumerate(lines)]
    path = tmp_path_factory.getbasetemp() / "refs_order.jsonl"
    wx = wx_of(load_exploit_refs(write_jsonl(path, rows)))
    assert wx_of(load_exploit_refs(write_jsonl(path, data.draw(st.permutations(rows))))) == wx
    # One more exploit URL for a CVE adds exactly one to its wx.
    cve_id = data.draw(st.sampled_from(REF_CVES))
    grown = wx_of(load_exploit_refs(write_jsonl(path, rows + [ref_row(cve_id, "https://x/new", True)])))
    assert grown == {**wx, cve_id: wx.get(cve_id, 0) + 1}
