"""Feed loading, validation, and label-store round trips."""

import logging
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from vulnrank.feeds import (
    AssetContext,
    Criticality,
    DuplicateId,
    Exposure,
    InvalidCategory,
    LabeledExample,
    Labeler,
    ParseError,
    ReferenceSource,
    SchemaError,
    attach_descriptions,
    compact_json,
    format_ts,
    load_asset_context,
    load_cve_records,
    load_exploit_refs,
    load_labels,
    merge_labels,
    save_labels,
    write_labels,
)

from vulnrank.cli import main

from conftest import WORKED_TRIO, trio_cve_rows, trio_ref_rows, write_jsonl


def ts(text):
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


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
        records = load_cve_records(path)
        assert [r.cve_id for r in records] == [rec["id"] for rec in WORKED_TRIO]
        assert [r.description for r in records] == [rec["description"] for rec in WORKED_TRIO]
        assert all(r.vector is not None for r in records)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text("")
        assert load_cve_records(path) == []

    def test_duplicate_id(self, tmp_path):
        rows = [
            {"id": "CVE-2020-0001", "description": "a", "score": 5.0},
            {"id": "CVE-2020-0001", "description": "b", "score": 5.0},
        ]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(DuplicateId, match="CVE-2020-0001"):
            load_cve_records(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "cves.jsonl"
        path.write_text('{"id": "CVE-2020-0001", "description": "a"}\nnot json\n')
        with pytest.raises(ParseError, match=":2"):
            load_cve_records(path)

    def test_missing_field_named(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001"}])
        with pytest.raises(SchemaError, match="description"):
            load_cve_records(path)

    def test_bad_cve_id(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-20-1", "description": "a"}])
        with pytest.raises(SchemaError, match="CVE-20-1"):
            load_cve_records(path)

    def test_bad_vector_wrapped(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "vector": "AV:N/AC:L"}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="vector"):
            load_cve_records(path)

    def test_score_out_of_range(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "score": 11.0}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="11.0"):
            load_cve_records(path)

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
            load_cve_records(path)

    @pytest.mark.parametrize(
        "score,value",
        [(0.3, "0.3"), (7, "7.0"), (0, "0.0"), (-0.0, "0.0"), (10, "10.0"), (9.9, "9.9"), (8, "8.0"),
         (8.0, "8.0")],
    )
    def test_one_decimal_score_accepted(self, tmp_path, score, value):
        rows = [{"id": "CVE-2020-0001", "description": "a", "score": score}]
        (record,) = load_cve_records(write_jsonl(tmp_path / "cves.jsonl", rows))
        assert record.published_score == Decimal(value)
        # One place, whichever form the feed used: 8, 8.0 and 10 included.
        assert str(record.published_score) == value

    def test_non_string_vector_rejected(self, tmp_path):
        rows = [{"id": "CVE-2020-0001", "description": "a", "vector": ["AV:N"]}]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        with pytest.raises(SchemaError, match="cves.jsonl:1: vector must be a string"):
            load_cve_records(path)

    def test_record_without_vector_or_score_loads(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", [{"id": "CVE-2020-0001", "description": "a"}])
        (record,) = load_cve_records(path)
        assert not record.scoring_eligible

    def test_deterministic(self, tmp_path):
        path = write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())
        assert load_cve_records(path) == load_cve_records(path)

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"description": "b", "score": 5.0}
        assert_bad_id_exits_2(tmp_path, capsys, "cves", "id", row, bad_id)

    @pytest.mark.parametrize("references", [None, 3, 2.5, True, "x", {}, [None]], ids=repr)
    def test_references_not_a_list_of_objects_exits_2(self, tmp_path, capsys, references):
        # null, numbers and booleans ended in a TypeError traceback (exit 1).
        row = {"id": "CVE-2020-0002", "description": "b", "references": references}
        first = {"id": "CVE-2020-0001", "description": "a"}
        path = write_jsonl(tmp_path / "cves.jsonl", [first, row])
        assert main(["ingest", "--cves", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:2: references must be a list of objects\n"


class TestLoadExploitRefs:
    def test_wx_26_group(self, tmp_path):
        path = write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows())
        grouped = load_exploit_refs(path)
        assert len(grouped["CVE-2017-0143"]) == 26
        assert len(grouped["CVE-2019-11324"]) == 2
        assert "CVE-2020-27256" not in grouped

    def test_same_url_deduplicated(self, tmp_path):
        row = {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "GitHub", "exploit": True}
        path = write_jsonl(tmp_path / "refs.jsonl", [row, dict(row)])
        grouped = load_exploit_refs(path)
        assert len(grouped["CVE-2020-0001"]) == 1

    def test_non_exploit_reference_retained(self, tmp_path):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "Other", "exploit": False},
        ]
        grouped = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        (entry,) = grouped["CVE-2020-0001"]
        assert entry.is_exploit is False

    def test_unknown_source_downgraded_with_warning(self, tmp_path, caplog):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": "PacketStorm", "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/2", "source": "PacketStorm", "exploit": True},
        ]
        path = write_jsonl(tmp_path / "refs.jsonl", rows)
        with caplog.at_level(logging.WARNING, logger="vulnrank.feeds"):
            grouped = load_exploit_refs(path)
        assert all(e.source is ReferenceSource.OTHER for e in grouped["CVE-2020-0001"])
        assert "2 reference(s)" in caplog.text

    def test_non_string_source_downgraded_and_counted(self, tmp_path, caplog):
        rows = [
            {"cve": "CVE-2020-0001", "url": "https://x/1", "source": ["ExploitDB"], "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/2", "source": {"GitHub": 1}, "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/3", "source": None, "exploit": True},
            {"cve": "CVE-2020-0001", "url": "https://x/4", "source": "GitHub", "exploit": True},
        ]
        path = write_jsonl(tmp_path / "refs.jsonl", rows)
        with caplog.at_level(logging.WARNING, logger="vulnrank.feeds"):
            grouped = load_exploit_refs(path)
        assert [e.source for e in grouped["CVE-2020-0001"]] == [ReferenceSource.OTHER] * 3 + [
            ReferenceSource.GITHUB
        ]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: 3 reference(s) with unknown source downgraded to Other"
        ]

    def test_exploit_flag_defaults_false(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "url": "https://x/1", "source": "ExploitDB"}]
        grouped = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", rows))
        assert grouped["CVE-2020-0001"][0].is_exploit is False

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
        return LabeledExample(
            cve_id=cve, utility=utility, opportune=opportune, labeler=labeler, labeled_at=ts(when)
        )

    def test_round_trip(self, tmp_path):
        examples = [self.example(), self.example(cve="CVE-2020-0002", utility=2, opportune=1)]
        path = tmp_path / "labels.jsonl"
        save_labels(path, examples)
        assert sorted(load_labels(path), key=lambda e: e.cve_id) == examples

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
        merged = {
            f"CVE-2020-{n:04d}": LabeledExample(
                f"CVE-2020-{n:04d}", n % 3, n % 2, Labeler.MODEL, datetime.fromisoformat(stamp)
            )
            for n, stamp in enumerate(stamps, start=1)
        }
        path = tmp_path / "labels.jsonl"
        write_labels(path, dict(reversed(merged.items())))
        assert path.read_text().splitlines() == [
            compact_json({"cve": ex.cve_id, "utility": ex.utility, "opportune": ex.opportune,
                          "labeler": "Model", "ts": format_ts(ex.labeled_at)})
            for ex in merged.values()
        ]
        loaded = [ex.labeled_at for ex in load_labels(path)]
        assert loaded == [ex.labeled_at for ex in merged.values()]

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "labels.jsonl"
        save_labels(path, [self.example()])
        before = path.read_bytes()

        def fail(src, dst):
            raise PermissionError("rename refused")

        monkeypatch.setattr("vulnrank.feeds.os.replace", fail)
        with pytest.raises(PermissionError):
            save_labels(path, [self.example(cve="CVE-2020-0002")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    def test_newest_wins_on_merge(self, tmp_path):
        older = self.example(utility=0, when="2021-01-01T00:00:00")
        newer = self.example(utility=2, when="2021-06-01T00:00:00")
        path = tmp_path / "labels.jsonl"
        save_labels(path, [older])
        save_labels(path, [newer])
        (loaded,) = load_labels(path)
        assert loaded.utility == 2

    def test_sme_beats_newer_model(self):
        sme = self.example(utility=1, labeler=Labeler.SME, when="2021-01-01T00:00:00")
        model = self.example(utility=2, labeler=Labeler.MODEL, when="2022-01-01T00:00:00")
        merged = merge_labels([sme, model])
        assert merged["CVE-2020-0001"].labeler is Labeler.SME

    def test_invalid_category(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 7, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        with pytest.raises(InvalidCategory):
            load_labels(path)

    @pytest.mark.parametrize(
        "field, value", [("utility", True), ("utility", 1.0), ("utility", "1"), ("opportune", False)]
    )
    def test_non_int_label_rejected(self, tmp_path, field, value):
        with pytest.raises(InvalidCategory, match=field):
            self.example(**{field: value})
        row = {"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}
        path = write_jsonl(tmp_path / "labels.jsonl", [row, dict(row, **{field: value})])
        with pytest.raises(InvalidCategory, match=f"labels.jsonl:2: {field} "):
            load_labels(path)

    def test_invalid_labeler(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "Bot", "ts": "2021-01-01T00:00:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        with pytest.raises(InvalidCategory, match="labeler"):
            load_labels(path)

    def test_ts_z_suffix_round_trip(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T12:30:00Z"}]
        path = write_jsonl(tmp_path / "labels.jsonl", rows)
        (loaded,) = load_labels(path)
        assert format_ts(loaded.labeled_at) == "2021-01-01T12:30:00Z"

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
        loaded = load_labels(path)
        for utility, count in counts.items():
            assert sum(1 for e in loaded if e.utility == utility) == count

    @pytest.mark.parametrize("bad_id", BAD_IDS.values(), ids=BAD_IDS)
    def test_non_ascii_or_newline_id_exits_2(self, tmp_path, capsys, bad_id):
        row = {"utility": 1, "opportune": 0, "labeler": "SME", "ts": "2021-01-01T00:00:00Z"}
        assert_bad_id_exits_2(tmp_path, capsys, "labels", "cve", row, bad_id)


class TestAssetContext:
    def test_load(self, tmp_path):
        rows = [{"cve": "CVE-2020-0001", "exposure": "Public", "criticality": "High"}]
        ctx = load_asset_context(write_jsonl(tmp_path / "ctx.jsonl", rows))
        assert ctx["CVE-2020-0001"] == AssetContext(
            "CVE-2020-0001", Exposure.PUBLIC, Criticality.HIGH
        )

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
        records = load_cve_records(write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows()))
        examples = [
            LabeledExample("CVE-2017-0143", 2, 0, Labeler.SME, ts("2021-01-01T00:00:00"))
        ]
        (joined,) = attach_descriptions(examples, records)
        assert "SMBv1" in joined.description

    def test_missing_record_named(self):
        examples = [
            LabeledExample("CVE-1999-9999", 0, 0, Labeler.SME, ts("2021-01-01T00:00:00"))
        ]
        with pytest.raises(SchemaError, match="CVE-1999-9999"):
            attach_descriptions(examples, [])
