"""Threat score arithmetic and portfolio scoring."""

import math
import random
from decimal import Decimal
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from vulnrank.cli import WEIGHT_RANGE
from vulnrank.cvss import Severity, base_score, parse_vector, severity_of
from vulnrank.feeds import (
    Criticality,
    CveRecord,
    Exposure,
    InvalidCategory,
    Judgment,
    Labeler,
    iter_cve_records,
    load_asset_context,
    load_exploit_refs,
)
from vulnrank.report import ExportFormat, export_chunks, rank
from vulnrank.scoring import (
    DEFAULT_ENV_WEIGHTS,
    NEUTRAL_ENV,
    InvalidConfig,
    MissingCvss,
    MissingLabels,
    ScoredVulnerability,
    ScoringError,
    env_factor,
    format_quantity,
    score_portfolio,
    threat_score,
)

from conftest import WORKED_TRIO, trio_cve_rows, trio_ref_rows, write_jsonl


# Weights as the config parser accepts them: up to four decimals, within
# WEIGHT_RANGE.
WEIGHTS = st.integers(0, 4).flatmap(
    lambda places: st.integers(
        math.ceil(WEIGHT_RANGE[0].scaleb(places)), int(WEIGHT_RANGE[1].scaleb(places))
    ).map(lambda n: Decimal(n).scaleb(-places))
)


def labels(utility=0, opportune=0, source=Labeler.SME):
    return Judgment(utility, opportune, source)


class TestThreatScore:
    @pytest.mark.parametrize("rec", WORKED_TRIO, ids=lambda r: r["id"])
    def test_worked_examples_exact(self, rec):
        score = threat_score(rec["score"], rec["wx"], labels(rec["utility"], rec["opportune"]))
        assert score == Decimal(rec["threat"])

    def test_neutral_case_equals_cvss(self):
        for tenths in range(0, 101):
            cvss = Decimal(tenths).scaleb(-1)
            assert threat_score(cvss, 0, labels()) == cvss

    def test_multiplier_table_exhaustive(self):
        # utility maps to factor {1,2,3}; opportune to {1,2}.
        for utility in (0, 1, 2):
            for opportune in (0, 1):
                score = threat_score(Decimal("1.0"), 0, labels(utility, opportune))
                assert score == Decimal(1) * (utility + 1) * (opportune + 1)

    def test_wx_increment_is_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            cvss = Decimal(rng.randrange(0, 101)).scaleb(-1)
            wx = rng.randrange(0, 500)
            u, o = rng.choice((0, 1, 2)), rng.choice((0, 1))
            env = Decimal("1.5") * Decimal("1.2")
            step = threat_score(cvss, wx + 1, labels(u, o), env) - threat_score(
                cvss, wx, labels(u, o), env
            )
            assert step == (u + 1) * (o + 1) * env

    def test_exact_by_representation(self):
        # Products 1 and 1.00 are equal, yet the scores they give print
        # apart, so a score must come from its own env, not an equal one.
        private_low = env_factor((Exposure.PRIVATE, Criticality.LOW))
        envs, cvss_values = (NEUTRAL_ENV, private_low), map(Decimal, ("0.0", "7.5", "10.0"))
        for env, cvss, wx, u, o in product(envs, cvss_values, (0, 1, 12), (0, 1, 2), (0, 1)):
            expected = (cvss + wx) * (u + 1) * (o + 1) * env
            assert str(threat_score(cvss, wx, labels(u, o), env)) == str(expected)
        assert str(threat_score(Decimal("7.5"), 0, labels(), NEUTRAL_ENV)) == "7.5"
        assert str(threat_score(Decimal("7.5"), 0, labels(), private_low)) == "7.500"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        cvss=st.one_of(
            st.integers(0, 100).map(lambda tenths: Decimal(tenths).scaleb(-1)),
            st.sampled_from([Decimal("7"), Decimal("7.50"), Decimal("0"), Decimal("10.00")]),
        ),
        wx=st.integers(0, 10**6),
        exposure=WEIGHTS,
        criticality=WEIGHTS,
    )
    def test_equals_the_formula_multiplied_out(self, cvss, wx, exposure, criticality):
        weights = {Exposure.PUBLIC: exposure, Criticality.HIGH: criticality}
        env = env_factor((Exposure.PUBLIC, Criticality.HIGH), weights)
        assert str(env) == str(exposure * criticality)
        for u, o in product(range(3), range(2)):
            score = threat_score(cvss, wx, labels(u, o), env)
            # Factor by factor, and through one (u + 1) * (o + 1) * env
            # multiplier, as a table of multipliers per env would give it.
            for expected in (
                (cvss + wx) * (u + 1) * (o + 1) * exposure * criticality,
                (cvss + wx) * ((u + 1) * (o + 1) * (exposure * criticality)),
            ):
                assert score == expected
                assert str(score) == str(expected)

    def test_strictly_monotone_in_categories(self):
        five = Decimal("5.0")
        base = threat_score(five, 3, labels(0, 0))
        assert threat_score(five, 3, labels(1, 0)) > base
        assert threat_score(five, 3, labels(2, 0)) > threat_score(five, 3, labels(1, 0))
        assert threat_score(five, 3, labels(0, 1)) > base

    def test_unbounded_above_ten(self):
        score = threat_score(Decimal("10.0"), 500, labels(2, 1))
        assert score == Decimal("3060")

    def test_invalid_inputs(self):
        with pytest.raises(ScoringError):
            threat_score(Decimal("-0.1"), 0, labels())
        with pytest.raises(ScoringError):
            threat_score(Decimal("10.1"), 0, labels())
        with pytest.raises(ScoringError):
            threat_score(Decimal("5.0"), -1, labels())
        # A row built by hand cannot carry an env no weights could give.
        for env in (Decimal(0), Decimal("-1.5")):
            with pytest.raises(ScoringError, match=f"^env product {env} must be positive$"):
                threat_score(Decimal("5.0"), 0, labels(), env)
            with pytest.raises(ScoringError):
                ScoredVulnerability("CVE-2020-0001", Decimal("5.0"), 0, labels(), env)

    def test_label_validation(self):
        with pytest.raises(InvalidCategory):
            labels(utility=3)
        with pytest.raises(InvalidCategory):
            labels(opportune=2)

    def test_an_unchecked_judgment_is_neither_scored_nor_exported(self):
        # Judgment(5, True, SME) was once built without a check: a CVSS 5.0
        # CVE then scored 60, and its row exported "utility":5,"opportune":True,
        # which is not JSON.
        record = CveRecord("CVE-2020-0001", "a", published_score=Decimal("5.0"))
        scored, exported = None, None
        with pytest.raises(InvalidCategory, match=r"^utility must be one of \(0, 1, 2\), got 5$"):
            labels_map = {"CVE-2020-0001": Judgment(5, True, Labeler.SME)}
            scored = score_portfolio([record], {}, labels_map)
            exported = b"".join(export_chunks(rank(scored), ExportFormat.STRUCTURED))
        assert (scored, exported) == (None, None)


class TestEnvFactor:
    def test_missing_context_is_neutral(self):
        assert env_factor(None) is NEUTRAL_ENV
        assert str(NEUTRAL_ENV) == "1"

    def test_public_high_default(self):
        ctx = (Exposure.PUBLIC, Criticality.HIGH)
        assert str(env_factor(ctx)) == "2.25"

    def test_private_low_default(self):
        ctx = (Exposure.PRIVATE, Criticality.LOW)
        assert str(env_factor(ctx)) == "1.00"

    @pytest.mark.parametrize("weight", [Decimal(0), Decimal("-0.0"), Decimal("-1")], ids=str)
    @pytest.mark.parametrize("table", ["exposure", "criticality"])
    def test_nonpositive_weight_rejected(self, table, weight):
        weights = dict(DEFAULT_ENV_WEIGHTS)
        weights[Exposure.PUBLIC if table == "exposure" else Criticality.LOW] = weight
        ctx = (Exposure.PUBLIC, Criticality.LOW)
        with pytest.raises(InvalidConfig, match=f"^environmental weight {weight} must be positive$"):
            env_factor(ctx, weights)
        # Contexts that do not use the bad weight still score.
        other = (Exposure.PRIVATE, Criticality.HIGH)
        assert env_factor(other, weights) == Decimal("1.5")

    def test_partial_weights_name_the_missing_member(self):
        # The config parser fills left-out members from the defaults; a
        # table built by hand may still leave one out.
        partial = {Exposure.PUBLIC: Decimal(2), **{c: DEFAULT_ENV_WEIGHTS[c] for c in Criticality}}
        public = (Exposure.PUBLIC, Criticality.LOW)
        assert env_factor(public, partial) == Decimal(2)
        private = (Exposure.PRIVATE, Criticality.LOW)
        with pytest.raises(InvalidConfig, match="no weight configured for Exposure.PRIVATE"):
            env_factor(private, partial)

    def test_env_scales_score(self):
        ctx = (Exposure.PUBLIC, Criticality.HIGH)
        score = threat_score(Decimal("6.8"), 0, labels(2, 1), env_factor(ctx))
        assert score == Decimal("40.8") * Decimal("2.25")


class TestFormatQuantity:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Decimal("102.3"), "102.3"),
            (Decimal("40.800"), "40.8"),
            (Decimal("100.0"), "100"),
            (Decimal("1.00"), "1"),
            (Decimal("2.25"), "2.25"),
            (Decimal("0"), "0"),
            (Decimal("1E-9"), "0.000000001"),
            (Decimal("1.5E+30"), "1500000000000000000000000000000"),
        ],
    )
    def test_no_noise(self, value, expected):
        assert format_quantity(value) == expected


class TestScorePortfolio:
    def load_trio(self, tmp_path):
        records = list(iter_cve_records(write_jsonl(tmp_path / "cves.jsonl", trio_cve_rows())))
        refs = load_exploit_refs(write_jsonl(tmp_path / "refs.jsonl", trio_ref_rows()))
        wx_map = {cve_id: sum(urls.values()) for cve_id, urls in refs.items()}
        labels_map = {
            rec["id"]: labels(rec["utility"], rec["opportune"]) for rec in WORKED_TRIO
        }
        return records, wx_map, labels_map

    def test_worked_trio_end_to_end(self, tmp_path):
        records, wx_map, labels_map = self.load_trio(tmp_path)
        scored = score_portfolio(records, wx_map, labels_map)
        assert [s.threat_score for s in scored] == [
            Decimal("102.3"),
            Decimal("9.5"),
            Decimal("40.8"),
        ]

    def test_ordering_inversion_against_cvss(self, tmp_path):
        # The physical-access pump CVE outranks the higher-CVSS urllib3 one.
        records, wx_map, labels_map = self.load_trio(tmp_path)
        scored = {s.cve_id: s for s in score_portfolio(records, wx_map, labels_map)}
        pump, urllib3 = scored["CVE-2020-27256"], scored["CVE-2019-11324"]
        assert pump.cvss < urllib3.cvss
        assert pump.threat_score > urllib3.threat_score

    def test_all_neutral_degenerates_to_cvss(self):
        record = CveRecord("CVE-2020-0001", "text", published_score=Decimal("7.5"))
        (scored,) = score_portfolio([record], {}, {"CVE-2020-0001": labels()})
        assert scored.threat_score == Decimal("7.5")

    def test_empty_portfolio(self):
        assert score_portfolio([], {}, {}) == []

    def test_missing_labels_named(self):
        record = CveRecord("CVE-2020-0001", "text", published_score=Decimal("7.5"))
        with pytest.raises(MissingLabels, match="CVE-2020-0001"):
            score_portfolio([record], {}, {})

    def test_negative_wx_rejected(self):
        record = CveRecord("CVE-2020-0001", "text", published_score=Decimal("7.5"))
        with pytest.raises(ScoringError, match="wx count -1 must be non-negative"):
            score_portfolio([record], {"CVE-2020-0001": -1}, {"CVE-2020-0001": labels()})

    def test_missing_cvss_named(self):
        record = CveRecord("CVE-2020-0001", "text")
        with pytest.raises(MissingCvss, match="CVE-2020-0001"):
            score_portfolio([record], {}, {"CVE-2020-0001": labels()})

    def test_vector_wins_over_published(self, tmp_path, caplog):
        rows = [
            {
                "id": "CVE-2017-0143",
                "description": "d",
                "vector": "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
                "score": 9.3,
            }
        ]
        records = list(iter_cve_records(write_jsonl(tmp_path / "cves.jsonl", rows)))
        import logging

        with caplog.at_level(logging.WARNING, logger="vulnrank.scoring"):
            (scored,) = score_portfolio(records, {}, {"CVE-2017-0143": labels()})
        assert scored.cvss == base_score(records[0].vector) == Decimal("8.1")
        assert "disagrees" in caplog.text

    def test_published_score_used_without_vector(self):
        record = CveRecord("CVE-2020-0001", "text", published_score=Decimal("9.8"))
        (scored,) = score_portfolio([record], {}, {"CVE-2020-0001": labels()})
        assert scored.cvss is record.published_score
        assert severity_of(scored.cvss) is Severity.CRITICAL

    def test_row_cvss_is_the_published_decimal_or_the_vector_score(self):
        # Equal published scores of other exponents stay apart, each the
        # record's own object; a vector's row holds its base score.
        vector = parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
        records = [
            CveRecord("CVE-2020-0001", "text", published_score=Decimal("7.0")),
            CveRecord("CVE-2020-0002", "text", published_score=Decimal("7")),
            CveRecord("CVE-2020-0003", "text", published_score=Decimal("7.00")),
            CveRecord("CVE-2020-0004", "text", vector=vector, published_score=Decimal("7.0")),
        ]
        scored = score_portfolio(records, {}, {r.cve_id: labels() for r in records})
        for row, record in zip(scored[:3], records):
            assert row.cvss is record.published_score
        assert [str(s.cvss) for s in scored] == ["7.0", "7", "7.00", "9.8"]
        assert scored[3].cvss is base_score(vector)
        assert [str(s.threat_score) for s in scored] == ["7.0", "7", "7.00", "9.8"]

    def test_scored_invariant_enforced(self, tmp_path):
        with pytest.raises(TypeError):
            ScoredVulnerability(
                cve_id="CVE-2020-0001",
                cvss=Decimal("5.0"),
                wx=0,
                labels=labels(),
                env=NEUTRAL_ENV,
                threat_score=Decimal("55"),
            )
        records, wx_map, labels_map = self.load_trio(tmp_path)
        ctx_map = {"CVE-2019-11324": (Exposure.PUBLIC, Criticality.HIGH)}
        scored = score_portfolio(records, wx_map, labels_map, ctx_map)
        assert [s.wx for s in scored] == [rec["wx"] for rec in WORKED_TRIO]
        for s in scored:
            assert s.threat_score == threat_score(s.cvss, s.wx, s.labels, s.env)

    def test_threat_score_computed_once_per_record(self, tmp_path, monkeypatch):
        import vulnrank.scoring

        calls = []
        real = vulnrank.scoring.threat_score
        monkeypatch.setattr(
            vulnrank.scoring, "threat_score", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        records, wx_map, labels_map = self.load_trio(tmp_path)
        scored = score_portfolio(records, wx_map, labels_map)
        assert len(calls) == len(scored) == 3

    def test_one_shot_generator_scores_like_the_list(self, tmp_path):
        rng = random.Random(3)
        vectors = [rec["vector"] for rec in WORKED_TRIO]
        ids = [f"CVE-2021-{1000 + k}" for k in range(60)]
        rows = [
            {"id": cve_id, "description": "text",
             **({"vector": rng.choice(vectors)} if k % 3 else {"score": rng.choice([0, 5, 7.5, 9.8])})}
            for k, cve_id in enumerate(ids)
        ]
        path = write_jsonl(tmp_path / "cves.jsonl", rows)
        wx_map = {cve_id: rng.randrange(3) for cve_id in ids[::2]}
        labels_map = {cve_id: labels(rng.randrange(3), rng.randrange(2)) for cve_id in ids}
        ctx_map = {
            cve_id: (rng.choice(list(Exposure)), rng.choice(list(Criticality)))
            for cve_id in ids[::3]
        }
        records = list(iter_cve_records(path))
        expected = score_portfolio(records, wx_map, labels_map, ctx_map)
        for stream in (iter(records), iter_cve_records(path)):
            scored = score_portfolio(stream, wx_map, labels_map, ctx_map)
            assert next(stream, None) is None
            assert scored == expected
            assert [str(s.threat_score) for s in scored] == [str(s.threat_score) for s in expected]

    def test_threat_decimals_shared_by_value_and_exponent(self, monkeypatch):
        import vulnrank.scoring

        calls = []
        real = vulnrank.scoring.threat_score
        monkeypatch.setattr(
            vulnrank.scoring, "threat_score", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        scores = ["6.0", "6.0", "5.0", "6"]
        records = [
            CveRecord(f"CVE-2020-000{k}", "text", published_score=Decimal(score))
            for k, score in enumerate(scores)
        ]
        labels_map = {record.cve_id: labels() for record in records}
        scored = score_portfolio(records, {"CVE-2020-0002": 1}, labels_map)
        # Equal inputs compute once; equal threats of one exponent share a
        # Decimal; 6 and 6.0 are equal but render differently.
        assert len(calls) == 3
        assert [str(s.threat_score) for s in scored] == ["6.0", "6.0", "6.0", "6"]
        assert scored[0].threat_score is scored[1].threat_score is scored[2].threat_score
        assert scored[3].threat_score is not scored[0].threat_score

    def test_float_published_score_is_a_type_error(self):
        record = CveRecord("CVE-2020-0001", "text", published_score=7.5)
        with pytest.raises(TypeError):
            score_portfolio([record], {}, {"CVE-2020-0001": labels()})

    def test_missing_cvss_wins_and_names_every_id_in_order(self):
        def stream(with_cvss):
            yield CveRecord("CVE-2020-0003", "unlabeled", published_score=Decimal("5.0"))
            yield CveRecord("CVE-2020-0002", "labeled", published_score=with_cvss)
            yield CveRecord("CVE-2020-0004", "labeled", published_score=Decimal("5.0"))
            yield CveRecord("CVE-2020-0001", "unlabeled", published_score=with_cvss)

        labels_map = {cve_id: labels() for cve_id in ("CVE-2020-0002", "CVE-2020-0004")}
        with pytest.raises(MissingCvss) as missing:
            score_portfolio(stream(None), {}, labels_map)
        assert missing.value.cve_ids == ("CVE-2020-0002", "CVE-2020-0001")
        with pytest.raises(MissingLabels) as unlabeled:
            score_portfolio(stream(Decimal("7.5")), {}, labels_map)
        assert unlabeled.value.cve_ids == ("CVE-2020-0003", "CVE-2020-0001")

    def test_missing_ids_win_over_an_earlier_scoring_error(self):
        records = [
            CveRecord("CVE-2020-0001", "negative wx", published_score=Decimal("5.0")),
            CveRecord("CVE-2020-0002", "unlabeled", published_score=Decimal("5.0")),
        ]
        wx_map, labels_map = {"CVE-2020-0001": -1}, {"CVE-2020-0001": labels()}
        with pytest.raises(MissingLabels) as unlabeled:
            score_portfolio(records, wx_map, labels_map)
        assert unlabeled.value.cve_ids == ("CVE-2020-0002",)
        with pytest.raises(ScoringError, match="wx count -1 must be non-negative"):
            score_portfolio(records[:1], wx_map, labels_map)

    def test_env_factors_shared_per_context_pair(self):
        ids = [f"CVE-2020-000{i}" for i in range(1, 7)]
        records = [CveRecord(cve_id, "text", published_score=Decimal("5.0")) for cve_id in ids]
        pairs = {
            ids[0]: (Exposure.PUBLIC, Criticality.HIGH),
            ids[1]: (Exposure.PUBLIC, Criticality.HIGH),
            ids[2]: (Exposure.PRIVATE, Criticality.LOW),
            ids[3]: (Exposure.PUBLIC, Criticality.HIGH),
        }
        # Equal pairs built apart: the env cache keys on the pair's value.
        assert pairs[ids[0]] is not pairs[ids[1]]
        env = [
            s.env
            for s in score_portfolio(records, {}, {cve_id: labels() for cve_id in ids}, pairs)
        ]
        assert env[0] is env[1] is env[3]
        assert env[2] is not env[0]
        assert env[4] is env[5] is NEUTRAL_ENV
        assert [str(e) for e in env] == ["2.25", "2.25", "1.00", "2.25", "1", "1"]

    def test_hand_built_pairs_score_as_loaded_ones(self, tmp_path):
        # A context is a plain (exposure, criticality) pair: tuples built
        # by hand, one per CVE, score exactly as the loader's shared ones.
        combos = list(product(Exposure, Criticality))
        ids = [f"CVE-2020-{k:04d}" for k in range(1, 15)]
        records = [CveRecord(cve_id, "text", published_score=Decimal("7.5")) for cve_id in ids]
        chosen = {cve_id: combos[k % len(combos)] for k, cve_id in enumerate(ids[:12])}
        path = write_jsonl(tmp_path / "context.jsonl", [
            {"cve": cve_id, "exposure": e.value, "criticality": c.value}
            for cve_id, (e, c) in chosen.items()
        ])
        loaded = load_asset_context(path)
        by_hand = {cve_id: (e, c) for cve_id, (e, c) in chosen.items()}
        assert loaded == by_hand
        assert all(by_hand[cve_id] is not loaded[cve_id] for cve_id in chosen)
        labels_map = {cve_id: labels(k % 3, k % 2) for k, cve_id in enumerate(ids)}
        expected = score_portfolio(records, {ids[0]: 2}, labels_map, loaded)
        scored = score_portfolio(records, {ids[0]: 2}, labels_map, by_hand)
        assert scored == expected
        assert [(str(s.env), str(s.threat_score)) for s in scored] == [
            (str(s.env), str(s.threat_score)) for s in expected
        ]
        assert [str(s.env) for s in scored[:6]] == [
            "1.50", "1.80", "2.25", "1.00", "1.20", "1.50"
        ]
        assert scored[12].env is scored[13].env is NEUTRAL_ENV
