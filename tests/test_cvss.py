"""CVSS vector parsing, base scores, and severity bands."""

from decimal import Decimal

import pytest

from vulnrank.cvss import (
    AttackComplexity,
    AttackVector,
    DomainError,
    DuplicateMetric,
    ImpactMetric,
    MalformedVector,
    MissingMetric,
    PrivilegesRequired,
    Scope,
    Severity,
    UnknownMetricValue,
    UserInteraction,
    base_score,
    iter_vectors,
    parse_vector,
    round_up,
    severity_of,
)

from cvss_reference import reference_base_score, reference_severity
from conftest import WORKED_TRIO


class TestParseVector:
    def test_nvd_vector_smb(self):
        v = parse_vector("CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H")
        assert v.attack_vector is AttackVector.NETWORK
        assert v.attack_complexity is AttackComplexity.HIGH
        assert v.privileges_required is PrivilegesRequired.NONE
        assert v.user_interaction is UserInteraction.NONE
        assert v.scope is Scope.UNCHANGED
        assert v.confidentiality is ImpactMetric.HIGH
        assert v.integrity is ImpactMetric.HIGH
        assert v.availability is ImpactMetric.HIGH

    def test_prefix_optional(self):
        v = parse_vector("AV:P/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N")
        assert v.attack_vector is AttackVector.PHYSICAL
        assert v.attack_complexity is AttackComplexity.LOW
        assert v.confidentiality is ImpactMetric.NONE
        assert v.integrity is ImpactMetric.NONE
        assert v.availability is ImpactMetric.NONE

    def test_metric_order_free(self):
        canonical = parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")
        scrambled = parse_vector("A:N/I:N/C:H/S:U/UI:N/PR:N/AC:L/AV:N")
        assert canonical == scrambled

    def test_missing_metric_named(self):
        with pytest.raises(MissingMetric, match="PR"):
            parse_vector("CVSS:3.1/AV:N/AC:L")

    def test_duplicate_metric_named(self):
        with pytest.raises(DuplicateMetric, match="AV"):
            parse_vector("AV:N/AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")

    def test_unknown_value_named(self):
        with pytest.raises(UnknownMetricValue, match="AV:X"):
            parse_vector("AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")

    def test_temporal_metric_rejected(self):
        # E is a temporal metric: rejected, not ignored.
        with pytest.raises(MalformedVector, match="E:F"):
            parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N/E:F")

    def test_bad_syntax(self):
        with pytest.raises(MalformedVector):
            parse_vector("AV:N/AC;L/PR:N/UI:N/S:U/C:H/I:N/A:N")
        with pytest.raises(MalformedVector):
            parse_vector("AV:N//AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")

    def test_empty_input(self):
        with pytest.raises(MissingMetric):
            parse_vector("")

    def test_rejection_is_not_memoised(self):
        for _ in range(3):
            with pytest.raises(MissingMetric, match="PR"):
                parse_vector("AV:N/AC:L/UI:N/S:U/C:H/I:N/A:N")
            with pytest.raises(UnknownMetricValue):
                parse_vector("AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")

    def test_memo_is_bounded_and_keyed_on_text(self):
        assert parse_vector.cache_info().maxsize is not None
        text = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N"
        assert parse_vector(text) is parse_vector(text)
        assert parse_vector(text) == parse_vector("C:H/I:N/A:N/AV:N/AC:L/PR:N/UI:N/S:U")

    def test_round_trip_all_vectors(self):
        for v in iter_vectors():
            assert parse_vector(v.to_string()) == v

    def test_serialized_form_carries_prefix(self):
        v = parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")
        assert v.to_string().startswith("CVSS:3.1/")

    def test_to_string_is_canonical(self):
        v = parse_vector("A:H/I:L/C:N/S:C/UI:R/PR:H/AC:H/AV:A")
        assert v.to_string() == "CVSS:3.1/AV:A/AC:H/PR:H/UI:R/S:C/C:N/I:L/A:H"

    def test_missing_metrics_listed_in_canonical_order(self):
        with pytest.raises(MissingMetric) as raised:
            parse_vector("I:N/S:U/UI:N/AC:L/AV:N")
        assert str(raised.value) == "missing metric(s): PR, C, A"


def test_iter_vectors_order():
    # tests/test_golden.py builds its feeds in this order.
    texts = [v.to_string() for v in iter_vectors()]
    assert len(set(texts)) == len(texts) == 2592
    assert texts[0] == "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"
    assert texts[1] == "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:L"
    assert texts[-1] == "CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:C/C:H/I:H/A:H"


class TestRoundUp:
    def test_exact_tenth_preserved(self):
        assert round_up(4.0) == Decimal("4.0")

    def test_smb_subscore_sum(self):
        # Impact 6.42*(1-0.44^3) = 5.873119... plus exploitability
        # 8.22*0.85*0.44*0.85*0.85 = 2.221167...; sum 8.09428... -> 8.1.
        assert round_up(8.0943) == Decimal("8.1")

    def test_rounds_up_not_nearest(self):
        assert round_up(4.02) == Decimal("4.1")

    def test_boundaries(self):
        assert round_up(0.0) == Decimal("0.0")
        assert round_up(10.0) == Decimal("10.0")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            round_up(-0.1)
        with pytest.raises(DomainError):
            round_up(10.2)


class TestBaseScore:
    @pytest.mark.parametrize("rec", WORKED_TRIO, ids=lambda r: r["id"])
    def test_worked_examples(self, rec):
        result = base_score(parse_vector(rec["vector"]))
        assert result == rec["score"]
        assert severity_of(result).value == rec["severity"]

    def test_zero_impact_scores_zero(self):
        result = base_score(parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"))
        assert result == Decimal("0.0")
        assert severity_of(result) is Severity.NONE

    def test_scope_changed_max(self):
        result = base_score(parse_vector("AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H"))
        assert result == Decimal("10.0")
        assert severity_of(result) is Severity.CRITICAL

    def test_classic_network_rce(self):
        result = base_score(parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"))
        assert result == Decimal("9.8")

    def test_score_serializes_one_decimal(self):
        result = base_score(parse_vector("CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"))
        assert str(result) == "8.1"
        assert str(base_score(parse_vector("AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H"))) == "10.0"


class TestSeverityBands:
    def test_worked_example_band(self):
        assert severity_of(Decimal("6.8")) is Severity.MEDIUM

    def test_critical_floor(self):
        assert severity_of(Decimal("9.0")) is Severity.CRITICAL

    def test_zero_is_none(self):
        assert severity_of(Decimal("0.0")) is Severity.NONE

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("0.1", Severity.LOW),
            ("3.9", Severity.LOW),
            ("4.0", Severity.MEDIUM),
            ("6.9", Severity.MEDIUM),
            ("7.0", Severity.HIGH),
            ("8.9", Severity.HIGH),
            ("10.0", Severity.CRITICAL),
        ],
    )
    def test_band_boundaries(self, value, expected):
        assert severity_of(Decimal(value)) is expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            severity_of(Decimal("-0.1"))
        with pytest.raises(DomainError):
            severity_of(Decimal("10.1"))

    def test_bands_partition_without_gaps(self):
        # Every one-decimal value in [0, 10] lands in exactly one band and
        # renders as written. The table is built from the integer and
        # tenth digits, with no float in between.
        bands = (Severity.LOW,) * 4 + (Severity.MEDIUM,) * 3 + (Severity.HIGH,) * 2
        for tenths in range(0, 101):
            units, tenth = divmod(tenths, 10)
            text = f"{units}.{tenth}"
            if tenths == 0:
                expected = Severity.NONE
            elif units >= 9:
                expected = Severity.CRITICAL
            else:
                expected = bands[units]
            value = Decimal(text)
            assert severity_of(value) is expected, text
            assert str(value) == text


class TestAgainstReference:
    def test_all_vectors_match_reference(self):
        # Once computing every score after clearing the memo, once
        # reading every score back from it.
        base_score.cache_clear()
        for memo in ("cold", "warm"):
            mismatches = []
            for v in iter_vectors():
                got = base_score(v)
                want = reference_base_score(
                    v.attack_vector.value,
                    v.attack_complexity.value,
                    v.privileges_required.value,
                    v.user_interaction.value,
                    v.scope.value,
                    v.confidentiality.value,
                    v.integrity.value,
                    v.availability.value,
                )
                if float(got) != want or severity_of(got).value != reference_severity(want):
                    mismatches.append((v.to_string(), got, want))
            assert mismatches == [], memo
        info = base_score.cache_info()
        assert (info.currsize, info.hits) == (2592, 2592)

    def test_all_scores_one_decimal_in_range(self):
        for v in iter_vectors():
            value = base_score(v)
            assert type(value) is Decimal and value.as_tuple().exponent == -1, value
            assert Decimal("0.0") <= value <= Decimal("10.0")


class TestMonotonicity:
    IMPACT_STEPS = [(ImpactMetric.NONE, ImpactMetric.LOW), (ImpactMetric.LOW, ImpactMetric.HIGH)]

    def test_raising_impact_never_decreases(self):
        for v in iter_vectors():
            before = base_score(v)
            for field in ("confidentiality", "integrity", "availability"):
                current = getattr(v, field)
                for low, high in self.IMPACT_STEPS:
                    if current is low:
                        raised = v._replace(**{field: high})
                        assert base_score(raised) >= before, v.to_string()

    def test_lowering_complexity_never_decreases(self):
        for v in iter_vectors():
            if v.attack_complexity is AttackComplexity.HIGH:
                eased = v._replace(attack_complexity=AttackComplexity.LOW)
                assert base_score(eased) >= base_score(v), v.to_string()
