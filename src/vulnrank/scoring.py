"""The unbounded threat score used for stack ranking.

    (cvss + wx) * (utility + 1) * (opportune + 1) * env

A scored row holds each factor as a plain value; ``env`` is the product
of the asset's exposure and criticality weights. All arithmetic is
exact: CVSS scores are one-decimal values, exploit counts and category
multipliers are small integers, and environmental weights are decimal
fractions, so every score is computed in Decimal with no float noise and
no rounding. Scores have no upper bound.
"""

from __future__ import annotations

import logging
from decimal import Decimal
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from vulnrank.cvss import base_score
from vulnrank.feeds import Criticality, CveRecord, Exposure, Judgment

logger = logging.getLogger(__name__)


class ScoringError(ValueError):
    """Base class for scoring failures."""


class InvalidConfig(ScoringError):
    """A configuration value, such as an environmental weight, is unusable."""


class MissingLabels(ScoringError):
    """Records lack triage labels."""

    def __init__(self, cve_ids: Sequence[str]):
        self.cve_ids = tuple(cve_ids)
        super().__init__(f"no triage labels for: {', '.join(self.cve_ids)}")


class MissingCvss(ScoringError):
    """Records carry neither a vector nor a published score."""

    def __init__(self, cve_ids: Sequence[str]):
        self.cve_ids = tuple(cve_ids)
        super().__init__(f"no CVSS vector or score for: {', '.join(self.cve_ids)}")


def format_quantity(value: Decimal) -> str:
    """Render a Decimal without trailing zeros or exponent notation."""
    return format(value.normalize(), "f")


# The environmental product of a CVE without asset context.
NEUTRAL_ENV = Decimal(1)


# The weight of each exposure and each criticality, read-only.
DEFAULT_ENV_WEIGHTS: Mapping[Exposure | Criticality, Decimal] = MappingProxyType({
    Exposure.PUBLIC: Decimal("1.5"),
    Exposure.PRIVATE: Decimal("1.0"),
    Criticality.HIGH: Decimal("1.5"),
    Criticality.MEDIUM: Decimal("1.2"),
    Criticality.LOW: Decimal("1.0"),
})


class _RowFields(NamedTuple):
    cve_id: str
    cvss: Decimal
    wx: int
    labels: Judgment
    env: Decimal
    threat_score: Decimal


class ScoredVulnerability(_RowFields):
    """One CVE with all scoring inputs and its final threat score.

    ``cvss`` is the one-place CVSS ``Decimal``, ``wx`` the exploit count,
    ``labels`` the CVE's ``Judgment`` and ``env`` the environmental
    product (``NEUTRAL_ENV`` without asset context). ``threat_score`` is
    not a constructor argument: it is computed from the other fields, so
    it always matches them. ``_make``, and so ``_replace``, and a copy or
    an unpickled row compute it again too, whatever threat score they are
    given.
    """

    __slots__ = ()

    def __new__(cls, cve_id: str, cvss: Decimal, wx: int, labels: Judgment, env: Decimal):
        threat = threat_score(cvss, wx, labels, env)
        return tuple.__new__(cls, (cve_id, cvss, wx, labels, env, threat))

    @classmethod
    def _make(cls, iterable) -> ScoredVulnerability:
        return cls(*tuple(iterable)[:5])

    def __getnewargs__(self) -> tuple:
        return self[:5]


def env_factor(
    ctx: tuple[Exposure, Criticality] | None,
    weights: Mapping[Exposure | Criticality, Decimal] = DEFAULT_ENV_WEIGHTS,
) -> Decimal:
    """Exposure weight times criticality weight for one (exposure,
    criticality) pair, each looked up in ``weights``; ``NEUTRAL_ENV`` for
    None. A member without a weight, or a weight that is not positive,
    raises ``InvalidConfig``."""
    if ctx is None:
        return NEUTRAL_ENV
    exposure, criticality = ctx
    try:
        exposure_weight = weights[exposure]
        criticality_weight = weights[criticality]
    except KeyError as exc:
        raise InvalidConfig(f"no weight configured for {exc.args[0]}") from None
    for w in (exposure_weight, criticality_weight):
        if w <= 0:
            raise InvalidConfig(f"environmental weight {w} must be positive")
    return exposure_weight * criticality_weight


def threat_score(
    cvss: Decimal, wx: int, labels: Judgment, env: Decimal = NEUTRAL_ENV
) -> Decimal:
    """Exact threat score from a one-place Decimal CVSS; unbounded above,
    never rounded. ``labels`` gives its ``utility`` and ``opportune``."""
    if not 0 <= cvss <= 10:
        raise ScoringError(f"cvss score {cvss} outside [0, 10]")
    if wx < 0:
        raise ScoringError(f"wx count {wx} must be non-negative")
    if not env > 0:
        raise ScoringError(f"env product {env} must be positive")
    # The category factors are integers, so they leave the exponent as it is.
    return (cvss + wx) * ((labels.utility + 1) * (labels.opportune + 1)) * env


def resolve_base_score(record: CveRecord) -> Decimal:
    """The CVSS score used for scoring a record: the vector's base score,
    else the record's own ``published_score`` object.

    A vector always wins over a published score; disagreement is logged,
    since published scores drift across NVD revisions.
    """
    if record.vector is not None:
        computed = base_score(record.vector)
        if record.published_score is not None and record.published_score != computed:
            logger.warning(
                "%s: vector-derived score %s disagrees with published %s; using vector",
                record.cve_id,
                computed,
                record.published_score,
            )
        return computed
    if record.published_score is not None:
        return record.published_score
    raise MissingCvss([record.cve_id])


_TENTH = Decimal("0.1")


def score_portfolio(
    records: Iterable[CveRecord],
    wx_map: Mapping[str, int] | None = None,
    labels_map: Mapping[str, Judgment] | None = None,
    ctx_map: Mapping[str, tuple[Exposure, Criticality]] | None = None,
    env_weights: Mapping[Exposure | Criticality, Decimal] = DEFAULT_ENV_WEIGHTS,
) -> list[ScoredVulnerability]:
    """Score every record in one pass; output order follows input order.

    ``records`` may be any iterable, a generator such as
    ``feeds.iter_cve_records`` included. It is consumed once, and no
    record is kept after it is scored. An error the iterable raises
    propagates at once.

    ``wx_map`` holds each CVE's exploit count as an int; records without
    an entry there count zero exploits, and a negative count raises
    ``ScoringError``. ``labels_map`` holds each CVE's ``Judgment``, as
    ``feeds.load_judgments`` reads it; a row keeps it as its ``labels``.
    ``ctx_map`` holds (exposure, criticality) pairs; a record without one
    scores with ``NEUTRAL_ENV``, and equal pairs share one env
    ``Decimal``. ``threat_score`` runs once
    per distinct (CVSS, wx, utility, opportune, context), and rows whose
    threat scores are equal in value and exponent share one ``Decimal``.

    Records with neither a vector nor a published score, and records
    without an entry in ``labels_map`` (``vulnrank predict`` fills them
    in), are collected during the pass. After it, the first kind raises
    ``MissingCvss`` and else the second ``MissingLabels``, each naming
    every such CVE in input order; then a ``ScoringError`` from the first
    record that failed to score, if any.
    """
    wx_map = wx_map or {}
    labels_map = labels_map or {}
    ctx_map = ctx_map or {}

    envs: dict[tuple[Exposure, Criticality] | None, Decimal] = {}
    # Each threat by its inputs, and each distinct threat by value and
    # exponent. Equal Decimals of other exponents (7 and 7.0) render
    # differently, so only one-place CVSS values key by value; any other
    # keys by str(), which names its exponent.
    threats: dict[tuple, Decimal] = {}
    shared: dict[tuple[Decimal, int], Decimal] = {}
    no_cvss: list[str] = []
    unlabeled: list[str] = []
    failure: ScoringError | None = None
    scored = []
    # Rows are built past ScoredVulnerability.__new__, which would compute
    # each threat score again: a row's threat_score is the shared Decimal
    # equal in value and exponent to threat_score of its own fields.
    new_row = tuple.__new__
    for record in records:
        cve_id = record.cve_id
        labels = labels_map.get(cve_id)
        if not record.scoring_eligible:
            no_cvss.append(cve_id)
        if labels is None:
            unlabeled.append(cve_id)
        # Once the pass is bound to raise, it only collects ids.
        if no_cvss or unlabeled or failure is not None:
            continue
        try:
            ctx = ctx_map.get(cve_id)
            env = envs.get(ctx)
            if env is None:
                env = envs[ctx] = env_factor(ctx, env_weights)
            cvss = resolve_base_score(record)
            wx = wx_map.get(cve_id, 0)
            value = cvss if _TENTH.same_quantum(cvss) else str(cvss)
            key = (value, wx, labels.utility, labels.opportune, ctx)
            threat = threats.get(key)
            if threat is None:
                threat = threat_score(cvss, wx, labels, env)
                threat = shared.setdefault((threat, threat.as_tuple().exponent), threat)
                threats[key] = threat
        except ScoringError as exc:
            failure = exc
            continue
        scored.append(new_row(ScoredVulnerability, (cve_id, cvss, wx, labels, env, threat)))

    if no_cvss:
        raise MissingCvss(no_cvss)
    if unlabeled:
        raise MissingLabels(unlabeled)
    if failure is not None:
        raise failure
    return scored
