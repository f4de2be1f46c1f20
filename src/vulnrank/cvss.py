"""CVSS v3.1 base metrics: vector parsing, base score computation, severity bands.

Base metric group only. Temporal and environmental metric tokens are
rejected rather than ignored, so a vector string either describes exactly
the eight base metrics or it does not parse.

Parsing and scoring are memoised: a portfolio repeats a small set of
vector strings, and only 2,592 base vectors exist.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from enum import Enum
from itertools import product
from typing import Iterator, NamedTuple


class CvssError(ValueError):
    """Base class for vector parsing and scoring errors."""


class MalformedVector(CvssError):
    """Vector string syntax is broken or carries a non-base metric token."""


class UnknownMetricValue(CvssError):
    """A metric key carries a value outside its legal set."""


class DuplicateMetric(CvssError):
    """The same metric key appears more than once."""


class MissingMetric(CvssError):
    """One of the eight base metrics is absent."""


class DomainError(CvssError):
    """Numeric input outside [0, 10]."""


class IdentityEnum(Enum):
    """An Enum that hashes by identity, as it compares: ``Enum.__hash__``
    runs in Python, ``object.__hash__`` does not. Every vulnrank enum is one."""

    __hash__ = object.__hash__


class AttackVector(IdentityEnum):
    NETWORK = "N"
    ADJACENT = "A"
    LOCAL = "L"
    PHYSICAL = "P"


class AttackComplexity(IdentityEnum):
    LOW = "L"
    HIGH = "H"


class PrivilegesRequired(IdentityEnum):
    NONE = "N"
    LOW = "L"
    HIGH = "H"


class UserInteraction(IdentityEnum):
    NONE = "N"
    REQUIRED = "R"


class Scope(IdentityEnum):
    UNCHANGED = "U"
    CHANGED = "C"


class ImpactMetric(IdentityEnum):
    """Shared value set for confidentiality, integrity, and availability."""

    NONE = "N"
    LOW = "L"
    HIGH = "H"


class Severity(IdentityEnum):
    NONE = "None"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CRITICAL = "Critical"


# Numeric weights for each metric value.
AV_WEIGHT = {
    AttackVector.NETWORK: 0.85,
    AttackVector.ADJACENT: 0.62,
    AttackVector.LOCAL: 0.55,
    AttackVector.PHYSICAL: 0.2,
}
AC_WEIGHT = {AttackComplexity.LOW: 0.77, AttackComplexity.HIGH: 0.44}
# PR weight depends on scope.
PR_WEIGHT_UNCHANGED = {
    PrivilegesRequired.NONE: 0.85,
    PrivilegesRequired.LOW: 0.62,
    PrivilegesRequired.HIGH: 0.27,
}
PR_WEIGHT_CHANGED = {
    PrivilegesRequired.NONE: 0.85,
    PrivilegesRequired.LOW: 0.68,
    PrivilegesRequired.HIGH: 0.50,
}
UI_WEIGHT = {UserInteraction.NONE: 0.85, UserInteraction.REQUIRED: 0.62}
IMPACT_WEIGHT = {ImpactMetric.HIGH: 0.56, ImpactMetric.LOW: 0.22, ImpactMetric.NONE: 0.0}

VECTOR_PREFIX = "CVSS:3.1"

# Each base metric's vector key and value enum, in CvssVector field order,
# which is also the order of the serialized form and of a missing-metric error.
_METRICS = {
    "AV": AttackVector,
    "AC": AttackComplexity,
    "PR": PrivilegesRequired,
    "UI": UserInteraction,
    "S": Scope,
    "C": ImpactMetric,
    "I": ImpactMetric,
    "A": ImpactMetric,
}
# Each metric key's members by their vector value: parsing looks a value
# up here rather than through the Python-level ``Enum.__call__``.
_MEMBERS = {key: {m.value: m for m in enum_cls} for key, enum_cls in _METRICS.items()}


class CvssVector(NamedTuple):
    """The eight base metrics of one vulnerability.

    It hashes as the tuple of its eight members, each by identity
    (``IdentityEnum``), so ``base_score``'s cache lookup, once per
    record, runs no Python code.
    """

    attack_vector: AttackVector
    attack_complexity: AttackComplexity
    privileges_required: PrivilegesRequired
    user_interaction: UserInteraction
    scope: Scope
    confidentiality: ImpactMetric
    integrity: ImpactMetric
    availability: ImpactMetric

    def to_string(self) -> str:
        """Canonical vector form, prefix always included."""
        pairs = zip(_METRICS, self)
        return "/".join([VECTOR_PREFIX, *(f"{key}:{member.value}" for key, member in pairs)])


@functools.lru_cache(maxsize=4096)
def parse_vector(text: str) -> CvssVector:
    """Decode a CVSS v3.1 base vector string.

    The 'CVSS:3.1/' prefix is optional and metric order is free, but each
    of the eight base metrics must appear exactly once. Any other token
    (including temporal or environmental metrics) is rejected.

    Memoised on the text; the cache is bounded because spellings of one
    vector (order, prefix, whitespace) are unbounded. A rejected text is
    not cached and raises on every call.
    """
    body = text.strip()
    if body.startswith(VECTOR_PREFIX + "/"):
        body = body[len(VECTOR_PREFIX) + 1 :]
    elif body == VECTOR_PREFIX:
        body = ""
    if not body:
        raise MissingMetric(f"vector has no metrics: {text!r}")

    seen: dict[str, Enum] = {}
    for token in body.split("/"):
        key, sep, raw = token.partition(":")
        if not sep or not key or not raw:
            raise MalformedVector(f"bad metric token {token!r}")
        members = _MEMBERS.get(key)
        if members is None:
            raise MalformedVector(f"unknown metric key in token {token!r}")
        if key in seen:
            raise DuplicateMetric(f"metric {key} given more than once (token {token!r})")
        member = members.get(raw)
        if member is None:
            raise UnknownMetricValue(f"illegal value in token {token!r}")
        seen[key] = member

    missing = [key for key in _METRICS if key not in seen]
    if missing:
        raise MissingMetric(f"missing metric(s): {', '.join(missing)}")
    return CvssVector._make([seen[key] for key in _METRICS])


def round_up(x: float) -> Decimal:
    """Smallest one-decimal value >= x, as a one-place Decimal.

    Works at 1e-5 precision so that float representation error in the
    sub-score products cannot push a score across a tenth boundary. This
    is the one step from the spec's float formula to an exact score.
    """
    if x < 0 or x > 10:
        raise DomainError(f"score input {x!r} outside [0, 10]")
    scaled = math.floor(x * 100000 + 0.5)
    return Decimal(-(-scaled // 10000)).scaleb(-1)


def severity_of(value: Decimal) -> Severity:
    """Map a one-decimal score to its severity band."""
    if not 0 <= value <= 10:
        raise DomainError(f"score {value} outside [0.0, 10.0]")
    if value == 0:
        return Severity.NONE
    if value < 4:
        return Severity.LOW
    if value < 7:
        return Severity.MEDIUM
    if value < 9:
        return Severity.HIGH
    return Severity.CRITICAL


# No size bound needed: only the 2,592 base vectors can be cached.
@functools.lru_cache(maxsize=None)
def base_score(v: CvssVector) -> Decimal:
    """Compute the base score of a vector: a one-place Decimal in [0.0, 10.0].

    Impact and exploitability sub-scores are combined and rounded up to
    one decimal; a vector with no impact at all scores 0.0. Memoised per
    vector, so every caller shares one Decimal per vector. Its severity
    band is ``severity_of(score)``.
    """
    c = IMPACT_WEIGHT[v.confidentiality]
    i = IMPACT_WEIGHT[v.integrity]
    a = IMPACT_WEIGHT[v.availability]
    iss = 1.0 - (1.0 - c) * (1.0 - i) * (1.0 - a)

    if v.scope is Scope.UNCHANGED:
        impact = 6.42 * iss
        pr = PR_WEIGHT_UNCHANGED[v.privileges_required]
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
        pr = PR_WEIGHT_CHANGED[v.privileges_required]

    exploitability = (
        8.22
        * AV_WEIGHT[v.attack_vector]
        * AC_WEIGHT[v.attack_complexity]
        * pr
        * UI_WEIGHT[v.user_interaction]
    )

    if impact <= 0:
        return Decimal("0.0")
    if v.scope is Scope.UNCHANGED:
        return round_up(min(impact + exploitability, 10.0))
    return round_up(min(1.08 * (impact + exploitability), 10.0))


def iter_vectors() -> Iterator[CvssVector]:
    """Yield all 2,592 possible base vectors in a fixed order."""
    return map(CvssVector._make, product(*_METRICS.values()))
