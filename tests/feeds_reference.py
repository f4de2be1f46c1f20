"""Reference feed loaders: one ``where`` string and helper calls per line.

Kept apart from the loaders in ``vulnrank.feeds``, which read fields
inline and format ``<file>:<line>`` only when they raise, as the oracle
the differential test compares them with: for any feed, both return
equal records and log the same warning, or raise the same exception type
with the same message. The line reader is ``jsonl_reference.iter_jsonl``,
and a CVE id is checked against ``vulnrank.feeds.CVE_ID_RE`` as a whole
string, the rule both versions share.
"""

import logging
from decimal import Decimal

from vulnrank.cvss import CvssError, parse_vector
from vulnrank.feeds import (
    CVE_ID_RE,
    AssetContext,
    Criticality,
    CveRecord,
    DuplicateId,
    Exposure,
    InvalidCategory,
    LabeledExample,
    Labeler,
    ReferenceEntry,
    ReferenceSource,
    SchemaError,
    parse_ts,
)

from jsonl_reference import iter_jsonl

logger = logging.getLogger("vulnrank.feeds")


def _member(enum_cls, raw):
    for member in enum_cls:
        if isinstance(raw, str) and member.value == raw:
            return member
    return None


def _require(obj: dict, key: str, where: str):
    if key not in obj or obj[key] is None:
        raise SchemaError(f"{where}: missing field '{key}'")
    return obj[key]


def _cve_id(raw, where: str) -> str:
    if not isinstance(raw, str) or not CVE_ID_RE.fullmatch(raw):
        shown = repr(raw) if isinstance(raw, str) else f"'{raw}'"
        raise SchemaError(f"{where}: {shown} is not a CVE id")
    return raw


def _reference(obj: dict, where: str, unknown: list) -> ReferenceEntry:
    url = _require(obj, "url", where)
    if not isinstance(url, str) or not url:
        raise SchemaError(f"{where}: reference url must be a non-empty string")
    source = _member(ReferenceSource, obj.get("source", "Other"))
    if source is None:
        unknown.append(obj.get("source", "Other"))
        source = ReferenceSource.OTHER
    return ReferenceEntry(url=url, source=source, is_exploit=bool(obj.get("exploit", False)))


def _published_score(raw, where: str) -> Decimal:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"{where}: score {raw!r} is not a number")
    if not 0 <= raw <= 10:
        raise SchemaError(f"{where}: score {raw!r} outside [0, 10]")
    score = Decimal(str(raw))
    if score.as_tuple().exponent < -1:
        raise SchemaError(f"{where}: score {raw!r} has more than one decimal")
    return score.copy_abs().quantize(Decimal("0.1"))


def _warn_unknown(path, unknown: list) -> None:
    if unknown:
        logger.warning(
            "%s: %d reference(s) with unknown source downgraded to Other", path, len(unknown)
        )


def load_cve_records(path) -> list[CveRecord]:
    records = []
    seen = set()
    unknown = []
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        cve_id = _cve_id(_require(obj, "id", where), where)
        if cve_id in seen:
            raise DuplicateId(f"{where}: duplicate CVE id {cve_id}")
        seen.add(cve_id)
        description = _require(obj, "description", where)
        if not isinstance(description, str):
            raise SchemaError(f"{where}: description must be a string")
        vector = None
        if obj.get("vector") is not None:
            if not isinstance(obj["vector"], str):
                raise SchemaError(f"{where}: vector must be a string")
            try:
                vector = parse_vector(obj["vector"])
            except CvssError as exc:
                raise SchemaError(f"{where}: bad vector: {exc}") from None
        score = None
        if obj.get("score") is not None:
            score = _published_score(obj["score"], where)
        refs = obj.get("references", [])
        if not isinstance(refs, list) or not all(isinstance(r, dict) for r in refs):
            raise SchemaError(f"{where}: references must be a list of objects")
        refs = tuple(_reference(r, where, unknown) for r in refs)
        records.append(CveRecord(cve_id, description, vector, score, refs))
    _warn_unknown(path, unknown)
    return records


def load_exploit_refs(path) -> dict[str, list[ReferenceEntry]]:
    grouped = {}
    seen_urls = {}
    unknown = []
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        cve_id = _cve_id(_require(obj, "cve", where), where)
        entry = _reference(obj, where, unknown)
        urls = seen_urls.setdefault(cve_id, set())
        if entry.url in urls:
            continue
        urls.add(entry.url)
        grouped.setdefault(cve_id, []).append(entry)
    _warn_unknown(path, unknown)
    return grouped


def load_labels(path) -> list[LabeledExample]:
    examples = []
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        cve_id = _cve_id(_require(obj, "cve", where), where)
        utility = _require(obj, "utility", where)
        opportune = _require(obj, "opportune", where)
        labeler = _member(Labeler, obj.get("labeler"))
        if labeler is None:
            raise InvalidCategory(f"{where}: labeler must be SME or Model")
        ts = parse_ts(_require(obj, "ts", where), where)
        for name, value, legal in (("utility", utility, (0, 1, 2)), ("opportune", opportune, (0, 1))):
            if not isinstance(value, int) or isinstance(value, bool) or value not in legal:
                raise InvalidCategory(f"{where}: {name} must be one of {legal}, got {value!r}")
        examples.append(LabeledExample(cve_id, utility, opportune, labeler, ts))
    return examples


def load_asset_context(path) -> dict[str, AssetContext]:
    contexts = {}
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        cve_id = _cve_id(_require(obj, "cve", where), where)
        if cve_id in contexts:
            raise DuplicateId(f"{where}: duplicate context entry for {cve_id}")
        exposure = _member(Exposure, obj.get("exposure"))
        criticality = _member(Criticality, obj.get("criticality"))
        if exposure is None or criticality is None:
            raise InvalidCategory(
                f"{where}: exposure must be Public/Private and criticality Low/Medium/High"
            )
        contexts[cve_id] = AssetContext(cve_id, exposure, criticality)
    return contexts
