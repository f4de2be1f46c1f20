"""Reference feed loaders: one ``where`` string and helper calls per line.

Kept apart from the loaders in ``vulnrank.feeds``, which read fields
inline and format ``<file>:<line>`` only when they raise, as the oracle
the differential test compares them with: for any feed, both return
equal records and log the same warning, or raise the same exception type
with the same message. The line reader is ``jsonl_reference.iter_jsonl``,
and a CVE id is checked against ``vulnrank.feeds.CVE_ID_RE`` as a whole
string, the rule both versions share. ``merge_label_rows`` is the label
store's merge rule as it was first written down, for ``fold_labels``.
"""

import logging
from datetime import datetime
from decimal import Decimal

from vulnrank.cvss import CvssError, parse_vector
from vulnrank.feeds import (
    CVE_ID_RE,
    Criticality,
    CveRecord,
    DuplicateId,
    Exposure,
    InvalidCategory,
    Judgment,
    Labeler,
    SchemaError,
    parse_ts,
)

from jsonl_reference import iter_jsonl

logger = logging.getLogger("vulnrank.feeds")

# Written out here rather than imported, so the downgrade count is
# checked against the documented names.
KNOWN_SOURCES = ("ExploitDB", "Metasploit", "GitHub", "Other")


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


def _reference(obj: dict, where: str, unknown: list) -> tuple[str, bool]:
    url = _require(obj, "url", where)
    if not isinstance(url, str) or not url:
        raise SchemaError(f"{where}: reference url must be a non-empty string")
    source = obj.get("source", "Other")
    if source not in KNOWN_SOURCES:
        unknown.append(source)
    exploit = obj.get("exploit")
    if exploit is None:
        exploit = False
    elif not isinstance(exploit, bool):
        raise SchemaError(f"{where}: exploit must be true or false")
    return url, exploit


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
        records.append(CveRecord(cve_id, description, vector, score))
    return records


def load_exploit_refs(path) -> dict[str, dict[str, bool]]:
    refs = {}
    unknown = []
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        cve_id = _cve_id(_require(obj, "cve", where), where)
        url, exploit = _reference(obj, where, unknown)
        urls = refs.setdefault(cve_id, {})
        if url not in urls:
            urls[url] = exploit
    _warn_unknown(path, unknown)
    return refs


def label_rows(path) -> list[tuple[str, Judgment, datetime]]:
    rows = []
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
        rows.append((cve_id, Judgment(utility, opportune, labeler), ts))
    return rows


def merge_label_rows(rows) -> tuple[dict[str, Judgment], dict[str, datetime]]:
    """Resolve to one effective label per CVE, as ``({cve_id: judgment},
    {cve_id: stamp})`` in the order the CVEs first appear.

    SME judgments always beat model predictions; within the same
    provenance the newest timestamp wins, and on an exact tie the later
    entry in iteration order wins.
    """
    entries = {}
    for index, (cve_id, judgment, ts) in enumerate(rows):
        rank = (judgment.labeler is Labeler.SME, ts, index)
        entries.setdefault(cve_id, []).append((rank, judgment, ts))
    winners = {cve_id: max(found, key=lambda entry: entry[0]) for cve_id, found in entries.items()}
    return (
        {cve_id: judgment for cve_id, (_, judgment, _) in winners.items()},
        {cve_id: ts for cve_id, (_, _, ts) in winners.items()},
    )


def load_asset_context(path) -> dict[str, tuple[Exposure, Criticality]]:
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
        contexts[cve_id] = (exposure, criticality)
    return contexts
