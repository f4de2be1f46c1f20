"""Newline-delimited JSON feeds: CVE records, exploit references, labels, asset context.

Every loader either returns fully validated records or raises with the
file and line of the first offending record; there are no partially
valid datasets. A CVE id is ``CVE-``, four ASCII digits, ``-`` and four
or more ASCII digits, as the whole string. Files are UTF-8, one JSON
object per line. Lines end at ``\n`` and are read and decoded one at a
time, so a byte that is not UTF-8 names its line; a line holding only
whitespace (``str.isspace``) is skipped. Each line must hold exactly one
JSON value, as ``json.loads`` reads it: JSON whitespace (space, tab, CR,
LF) may surround it, and nothing else may. An integer too long for
``int`` or nesting deeper than the recursion limit is invalid JSON too.

Field names are fixed: CVE records use ``id``, ``description``,
``vector``, ``score``, ``references`` (a list of ``{url, source, exploit}``
objects);
labels use ``cve``, ``utility``, ``opportune``, ``labeler``, ``ts``;
asset context uses ``cve``, ``exposure``, ``criticality``; the exploit
reference feed uses ``cve``, ``url``, ``source``, ``exploit``. A
reference's ``exploit`` flag defaults to false when absent, whatever the
source: nothing counts as an exploit unless the feed says so. A published
``score`` is a number in [0, 10] with at most one decimal.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from vulnrank.cvss import CvssError, CvssVector, parse_vector

logger = logging.getLogger(__name__)

# An id is matched as a whole string and with ASCII digits only: ``\d``
# takes any Unicode digit, and ``$`` matches before a final newline.
CVE_ID_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")
_is_cve_id = CVE_ID_RE.fullmatch


class FeedError(ValueError):
    """Base class for feed validation failures."""


class ParseError(FeedError):
    """A line is not valid JSON."""


class SchemaError(FeedError):
    """A record is missing a field or carries an unusable value."""


class DuplicateId(FeedError):
    """The same CVE id appears twice where uniqueness is required."""


class InvalidCategory(FeedError):
    """A label field is outside its legal value set."""


class ReferenceSource(Enum):
    EXPLOITDB = "ExploitDB"
    METASPLOIT = "Metasploit"
    GITHUB = "GitHub"
    OTHER = "Other"


class Exposure(Enum):
    PUBLIC = "Public"
    PRIVATE = "Private"


class Criticality(Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class Labeler(Enum):
    SME = "SME"
    MODEL = "Model"


# Members by value; a loader looks a field up only when it is a string.
_SOURCES = {member.value: member for member in ReferenceSource}
_EXPOSURES = {member.value: member for member in Exposure}
_CRITICALITIES = {member.value: member for member in Criticality}
_LABELERS = {member.value: member for member in Labeler}


@dataclass(frozen=True, slots=True)
class ReferenceEntry:
    url: str
    source: ReferenceSource
    is_exploit: bool


@dataclass(frozen=True, slots=True)
class CveRecord:
    cve_id: str
    description: str
    vector: CvssVector | None = None
    published_score: Decimal | None = None
    references: tuple[ReferenceEntry, ...] = ()

    @property
    def scoring_eligible(self) -> bool:
        """True when the record carries a vector or a published score."""
        return self.vector is not None or self.published_score is not None


@dataclass(frozen=True, slots=True)
class LabeledExample:
    """One triage judgment for a CVE: utility 0/1/2, the opportune flag
    0/1, who assigned them and when. Training and scoring both use it.

    ``description`` is not persisted in label files; it is joined back in
    from the CVE feed when the example is used for training.
    """

    cve_id: str
    utility: int
    opportune: int
    labeler: Labeler
    labeled_at: datetime
    description: str = field(default="", compare=False)

    def __post_init__(self):
        # bool is an int subclass, so True would otherwise pass as 1.
        utility, opportune = self.utility, self.opportune
        if not isinstance(utility, int) or isinstance(utility, bool) or utility not in (0, 1, 2):
            raise InvalidCategory(f"utility must be one of (0, 1, 2), got {utility!r}")
        if not isinstance(opportune, int) or isinstance(opportune, bool) or opportune not in (0, 1):
            raise InvalidCategory(f"opportune must be one of (0, 1), got {opportune!r}")


@dataclass(frozen=True, slots=True)
class AssetContext:
    cve_id: str
    exposure: Exposure
    criticality: Criticality


_scan_once = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"
# json.dumps with any option builds a new encoder per call; lines share this one.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _iter_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, object)`` for each non-blank line of a feed.

    Raises ParseError naming ``<file>:<line>`` for a line that is not
    UTF-8, not one JSON value (an integer too long for ``int`` or nesting
    deeper than the recursion limit included) or not an object.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            if line.isspace():
                continue
            # json.loads accepts one JSON value between JSON whitespace; the
            # C scanner reads exactly that without json.loads' Python-level
            # wrapper. A line the scan does not consume whole goes to
            # json.loads, which raises the message it always raised.
            text = line.strip(_JSON_WHITESPACE)
            try:
                try:
                    obj, end = _scan_once(text, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = -1
                if end != len(text):
                    obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected an object per line")
            yield lineno, obj


# The loaders read each field with dict.get and check it inline; a field
# that is absent or null is missing. "<file>:<line>" is formatted only
# when a line is rejected, by these helpers or at the raise.


def _missing(path, lineno: int, key: str) -> SchemaError:
    return SchemaError(f"{path}:{lineno}: missing field '{key}'")


def _bad_cve_id(path, lineno: int, key: str, raw) -> SchemaError:
    if raw is None:
        return _missing(path, lineno, key)
    # repr() escapes a newline in a string id, which would split the
    # one-line error; other values print as they always did.
    shown = repr(raw) if isinstance(raw, str) else f"'{raw}'"
    return SchemaError(f"{path}:{lineno}: {shown} is not a CVE id")


def _reference(obj: dict, path, lineno: int, unknown: list) -> ReferenceEntry:
    url = obj.get("url")
    if not isinstance(url, str) or not url:
        if url is None:
            raise _missing(path, lineno, "url")
        raise SchemaError(f"{path}:{lineno}: reference url must be a non-empty string")
    raw_source = obj.get("source", "Other")
    source = _SOURCES.get(raw_source) if isinstance(raw_source, str) else None
    if source is None:
        unknown.append(raw_source)
        source = ReferenceSource.OTHER
    return ReferenceEntry(url, source, bool(obj.get("exploit", False)))


# Every accepted published score by its JSON number: at most 101 values,
# each validated once, and records with equal scores share one Decimal.
_published: dict[int | float, Decimal] = {}


def _published_score(raw, path, lineno: int) -> Decimal:
    # bool is an int subclass, so true would otherwise score as 1.0.
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"{path}:{lineno}: score {raw!r} is not a number")
    score = _published.get(raw)
    if score is not None:
        return score
    if not 0 <= raw <= 10:
        raise SchemaError(f"{path}:{lineno}: score {raw!r} outside [0, 10]")
    # str() gives the shortest repr, so 0.3 reads as one decimal even
    # though 0.3 * 10 != 3 in binary floating point.
    score = Decimal(str(raw))
    if score.as_tuple().exponent < -1:
        raise SchemaError(f"{path}:{lineno}: score {raw!r} has more than one decimal")
    # The range check lets -0.0 through; its sign would print as "-0.0".
    score = _published[raw] = score.copy_abs().quantize(Decimal("0.1"))
    return score


def _warn_unknown_sources(path, unknown: list) -> None:
    if unknown:
        logger.warning(
            "%s: %d reference(s) with unknown source downgraded to Other", path, len(unknown)
        )


def load_cve_records(path) -> list[CveRecord]:
    """Load a CVE feed, in file order, rejecting duplicates."""
    records: list[CveRecord] = []
    seen: set[str] = set()
    unknown_sources: list = []
    for lineno, obj in _iter_jsonl(path):
        cve_id = obj.get("id")
        if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
            raise _bad_cve_id(path, lineno, "id", cve_id)
        if cve_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate CVE id {cve_id}")
        seen.add(cve_id)

        description = obj.get("description")
        if not isinstance(description, str):
            if description is None:
                raise _missing(path, lineno, "description")
            raise SchemaError(f"{path}:{lineno}: description must be a string")

        vector = obj.get("vector")
        if vector is not None:
            if not isinstance(vector, str):
                raise SchemaError(f"{path}:{lineno}: vector must be a string")
            try:
                vector = parse_vector(vector)
            except CvssError as exc:
                raise SchemaError(f"{path}:{lineno}: bad vector: {exc}") from None

        score = obj.get("score")
        if score is not None:
            score = _published_score(score, path, lineno)

        refs = ()
        if "references" in obj:
            raw_refs = obj["references"]
            # Present means a list of objects: null, a string or an object is refused.
            if not isinstance(raw_refs, list) or not all(isinstance(r, dict) for r in raw_refs):
                raise SchemaError(f"{path}:{lineno}: references must be a list of objects")
            refs = tuple(_reference(r, path, lineno, unknown_sources) for r in raw_refs)
        records.append(CveRecord(cve_id, description, vector, score, refs))
    _warn_unknown_sources(path, unknown_sources)
    return records


def load_exploit_refs(path) -> dict[str, list[ReferenceEntry]]:
    """Load an exploit reference feed, grouped by CVE and URL-deduplicated.

    Unknown source names are downgraded to Other; one warning with the
    total count, repeated URLs included, is logged per file.
    """
    grouped: dict[str, list[ReferenceEntry]] = {}
    seen_urls: dict[str, set[str]] = {}
    unknown_sources: list = []
    for lineno, obj in _iter_jsonl(path):
        cve_id = obj.get("cve")
        if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
            raise _bad_cve_id(path, lineno, "cve", cve_id)
        entry = _reference(obj, path, lineno, unknown_sources)
        urls = seen_urls.get(cve_id)
        if urls is None:
            seen_urls[cve_id] = {entry.url}
            grouped[cve_id] = [entry]
        elif entry.url not in urls:
            urls.add(entry.url)
            grouped[cve_id].append(entry)
    _warn_unknown_sources(path, unknown_sources)
    return grouped


def parse_ts(raw, where: str) -> datetime:
    """ISO-8601 string to an aware datetime; 'Z' and naive stamps are UTC."""
    if not isinstance(raw, str):
        raise SchemaError(f"{where}: ts must be an ISO-8601 string")
    text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"{where}: ts {raw!r} is not ISO-8601") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def format_ts(ts: datetime) -> str:
    """UTC timestamp in the compact 'Z' form used in label files."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def load_labels(path) -> list[LabeledExample]:
    """Load label records as written, including superseded entries."""
    examples: list[LabeledExample] = []
    # Label stores repeat stamps: a predict run gives all its labels one.
    stamps: dict[str, datetime] = {}
    for lineno, obj in _iter_jsonl(path):
        cve_id = obj.get("cve")
        if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
            raise _bad_cve_id(path, lineno, "cve", cve_id)
        utility = obj.get("utility")
        if utility is None:
            raise _missing(path, lineno, "utility")
        opportune = obj.get("opportune")
        if opportune is None:
            raise _missing(path, lineno, "opportune")
        labeler = obj.get("labeler")
        labeler = _LABELERS.get(labeler) if isinstance(labeler, str) else None
        if labeler is None:
            raise InvalidCategory(f"{path}:{lineno}: labeler must be SME or Model")
        raw_ts = obj.get("ts")
        ts = stamps.get(raw_ts) if isinstance(raw_ts, str) else None
        if ts is None:
            if raw_ts is None:
                raise _missing(path, lineno, "ts")
            ts = stamps[raw_ts] = parse_ts(raw_ts, f"{path}:{lineno}")
        try:
            examples.append(LabeledExample(cve_id, utility, opportune, labeler, ts))
        except InvalidCategory as exc:
            raise InvalidCategory(f"{path}:{lineno}: {exc}") from None
    return examples


def merge_labels(examples: Iterable[LabeledExample]) -> dict[str, LabeledExample]:
    """Resolve to one effective label per CVE.

    SME judgments always beat model predictions; within the same
    provenance the newest timestamp wins, and on an exact tie the
    later entry in iteration order wins.
    """
    merged: dict[str, LabeledExample] = {}
    for ex in examples:
        current = merged.get(ex.cve_id)
        if current is None:
            merged[ex.cve_id] = ex
            continue
        incoming = (ex.labeler is Labeler.SME, ex.labeled_at)
        existing = (current.labeler is Labeler.SME, current.labeled_at)
        if incoming >= existing:
            merged[ex.cve_id] = ex
    return merged


def save_labels(path, examples: Iterable[LabeledExample]) -> None:
    """Merge the given examples into the label file at ``path``.

    Existing entries are loaded first, so saving is append-safe; the
    result holds one line per CVE, sorted by id.
    """
    path = Path(path)
    existing = load_labels(path) if path.exists() else []
    write_labels(path, merge_labels(existing + list(examples)))


def write_labels(path, merged: dict[str, LabeledExample]) -> None:
    """Write an already merged store to ``path``: one line per CVE, sorted by id."""
    stamps: dict[datetime, str] = {}
    lines = []
    for cve_id in sorted(merged):
        ex = merged[cve_id]
        # Equal instants in different UTC offsets are equal keys and
        # format alike, so a store's few distinct stamps format once each.
        ts = stamps.get(ex.labeled_at)
        if ts is None:
            ts = stamps[ex.labeled_at] = format_ts(ex.labeled_at)
        lines.append(
            compact_json(
                {
                    "cve": ex.cve_id,
                    "utility": ex.utility,
                    "opportune": ex.opportune,
                    "labeler": ex.labeler.value,
                    "ts": ts,
                }
            )
        )
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then rename it over ``path``.

    A failed write leaves ``path`` as it was, removes the temporary file
    and raises the OSError.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only still there if the write failed


def load_asset_context(path) -> dict[str, AssetContext]:
    """Load per-CVE exposure and criticality; one entry per CVE."""
    contexts: dict[str, AssetContext] = {}
    for lineno, obj in _iter_jsonl(path):
        cve_id = obj.get("cve")
        if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
            raise _bad_cve_id(path, lineno, "cve", cve_id)
        if cve_id in contexts:
            raise DuplicateId(f"{path}:{lineno}: duplicate context entry for {cve_id}")
        exposure = obj.get("exposure")
        exposure = _EXPOSURES.get(exposure) if isinstance(exposure, str) else None
        criticality = obj.get("criticality")
        criticality = _CRITICALITIES.get(criticality) if isinstance(criticality, str) else None
        if exposure is None or criticality is None:
            raise InvalidCategory(
                f"{path}:{lineno}: exposure must be Public/Private and criticality Low/Medium/High"
            )
        contexts[cve_id] = AssetContext(cve_id, exposure, criticality)
    return contexts


def attach_descriptions(
    examples: Iterable[LabeledExample], records: Iterable[CveRecord]
) -> list[LabeledExample]:
    """Fill each example's description from the CVE feed.

    Raises SchemaError naming the CVEs that have labels but no feed
    record, since such examples have no description to train on.
    """
    by_id = {rec.cve_id: rec.description for rec in records}
    out = []
    missing = []
    for ex in examples:
        if ex.cve_id not in by_id:
            missing.append(ex.cve_id)
        else:
            out.append(replace(ex, description=by_id[ex.cve_id]))
    if missing:
        raise SchemaError(f"labeled CVEs absent from the CVE feed: {', '.join(sorted(missing))}")
    return out
