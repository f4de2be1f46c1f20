"""Newline-delimited JSON feeds: CVE records, exploit references, labels, asset context.

Every loader either returns fully validated records or raises with the
file and line of the first offending record; there are no partially
valid datasets. A CVE id is ``CVE-``, four ASCII digits, ``-`` and four
or more ASCII digits, as the whole string. Files are UTF-8, one JSON
object per line. Lines end at ``\n``, and a line that is decoded is
decoded on its own, so a byte that is not UTF-8 names its line; a line
holding only whitespace (``str.isspace``) is skipped. Each line must
hold exactly one JSON value, as ``json.loads`` reads it: JSON whitespace
(space, tab, CR, LF) may surround it, and nothing else may. An integer
too long for ``int`` or nesting deeper than the recursion limit is
invalid JSON too.

Field names are fixed: CVE records use ``id``, ``description``,
``vector``, ``score``; labels use ``cve``, ``utility``, ``opportune``,
``labeler``, ``ts``; asset context uses ``cve``, ``exposure``,
``criticality``; the exploit reference feed uses ``cve``, ``url``,
``source``, ``exploit``. A loader ignores any other key. A reference's
``exploit`` flag is ``true`` or ``false``, and false when absent or
null, whatever the source: nothing counts as an exploit unless the feed
says so. ``load_exploit_refs`` returns ``{cve_id: {url: exploit}}``: each
distinct URL of a CVE keeps the flag of the first line that names it, so
the CVE's wx is ``sum(urls.values())``. Asset context loads as
``{cve_id: (exposure, criticality)}``, each value one of six shared pairs.
A published ``score`` is a number in [0, 10] with at most one decimal.

A labeled CVE is one row ``(cve_id, judgment, stamp)``, the judgment one
of twelve shared, checked ``Judgment`` triples. A label store is read into
such rows by one generator (``iter_label_rows``), and folded by one rule
(``fold_labels``): SME beats Model, the newest stamp wins, and on an exact
tie the later row wins. ``load_judgments`` folds the store's rows into
``{cve_id: Judgment}`` and ``{cve_id: stamp}`` as it reads them.
``save_labels`` and the ``predict`` command fold their new rows into
those two and write them back with ``write_labels``.

``iter_cve_records`` yields a CVE feed's records one line at a time and
keeps only the ids it has seen. The CVE, label, context and reference
loaders intern every id they keep (``sys.intern``), so feeds loaded side
by side hold one string per CVE.

Each loader has a canonical line form: what ``compact_json`` writes for
a record with the loader's keys in a fixed order and string values of
printable ASCII without ``"`` or ``\\`` (``_CVE_LINE``, ``_REF_LINE``,
``_STORE_LINE``, ``_CONTEXT_LINE``). A feed is read in blocks of
``BLOCK_BYTES``, each extended to the end of its line, and one bytes
pattern per feed splits a block into one tuple per line. A canonical
line comes back as its groups and is read from them without the JSON
decoder; any other line, such as a blank one, another key order or
spacing, an escape, a repeated key, a CR or a faulty value, is decoded
and checked as above. Both ways share the loader's checks after the
values are read, so for any line they give the same record, or the same
error at the same line.

A label store is written from a ``%`` template, with nothing escaped:
its other fields are labels, labeler names and ``format_ts`` stamps, and
``write_labels`` raises ValueError for an id that ``CVE_ID_RE`` does not
match as a whole before it opens the file, so every store line it writes
is in the store's canonical form.

Records are named tuples. ``iter_cve_records`` builds the ones it has
checked with ``tuple.__new__``; a ``Judgment`` checks its fields in its
own ``__new__``, which ``_make`` and ``_replace`` go through.
``attach_descriptions`` builds nothing: it pairs each label row with
its CVE's description.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import tempfile
from datetime import datetime, timezone
from decimal import Decimal
from itertools import chain, islice
from pathlib import Path
from sys import intern
from typing import Iterable, Iterator, NamedTuple

from vulnrank.cvss import CvssError, CvssVector, IdentityEnum, parse_vector

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


class IoError(OSError):
    """An output cannot be written; the message names the path as given, or stdout."""


# The reference sources a feed may name; any other is downgraded to Other.
REFERENCE_SOURCES = frozenset({"ExploitDB", "Metasploit", "GitHub", "Other"})


class Exposure(IdentityEnum):
    PUBLIC = "Public"
    PRIVATE = "Private"


class Criticality(IdentityEnum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class Labeler(IdentityEnum):
    SME = "SME"
    MODEL = "Model"


class Task(IdentityEnum):
    """A triage task: the Judgment field it labels and its classes."""

    UTILITY = "utility"
    OPPORTUNE = "opportune"

    @property
    def classes(self) -> tuple[int, ...]:
        return (0, 1, 2) if self is Task.UTILITY else (0, 1)

    def label_of(self, judgment: Judgment) -> int:
        return judgment.utility if self is Task.UTILITY else judgment.opportune


# The legal utility and opportune values and labeler names, read from the
# enums once: checking a label then costs no Enum access.
_UTILITIES, _OPPORTUNES = Task.UTILITY.classes, Task.OPPORTUNE.classes
_LABELER_NAMES = frozenset(member.value for member in Labeler)


# The six asset contexts by their raw (exposure, criticality) strings:
# every context line with the same two strings maps to one shared pair.
_CONTEXTS = {(e.value, c.value): (e, c) for e in Exposure for c in Criticality}


class CveRecord(NamedTuple):
    cve_id: str
    description: str
    vector: CvssVector | None = None
    published_score: Decimal | None = None

    @property
    def scoring_eligible(self) -> bool:
        """True when the record carries a vector or a published score."""
        return self.vector is not None or self.published_score is not None


class _JudgmentFields(NamedTuple):
    utility: int
    opportune: int
    labeler: Labeler


class Judgment(_JudgmentFields):
    """One triage judgment: utility 0/1/2, the opportune flag 0/1 and who
    assigned them. The constructor checks them (InvalidCategory) and
    returns one of the twelve judgments built once (``_JUDGMENTS``);
    ``_make``, ``_replace``, a copy and an unpickled judgment call it too.
    """

    __slots__ = ()

    def __new__(cls, utility: int, opportune: int, labeler: Labeler):
        problem = _bad_labels(utility, opportune)
        if problem is not None:
            raise InvalidCategory(problem)
        if type(labeler) is not Labeler:
            raise InvalidCategory("labeler must be SME or Model")
        return _JUDGMENTS[utility, opportune, labeler._value_]

    @classmethod
    def _make(cls, iterable) -> Judgment:
        return cls(*iterable)


def _bad_labels(utility, opportune) -> str | None:
    """Why ``utility`` and ``opportune`` are not a triage judgment, or None."""
    # bool is an int subclass, so True would otherwise pass as 1.
    if not isinstance(utility, int) or isinstance(utility, bool) or utility not in _UTILITIES:
        return f"utility must be one of {_UTILITIES}, got {utility!r}"
    if not isinstance(opportune, int) or isinstance(opportune, bool) or opportune not in _OPPORTUNES:
        return f"opportune must be one of {_OPPORTUNES}, got {opportune!r}"
    return None


LabelRow = tuple[str, Judgment, datetime]  # a labeled CVE: one store line

# The twelve judgments, built past the constructor, by their (utility,
# opportune, labeler name) fields and by the block scan's raw store groups.
_JUDGMENTS = {
    (u, o, lab.value): tuple.__new__(Judgment, (u, o, lab))
    for u in _UTILITIES for o in _OPPORTUNES for lab in Labeler
}
_STORE_JUDGMENTS = {
    (b"%d" % u, b"%d" % o, name.encode()): judgment for (u, o, name), judgment in _JUDGMENTS.items()
}


_scan_once = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"
# json.dumps with any option builds a new encoder per call; lines share this one.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

# A feed is read in blocks of this many bytes, each extended to the end of
# its line, so a reader holds one block and its lines' tuples at a time.
BLOCK_BYTES = 16 * 1024

# The canonical line of each feed: what compact_json writes for a record
# with its keys in the order below and string values of printable ASCII
# without '"' or '\', each its own JSON text. The groups are the values;
# an optional one never matches empty, so b"" is an absent field.
_ID = CVE_ID_RE.pattern.encode()
_TEXT = rb"[ !#-\[\]-~]"
_CVE_LINE = (
    rb'\{"id":"(%s)","description":"(%s*)"(?:,"vector":"(%s+)")?'
    rb'(?:,"score":((?:10|[0-9])(?:\.[0-9])?))?\}' % (_ID, _TEXT, _TEXT)
)
_REF_LINE = rb'\{"cve":"(%s)","url":"(%s+)","source":"(%s*)","exploit":(true|false)\}' % (
    _ID, _TEXT, _TEXT,
)
_CONTEXT_LINE = (
    rb'\{"cve":"(%s)","exposure":"(Public|Private)","criticality":"(Low|Medium|High)"\}' % _ID
)
# A store line as _LABEL_LINE writes it: id, utility, opportune, labeler
# and a format_ts stamp.
_STORE_LINE = (
    rb'\{"cve":"(%s)","utility":([012]),"opportune":([01]),"labeler":"(SME|Model)",'
    rb'"ts":"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z)"\}' % _ID
)


@functools.cache
def _line_scan(canonical: bytes):
    """The ``findall`` that splits a block into its lines: one tuple per
    line, in order, whose last item is the raw line.

    A line in the ``canonical`` form gives its groups and an empty raw
    line. Any other line gives empty groups and its bytes, ``\\n``
    included, as iterating the file yields them; a lone ``\\r`` stays
    inside its line. Compiled when a loader first reads that form.
    """
    return re.compile(rb"(?:%s)(?:\n|\Z)|([^\n]*\n|[^\n]+\Z)" % canonical).findall


def _iter_jsonl(path, canonical: bytes) -> Iterator[tuple[int, dict | tuple]]:
    """Yield ``(lineno, object)`` for each non-blank line of a feed.

    The file is read ``BLOCK_BYTES`` at a time, each block extended to the
    end of its line, and ``_line_scan(canonical)`` splits the block. A line
    in the ``canonical`` form is not decoded: its tuple of groups is
    yielded in place of the object, for the loader to read its values from.
    Any other line is decoded on its own.

    Raises ParseError naming ``<file>:<line>`` for a line that is not
    UTF-8, not one JSON value (an integer too long for ``int`` or nesting
    deeper than the recursion limit included) or not an object.
    """
    scan = _line_scan(canonical)
    lineno = 0
    with open(path, "rb") as fh:
        while block := fh.read(BLOCK_BYTES):
            if block[-1:] != b"\n":
                block += fh.readline()
            for groups in scan(block):
                lineno += 1
                raw = groups[-1]
                if not raw:
                    yield lineno, groups
                    continue
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
                if line.isspace():
                    continue
                # json.loads accepts one JSON value between JSON whitespace;
                # the C scanner reads exactly that without json.loads'
                # Python-level wrapper. A line the scan does not consume
                # whole goes to json.loads, which raises the message it
                # always raised.
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


def iter_cve_records(path) -> Iterator[CveRecord]:
    """Yield a CVE feed's records in file order, rejecting duplicates.

    Each line is checked as it is read, and the generator keeps only the
    set of ids it has yielded, so a caller that drops each record keeps
    no description and no record. An error raises at its line, after the
    records before it have been yielded. A line in the canonical form
    (``_CVE_LINE``) gives its values from the block scan's groups, the
    score as a float, and goes through the same checks from the
    duplicate id on.
    """
    seen: set[str] = set()
    new = tuple.__new__
    for lineno, obj in _iter_jsonl(path, _CVE_LINE):
        if type(obj) is tuple:
            cve_id, description, vector, score, _ = obj
            cve_id, description = cve_id.decode(), description.decode()
            vector = vector.decode() if vector else None
            score = float(score) if score else None
        else:
            cve_id = obj.get("id")
            if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
                raise _bad_cve_id(path, lineno, "id", cve_id)
            description, vector, score = obj.get("description"), obj.get("vector"), obj.get("score")
        if cve_id in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate CVE id {cve_id}")
        cve_id = intern(cve_id)
        seen.add(cve_id)

        if not isinstance(description, str):
            if description is None:
                raise _missing(path, lineno, "description")
            raise SchemaError(f"{path}:{lineno}: description must be a string")
        if vector is not None:
            if not isinstance(vector, str):
                raise SchemaError(f"{path}:{lineno}: vector must be a string")
            try:
                vector = parse_vector(vector)
            except CvssError as exc:
                raise SchemaError(f"{path}:{lineno}: bad vector: {exc}") from None
        if score is not None:
            score = _published_score(score, path, lineno)
        yield new(CveRecord, (cve_id, description, vector, score))


def load_exploit_refs(path) -> dict[str, dict[str, bool]]:
    """Load an exploit reference feed as ``{cve_id: {url: exploit}}``.

    Each distinct URL of a CVE maps to the ``exploit`` flag of the first
    line that names it; later lines for that URL change nothing. A CVE's
    wx is ``sum(urls.values())``. The source is checked, not kept: one
    warning per file gives the number of lines, repeated URLs included,
    whose source is outside ``REFERENCE_SOURCES`` and so downgraded to Other.
    A line in the canonical form (``_REF_LINE``) gives its values from the
    block scan's groups and goes through the same checks from the url on.
    """
    refs: dict[str, dict[str, bool]] = {}
    unknown_sources = 0
    for lineno, obj in _iter_jsonl(path, _REF_LINE):
        if type(obj) is tuple:
            cve_id, url, source, exploit, _ = obj
            cve_id, url, source = cve_id.decode(), url.decode(), source.decode()
            exploit = exploit == b"true"
        else:
            cve_id = obj.get("cve")
            if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
                raise _bad_cve_id(path, lineno, "cve", cve_id)
            url, source, exploit = obj.get("url"), obj.get("source", "Other"), obj.get("exploit")
        if not isinstance(url, str) or not url:
            if url is None:
                raise _missing(path, lineno, "url")
            raise SchemaError(f"{path}:{lineno}: reference url must be a non-empty string")
        if not isinstance(source, str) or source not in REFERENCE_SOURCES:
            unknown_sources += 1
        if exploit is not True and exploit is not False:
            if exploit is not None:
                raise SchemaError(f"{path}:{lineno}: exploit must be true or false")
            exploit = False
        urls = refs.get(cve_id)
        if urls is None:
            urls = refs[intern(cve_id)] = {}
        urls.setdefault(url, exploit)
    if unknown_sources:
        logger.warning(
            "%s: %d reference(s) with unknown source downgraded to Other", path, unknown_sources
        )
    return refs


def parse_ts(raw, where: str) -> datetime:
    """ISO-8601 string to an aware datetime; 'Z' and naive stamps are UTC.

    The stamp's UTC form must fall in years 1-9999, or ``format_ts``
    could not write it back.
    """
    if not isinstance(raw, str):
        raise SchemaError(f"{where}: ts must be an ISO-8601 string")
    text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"{where}: ts {raw!r} is not ISO-8601") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        ts.astimezone(timezone.utc)
    except OverflowError:
        raise SchemaError(f"{where}: ts {raw!r} is outside years 1-9999 in UTC") from None
    return ts


def format_ts(ts: datetime) -> str:
    """UTC timestamp in the compact 'Z' form used in label files, with a
    four-digit year: ``strftime("%Y")`` does not pad it on glibc."""
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def iter_label_rows(path) -> Iterator[LabelRow]:
    """Yield ``(cve_id, judgment, ts)`` for each line of a label store.

    A line in the store's own form (``_STORE_LINE``) gives its values from
    the block scan's groups, which admit only ids, labels and labelers the
    checks accept, and its judgment straight from them; any other line is
    decoded as JSON and checked field by field. Both then share the stamp
    check, so they give the same row, or the same error, for the same
    line; an error raises at its line, after the rows before it. Equal
    stamps are one shared datetime. The id is not interned: each reader
    interns the ids it keeps.
    """
    # Label stores repeat stamps: a predict run gives all its labels one.
    stamps: dict[str, datetime] = {}
    for lineno, obj in _iter_jsonl(path, _STORE_LINE):
        if type(obj) is tuple:
            cve_id, utility, opportune, labeler, raw_ts, _ = obj
            cve_id, raw_ts = cve_id.decode(), raw_ts.decode()
            judgment = _STORE_JUDGMENTS[utility, opportune, labeler]
        else:
            judgment = None
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
            if not isinstance(labeler, str) or labeler not in _LABELER_NAMES:
                raise InvalidCategory(f"{path}:{lineno}: labeler must be SME or Model")
            raw_ts = obj.get("ts")
        ts = stamps.get(raw_ts) if isinstance(raw_ts, str) else None
        if ts is None:
            if raw_ts is None:
                raise _missing(path, lineno, "ts")
            ts = stamps[raw_ts] = parse_ts(raw_ts, f"{path}:{lineno}")
        # The store form's pattern admits only labels; a decoded line's are checked.
        if judgment is None:
            problem = _bad_labels(utility, opportune)
            if problem is not None:
                raise InvalidCategory(f"{path}:{lineno}: {problem}")
            judgment = _JUDGMENTS[utility, opportune, labeler]
        yield cve_id, judgment, ts


def fold_labels(
    rows: Iterable[LabelRow],
    judgments: dict[str, Judgment],
    stamps: dict[str, datetime],
) -> tuple[dict[str, Judgment], dict[str, datetime]]:
    """Fold ``(cve_id, judgment, ts)`` rows into ``judgments`` and
    ``stamps``, in place, and return both.

    A row replaces its CVE's entry unless that entry wins: SME beats
    Model, within one labeler the newest stamp wins, and on an exact tie
    the later row wins. A CVE new to the dicts is keyed by its interned
    id, so the ids need to be strings.
    """
    sme = Labeler.SME
    for cve_id, judgment, ts in rows:
        current = judgments.get(cve_id)
        if current is not None:
            is_sme, was_sme = judgment.labeler is sme, current.labeler is sme
            if is_sme < was_sme or (is_sme == was_sme and ts < stamps[cve_id]):
                continue
        else:
            cve_id = intern(cve_id)
        judgments[cve_id] = judgment
        stamps[cve_id] = ts
    return judgments, stamps


def load_judgments(path) -> tuple[dict[str, Judgment], dict[str, datetime]]:
    """A label store's effective ``{cve_id: Judgment}`` and the winning
    row's ``{cve_id: stamp}``: its rows, read and checked by
    ``iter_label_rows``, folded by ``fold_labels``. Every judgment is one
    of the twelve shared ``Judgment`` values.
    """
    return fold_labels(iter_label_rows(path), {}, {})


def save_labels(path, rows: Iterable[LabelRow]) -> None:
    """Fold ``(cve_id, judgment, ts)`` rows into the label store at ``path``.

    Every row's id and judgment are checked, and then the target
    (``output_target``), before the store is read, so a bad id or a
    judgment that is not a ``Judgment`` raises ValueError and a FIFO
    IoError rather than blocking. The stored rows come first, so saving
    is append-safe; the result holds one line per CVE, sorted by id.
    """
    rows = list(rows)
    _refuse_bad_ids(cve_id for cve_id, _, _ in rows)
    for cve_id, judgment, _ in rows:
        if not isinstance(judgment, Judgment):
            raise ValueError(f"cannot write a label for {cve_id}: {judgment!r} is not a Judgment")
    stored = iter_label_rows(path) if os.path.exists(output_target(path)) else ()
    write_labels(path, *fold_labels(chain(stored, rows), {}, {}))


def _refuse_bad_ids(ids: Iterable) -> None:
    for cve_id in ids:
        if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
            raise ValueError(f"cannot write a label for {cve_id!r}: not a CVE id")


def write_labels(path, judgments: dict[str, Judgment], stamps: dict[str, datetime]) -> None:
    """Write a folded store to ``path``: one line per CVE, sorted by id,
    with its judgment and stamp. An id that is not a CVE id raises
    ValueError before the file is opened."""
    _refuse_bad_ids(judgments)
    write_atomic(path, encoded_chunks(_label_lines(judgments, stamps)))


# A store line; no field needs JSON escaping (see the module docstring).
_LABEL_LINE = '{"cve":"%s","utility":%d,"opportune":%d,"labeler":"%s","ts":"%s"}\n'


def _label_lines(judgments: dict[str, Judgment], stamps: dict[str, datetime]) -> Iterator[str]:
    formatted: dict[datetime, str] = {}
    for cve_id in sorted(judgments):
        utility, opportune, labeler = judgments[cve_id]
        # Equal instants in different UTC offsets are equal keys and
        # format alike, so a store's few distinct stamps format once each.
        stamp = stamps[cve_id]
        ts = formatted.get(stamp)
        if ts is None:
            ts = formatted[stamp] = format_ts(stamp)
        yield _LABEL_LINE % (cve_id, utility, opportune, labeler.value, ts)


# Lines per chunk of a streamed output: a writer holds one chunk's lines,
# their join and its bytes at a time, never its whole output.
CHUNK_LINES = 4096


def encoded_chunks(lines: Iterable[str]) -> Iterator[bytes]:
    """``lines``, each ending in ``\\n``, joined and UTF-8 encoded
    ``CHUNK_LINES`` at a time; nothing at all for no lines."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, CHUNK_LINES)):
        yield chunk.encode("utf-8")


def output_target(path) -> str:
    """``path`` with symlinks resolved; IoError if it exists and is not a regular file."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise IoError(f"cannot write {path}: not a regular file")
    return target


def write_atomic(path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, bytes or an iterable of byte chunks, to a fsynced
    ``.tmp`` file beside ``output_target(path)``, rename it over that file
    and fsync the directory, so the rename is durable.

    An existing target keeps its permission bits; a new one gets
    ``0o666 & ~umask``, as ``open`` would give it. A failure before the
    rename, an iterable that raises part-way included, leaves the target as
    it was and removes the temporary file; a failed directory fsync comes
    after it, when the target already holds the new data. An OSError
    either way is raised as IoError naming ``path`` as given.
    """
    chunks = (data,) if isinstance(data, bytes) else data
    target = output_target(path)
    directory = os.path.dirname(target)
    try:
        try:
            mode = os.stat(target).st_mode & 0o777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
        )
        try:
            with open(fd, "wb") as fh:
                os.fchmod(fd, mode)  # mkstemp's is 0o600
                fh.writelines(chunks)
                fh.flush()
                os.fsync(fd)
            os.replace(tmp, target)
        finally:
            Path(tmp).unlink(missing_ok=True)  # only still there if the write failed
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_asset_context(path) -> dict[str, tuple[Exposure, Criticality]]:
    """Load per-CVE asset context as ``{cve_id: (exposure, criticality)}``,
    one entry per CVE; equal pairs are one shared object (``_CONTEXTS``).

    A line in the canonical form (``_CONTEXT_LINE``) gives its values from
    the block scan's groups and goes through the same checks from the
    duplicate id on.
    """
    contexts: dict[str, tuple[Exposure, Criticality]] = {}
    for lineno, obj in _iter_jsonl(path, _CONTEXT_LINE):
        if type(obj) is tuple:
            cve_id, exposure, criticality, _ = obj
            cve_id, exposure, criticality = cve_id.decode(), exposure.decode(), criticality.decode()
        else:
            cve_id = obj.get("cve")
            if not isinstance(cve_id, str) or not _is_cve_id(cve_id):
                raise _bad_cve_id(path, lineno, "cve", cve_id)
            exposure, criticality = obj.get("exposure"), obj.get("criticality")
        if cve_id in contexts:
            raise DuplicateId(f"{path}:{lineno}: duplicate context entry for {cve_id}")
        # Only strings are looked up: a JSON list or object is unhashable.
        pair = None
        if isinstance(exposure, str) and isinstance(criticality, str):
            pair = _CONTEXTS.get((exposure, criticality))
        if pair is None:
            raise InvalidCategory(
                f"{path}:{lineno}: exposure must be Public/Private and criticality Low/Medium/High"
            )
        contexts[intern(cve_id)] = pair
    return contexts


def attach_descriptions(
    rows: Iterable[LabelRow], records: Iterable[CveRecord]
) -> list[tuple[str, LabelRow]]:
    """Each ``(cve_id, judgment, ts)`` row paired with its CVE's
    description from the feed, as ``(description, row)`` in the rows' order.

    ``records`` is read once, and only the descriptions of the rows' ids
    are kept, so a streamed feed (``iter_cve_records``) holds one record
    at a time. Raises SchemaError naming the CVEs that have labels but no
    feed record, since such rows have no description to train on; a feed
    that raises part-way raises before that check.
    """
    rows = list(rows)
    wanted = {row[0] for row in rows}
    by_id = {rec.cve_id: rec.description for rec in records if rec.cve_id in wanted}
    missing = [row[0] for row in rows if row[0] not in by_id]
    if missing:
        raise SchemaError(f"labeled CVEs absent from the CVE feed: {', '.join(sorted(missing))}")
    return [(by_id[row[0]], row) for row in rows]
