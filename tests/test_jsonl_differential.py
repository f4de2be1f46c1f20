"""Differential test of the feed line reader against ``json.loads``.

Both readers get the same file: JSON lines written with any separators,
padded with JSON whitespace or with characters that only ``str.strip``
treats as whitespace (``\\x0b``, ``\\x1c``, NBSP), a BOM, trailing data,
``NaN``, nested values, non-object lines, ``\\r\\n`` endings, blank lines,
bytes that are not UTF-8 and lines cut short or edited one character at
a time. They must yield the same ``(lineno, obj)`` pairs, and stop with
the same error, if any.
"""

import json
import math
from functools import partial

from hypothesis import event, given, settings, strategies as st

from vulnrank.cli import main
from vulnrank import feeds

from jsonl_reference import iter_jsonl

# The reader with a canonical form no line takes, so every line is decoded.
_iter_jsonl = partial(feeds._iter_jsonl, canonical=rb"()(?!)")

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324])
    | st.text(max_size=8)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
OBJECTS = st.dictionaries(st.text(max_size=6), VALUES, max_size=4)
# JSON whitespace, then characters that str.strip() removes but JSON does not.
PADDING = st.text(st.sampled_from(" \t\r" + "\x0b\x0c\x1c\x1d\x85\xa0\u2028\u3000"), max_size=3)
EDITS = st.sampled_from(list(" \t\r\x0b\x1c\xa0\ufeff\",:{}[]\\0e.-xN") + ["NaN", "\x00", "\x7f"])
NOT_UTF8 = st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


@st.composite
def lines(draw) -> bytes:
    value = draw(OBJECTS | OBJECTS | VALUES)
    text = json.dumps(
        value,
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", "\r:\t")])),
    )
    kind = draw(st.sampled_from(["plain"] * 4 + ["padded", "bom", "trailing", "cut", "edit", "blank", "bytes"]))
    if kind == "padded":
        text = draw(PADDING) + text + draw(PADDING)
    elif kind == "bom":
        text = draw(st.sampled_from(["", " "])) + "\ufeff" + text
    elif kind == "trailing":
        text += draw(st.sampled_from([" x", "}", "]", ",{}", " {}", "\x0b", "\xa0", "\r1"]))
    elif kind == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif kind == "edit":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(EDITS) + text[at + draw(st.integers(0, 1)) :]
    elif kind == "blank":
        text = draw(PADDING)
    data = text.encode("utf-8")
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(NOT_UTF8) + data[at:]
    event(kind)
    return data + draw(st.sampled_from([b"\n", b"\r\n", b"\r\r\n"]))


def outcome(reader, path):
    """Everything ``reader`` yields, then the error it stops with."""
    items = []
    try:
        for lineno, obj in reader(path):
            items.append((lineno, obj))
    except Exception as exc:  # the error is part of the outcome
        return repr(items), (type(exc).__name__, str(exc))
    return repr(items), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(feed=st.lists(lines(), min_size=1, max_size=6), final_newline=st.booleans())
def test_reader_matches_json_loads_per_line(tmp_path_factory, feed, final_newline):
    path = tmp_path_factory.getbasetemp() / "differential.jsonl"
    data = b"".join(feed)
    path.write_bytes(data if final_newline else data.rstrip(b"\r\n"))
    got, expected = outcome(_iter_jsonl, path), outcome(iter_jsonl, path)
    event("error" if expected[1] else "loaded")
    assert got == expected


def test_deep_nesting_and_huge_integers_fail_alike(tmp_path, capsys):
    # Neither is a JSONDecodeError: json.loads raises RecursionError and
    # ValueError. Both readers turn them into a ParseError naming the
    # line, and the CLI exits 2 with one error line.
    for name, line in (("deep", "[" * 100_000 + "]" * 100_000), ("digits", '{"a": ' + "9" * 5000 + "}")):
        path = tmp_path / f"{name}.jsonl"
        path.write_text('{"id": "CVE-2020-0001", "description": "a"}\n' + line + "\n")
        assert outcome(_iter_jsonl, path) == outcome(iter_jsonl, path)
        kind, message = outcome(iter_jsonl, path)[1]
        assert kind == "ParseError" and message.startswith(f"{path}:2: invalid JSON ("), message
        assert main(["ingest", "--cves", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
