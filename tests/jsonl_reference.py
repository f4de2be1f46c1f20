"""Reference JSON-lines reader: ``json.loads`` on every line.

Kept apart from ``vulnrank.feeds._iter_jsonl``, which decodes through
the C scanner, as the oracle the differential test compares it with: it
yields the same ``(lineno, obj)`` pairs and raises the same errors.
"""

import json

from vulnrank.feeds import ParseError


def iter_jsonl(path):
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:
                # An integer too long for int, or nesting past the recursion limit.
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected an object per line")
            yield lineno, obj
