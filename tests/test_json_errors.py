"""Every JSON decode under ``src/vulnrank`` ends in one ``error:`` line.

``json.load`` and ``json.loads`` raise ValueError for text that is not
JSON and RecursionError for a value nested deeper than the interpreter's
recursion limit; either, uncaught, ends a run in a traceback. So each
call, and each call of a decoder's ``scan_once``, must sit in the body of
a ``try`` whose handlers, those of the enclosing ``try`` statements in
the same function included, catch both. This scans the source of every
module under ``src/vulnrank`` and names the function each decode sits in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vulnrank"

DECODERS = {"json.load", "json.loads"}
NEEDED = frozenset({"ValueError", "RecursionError"})
BROAD = {"Exception", "BaseException"}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _caught(handler: ast.ExceptHandler) -> frozenset:
    if handler.type is None:
        return NEEDED
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = {_dotted(t).rpartition(".")[2] for t in types}
    return NEEDED if names & BROAD else frozenset(names)


def decodes(source: str, module: str) -> dict[str, bool]:
    """``module.function`` for each function that decodes JSON, and whether
    every decode in it is guarded against both errors."""
    found = {}

    def visit(node, scope, caught):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in DECODERS or name.endswith("scan_once"):
                found[scope] = found.get(scope, True) and NEEDED <= caught
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A handler around a definition does not catch what the body raises.
            caught = frozenset()
        if isinstance(node, ast.Try):
            handled = caught.union(*map(_caught, node.handlers))
            for child in node.body:
                visit(child, scope, handled)
            for child in (*node.handlers, *node.orelse, *node.finalbody):
                visit(child, scope, caught)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scope, caught)

    visit(ast.parse(source), module, frozenset())
    return found


def test_every_json_decode_catches_value_and_recursion_errors():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found |= decodes(path.read_text(encoding="utf-8"), module)
    assert {"feeds._iter_jsonl", "cli.build_config", "triage.modelio.load_model"} <= found.keys()
    assert [name for name, guarded in sorted(found.items()) if not guarded] == []


def test_scanner_sees_each_guard():
    source = '''
def bare(text): json.loads(text)
def value_only(text):
    try: json.loads(text)
    except ValueError: pass
def both(fh):
    try: json.load(fh)
    except (ValueError, RecursionError): pass
def nested(text):
    try:
        try: obj, end = _scan_once(text, 0)
        except json.JSONDecodeError: pass
    except (ValueError, RecursionError): pass
def split(fh):
    try:
        try: json.load(fh)
        except RecursionError: pass
    except ValueError: pass
def broad(text):
    try: json.loads(text)
    except Exception: pass
def in_handler(text):
    try: pass
    except (ValueError, RecursionError): json.loads(text)
def outer(text):
    try:
        def inner(): return json.loads(text)
    except (ValueError, RecursionError): pass
def one_of_two(text):
    try: json.loads(text)
    except (ValueError, RecursionError): pass
    json.loads(text)
class Codec:
    def read(self, fh): return json.load(fh)
def other(text): text.loads()
'''
    assert decodes(source, "m") == {
        "m.bare": False, "m.value_only": False, "m.both": True, "m.nested": True,
        "m.split": True, "m.broad": True, "m.in_handler": False, "m.outer.inner": False,
        "m.one_of_two": False, "m.Codec.read": False,
    }
