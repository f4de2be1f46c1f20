"""The feed keys README documents are the keys the loaders read.

Each loader in ``vulnrank.feeds`` (a ``load_*`` function or an
``iter_*`` generator) reads a line's fields from the dict ``obj``:
``obj.get("key")``, ``"key" in obj`` or ``obj["key"]``, itself or in a
loader it calls. This reads those keys from the source, checks them
against the table below,
and checks that README's "Feed formats" bullet for that feed names each
of them in backticks and names no other key, so a key that is read but
undocumented, or documented but no longer read, fails here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FEEDS = ROOT / "src" / "vulnrank" / "feeds.py"
README = ROOT / "README.md"

# Loader: (its README bullet, the keys it reads).
LOADER_KEYS = {
    "iter_cve_records": ("CVE records", {"id", "description", "vector", "score"}),
    "load_exploit_refs": ("Exploit references", {"cve", "url", "source", "exploit"}),
    "iter_label_rows": ("Labels", {"cve", "utility", "opportune", "labeler", "ts"}),
    "load_judgments": ("Labels", {"cve", "utility", "opportune", "labeler", "ts"}),
    "load_asset_context": ("Asset context", {"cve", "exposure", "criticality"}),
}
# Keys a bullet names as ignored: no loader may read them.
IGNORED = {"iter_cve_records": {"references"}}
# Backticked words in a bullet that are JSON values, not keys.
JSON_WORDS = {"true", "false", "null"}


def _is_obj(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "obj"


def _text(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def keys_read(source: str) -> dict[str, set[str]]:
    """The string keys each top-level ``load_*`` or ``iter_*`` function
    reads from ``obj``, with the keys of every such function it calls."""
    loaders = {
        func.name: func
        for func in ast.parse(source).body
        if isinstance(func, ast.FunctionDef) and func.name.startswith(("load_", "iter_"))
    }
    own, calls = {}, {}
    for name, func in loaders.items():
        keys, called = own[name], calls[name] = set(), set()
        for node in ast.walk(func):
            key = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "get" and _is_obj(node.func.value) and node.args:
                    key = _text(node.args[0])
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in loaders:
                    called.add(node.func.id)
            elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
                if _is_obj(node.comparators[0]):
                    key = _text(node.left)
            elif isinstance(node, ast.Subscript) and _is_obj(node.value):
                key = _text(node.slice)
            if key is not None:
                keys.add(key)
    found = {}
    for name in loaders:
        keys, todo, done = set(), [name], set()
        while todo:
            callee = todo.pop()
            if callee not in done:
                done.add(callee)
                keys |= own[callee]
                todo.extend(calls[callee])
        found[name] = keys
    return found


def readme_bullets() -> dict[str, str]:
    """Each ``- **Title**:`` bullet of README's "Feed formats" section, by title."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Feed formats\n", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1): match.group(2)
        for match in re.finditer(r"^- \*\*(.+?)\*\*:(.*?)(?=^- |^\s*$)", section, re.M | re.S)
    }


def backticked_words(text: str) -> set[str]:
    return {word for word in re.findall(r"`([^`]*)`", text) if re.fullmatch(r"[a-z_]+", word)}


def test_loaders_read_the_pinned_keys():
    found = keys_read(FEEDS.read_text(encoding="utf-8"))
    assert {name: keys for name, (_, keys) in LOADER_KEYS.items()} == found


@pytest.mark.parametrize("loader", sorted(LOADER_KEYS))
def test_readme_bullet_names_exactly_the_read_keys(loader):
    title, keys = LOADER_KEYS[loader]
    bullet = readme_bullets()[title]
    ignored = IGNORED.get(loader, set())
    assert not keys & ignored
    assert backticked_words(bullet) - JSON_WORDS == keys | ignored


def test_scanner_sees_each_way_to_read_a_key():
    source = '''
def load_x(path):
    for lineno, obj in lines:
        a = obj.get("a")
        b = obj.get("b", "default")
        if "c" in obj:
            d = obj["d"]
        other.get("e")
        obj.get(name)
        "f" in other
def helper(obj):
    obj.get("g")
'''
    assert keys_read(source) == {"load_x": {"a", "b", "c", "d"}}


def test_scanner_follows_a_loader_into_the_loaders_it_calls():
    source = '''
def iter_x(path):
    for lineno, obj in lines:
        yield obj.get("a"), obj["b"]
def load_x(path):
    return list(iter_x(path))
def load_y(path):
    for lineno, obj in lines:
        obj.get("c")
    return load_x(path), helper(path)
def load_z(path):
    return load_z(path)
def helper(path):
    for lineno, obj in lines:
        obj.get("d")
'''
    assert keys_read(source) == {
        "iter_x": {"a", "b"},
        "load_x": {"a", "b"},
        "load_y": {"a", "b", "c"},
        "load_z": set(),
    }
