"""Only ``feeds.write_atomic`` opens a file for writing.

Exports, label stores and model files are written atomically, through
symlinks, never over a directory, FIFO or device, and with one error
message; ``write_atomic`` is the one place that is done. This scans the
source of every module under ``src/vulnrank`` for a call that creates,
writes or renames a file and names the function it sits in.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vulnrank"

ALLOWED = {"feeds.write_atomic"}
# Calls that create, write or rename a file whatever their arguments.
WRITING_CALLS = {
    "os.open", "os.fdopen", "os.replace", "os.rename", "os.mkfifo",
    "tempfile.mkstemp", "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
}
WRITING_METHODS = {"write_text", "write_bytes"}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _opens_for_writing(call: ast.Call) -> bool:
    # open(path, mode) and io.open(path, mode); path.open(mode) otherwise.
    # A mode that is not a string literal may write, so it counts.
    name = _dotted(call.func)
    position = 1 if name in ("open", "io.open") else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def writers(source: str, module: str) -> set[str]:
    """``module.function`` for each function whose body writes a file."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                name = _dotted(child.func)
                if (
                    name in WRITING_CALLS
                    or name.startswith("shutil.")
                    or name.rpartition(".")[2] in WRITING_METHODS
                    or (name.rpartition(".")[2] == "open" and _opens_for_writing(child))
                ):
                    found.add(inner)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_only_write_atomic_writes_files():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        found |= writers(path.read_text(encoding="utf-8"), module)
    assert found == ALLOWED


def test_scanner_sees_each_way_to_write():
    source = '''
def reads(path, fh):
    open(path)
    open(path, "rb")
    open(path, mode="r", encoding="utf-8")
    path.open()
    text.replace("a", "b")
def writes_text(path): open(path, "w")
def appends(path): open(path, mode="a")
def updates(path): path.open("r+b")
def unknown_mode(path, mode): open(path, mode)
def via_path(path): path.write_bytes(b"")
def renames(a, b): os.replace(a, b)
def copies(a, b): shutil.copyfile(a, b)
def temp(): tempfile.mkstemp()
class Store:
    def save(self): os.open(self.path, os.O_WRONLY)
'''
    assert writers(source, "m") == {
        "m.writes_text", "m.appends", "m.updates", "m.unknown_mode", "m.via_path",
        "m.renames", "m.copies", "m.temp", "m.Store.save",
    }
