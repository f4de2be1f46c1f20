"""README's "Library use" block runs as written.

The block is taken from README, fenced Python and all, and run in a new
interpreter in a directory holding the two feeds it names, so a name it
imports that the package no longer has, or a call whose form changed,
fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from vulnrank.report import ExportFormat, export_chunks

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_block_runs(tmp_path):
    cves = [
        {"id": "CVE-2017-0143", "description": "SMBv1 remote code execution",
         "vector": "CVSS:3.1/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H"},
        {"id": "CVE-2019-11324", "description": "urllib3 certificate checks", "score": 7.5},
    ]
    refs = [{"cve": "CVE-2017-0143", "url": "https://x.example/1", "source": "GitHub",
             "exploit": True}]
    for name, rows in (("cves.jsonl", cves), ("refs.jsonl", refs)):
        (tmp_path / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
    done = subprocess.run(
        [sys.executable, "-c", library_block()], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header = b"".join(export_chunks([], ExportFormat.TEXT)).decode()
    assert done.stdout.startswith(header), done.stdout
    assert done.stdout.count("\n") == 3 and "CVE-2019-11324" in done.stdout, done.stdout
