"""Export defaults and triage tasks, as --help and README's CLI block state them.

Each of score, rank and report takes its default format from
``vulnrank.cli.EXPORT_FORMATS``. Its ``--help`` must print that default
as ``(default <format>)``, and README's CLI block must show it as
``[--format <format>]`` on the command's line, so the table, the help
and the docs cannot drift apart. Likewise the block's
``--task utility|opportune`` for train and predict lists the values of
``Task``, in order.
"""

import re
from pathlib import Path

import pytest

from vulnrank.cli import EXPORT_FORMATS, main
from vulnrank.feeds import Task

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    return section.split("```", 2)[1]


def readme_line(command: str) -> str:
    (line,) = [
        line for line in readme_cli_block().splitlines() if line.split()[:2] == ["vulnrank", command]
    ]
    return line


@pytest.mark.parametrize("command", sorted(EXPORT_FORMATS))
def test_help_prints_the_default(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    # argparse may wrap the help text anywhere it has a space.
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default {EXPORT_FORMATS[command].value})" in help_text


@pytest.mark.parametrize("command", sorted(EXPORT_FORMATS))
def test_readme_shows_the_default(command):
    line = readme_line(command)
    assert re.search(r"\[--format ([^\]]+)\]", line).group(1) == EXPORT_FORMATS[command].value


@pytest.mark.parametrize("command", ["train", "predict"])
def test_readme_lists_the_tasks(command):
    tasks = re.search(r"--task (\S+)", readme_line(command)).group(1)
    assert tasks.split("|") == [task.value for task in Task]
