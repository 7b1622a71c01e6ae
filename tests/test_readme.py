"""The README's examples run as written: the library quick start prints its
stated line, and every command of the command-line block exits 0 when run
from the repository root."""

import re
import shlex
from pathlib import Path

import pytest

from cocyclelab.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def block(heading: str, language: str) -> str:
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def commands() -> list:
    """The command-line block's commands as argument lists, continuation
    lines joined and comments dropped, without the leading ``cocyclelab``."""
    text = block("Command line", "sh").replace("\\\n", " ")
    argvs = [shlex.split(line, comments=True) for line in text.splitlines()]
    assert all(argv[0] == "cocyclelab" for argv in argvs if argv)
    return [argv[1:] for argv in argvs if argv]


def test_the_library_quick_start_prints_its_stated_line(capsys):
    source = block("Quick start (library)", "python")
    stated = re.search(r"# (.+)\n$", source).group(1).strip()
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out == f"{stated}\n" == "True True True\n"


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: argv[0])
def test_each_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1:]]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
