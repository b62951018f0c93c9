"""README's examples run as written: every `fibnest` line of the CLI block
ends in a verdict (exit 0 or 1), never a usage error, and the library
example prints what its comment says."""

import re
import shlex
from pathlib import Path

from fibnest.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    match = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no {lang} block under '## {heading}'"
    return match[1]


def test_cli_block_commands_run(tmp_path, monkeypatch, capsys):
    # the lines run in order, in one directory: later ones read the
    # certificates that earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in _block("CLI", "sh").splitlines() if line.startswith("fibnest ")]
    assert commands
    for argv in commands:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1), argv


def test_library_example_runs(capsys):
    exec(_block("Library example", "python"), {})
    assert capsys.readouterr().out == "2584/6765\n"
