"""README's CLI block, run line by line through ``vtreduce.cli.main``, must
do what it documents: every command exits 0, a trailing ``# <number>``
comment is the command's output, and the files listed after ``# ->`` are
written."""

import re
import shlex
from pathlib import Path

from vtreduce.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block() -> str:
    """The README ``bash`` block that runs ``vtreduce``, continuations joined."""
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    block = next(b for b in blocks if re.search(r"^vtreduce ", b, re.M))
    return block.replace("\\\n", " ")


def test_cli_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VTREDUCE_OUT_DIR", raising=False)
    block = cli_block()
    commands = re.findall(r"^vtreduce (.*?)(?:#\s*(\S+))?\s*$", block, re.M)
    listed = re.search(r"^# -> (.*(?:\n#   .*)*)", block, re.M)[1]
    names = [Path(n).name for n in re.split(r"[\s,#]+", listed) if n]
    assert len(commands) >= 6 and len(names) >= 5  # the block was found whole
    for command, expected in commands:
        assert main(shlex.split(command)) == 0, command
        out = capsys.readouterr().out
        if expected:
            assert out.strip() == expected, command
    assert [n for n in names if not (tmp_path / "run" / n).is_file()] == []
