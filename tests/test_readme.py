"""README.md's examples stay runnable: every ``python`` block runs, every ``ucal`` line parses."""

import re
import shlex
from pathlib import Path

import pytest

from ucal import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def _ucal_commands():
    """The ``ucal`` command lines of README's sh blocks, continuations joined, comments dropped."""
    commands = []
    for block in SH_BLOCKS:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ucal"]:
                commands.append(words[1:])
    return commands


COMMANDS = _ucal_commands()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_ucal_commands():
    assert {argv[0] for argv in COMMANDS} == {"run", "sweep", "minimax", "validate"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:3]) for argv in COMMANDS])
def test_readme_command_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
