"""The README against the code: every `swapnet` command line in its code
blocks parses, and every file path it names exists.  Nothing is run."""

import re
import shlex
from pathlib import Path

import pytest

from swapnet import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CODE = "\n".join(re.findall(r"```[a-z]*\n(.*?)```", README, flags=re.S))
COMMANDS = [line for line in CODE.splitlines() if line.startswith("swapnet ")]
PATHS = sorted(set(re.findall(r"\b(?:scripts|src|tests)/[\w./-]*\w/?", README)))


def test_readme_has_commands_and_paths():
    assert len(COMMANDS) >= 10 and "src/swapnet/" in PATHS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("path", PATHS)
def test_readme_path_exists(path):
    assert (ROOT / path).exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "swapnet 0.1.0\n"
