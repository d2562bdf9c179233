"""The README's CLI examples and library quick reference run as written."""

import re
import shlex
from pathlib import Path

import pytest

from tristab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PROMPT = "$ tristab "


def _blocks(lang):
    return re.findall(r"```%s\n(.*?)```" % lang, README, re.S)


def _cli_examples():
    """(argv, printed lines) of every `$ tristab` line; the printed lines
    are those after it up to a blank line or the next prompt."""
    examples = []
    for block in _blocks("sh"):
        expected = None
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith(PROMPT):
                expected = []
                examples.append((shlex.split(line[len(PROMPT):]), expected))
            elif not line.strip():
                expected = None
            elif expected is not None:
                expected.append(line)
    return examples


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 7
    assert sum(1 for _, expected in EXAMPLES if expected) >= 4


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_cli_example_runs_as_written(argv, expected, tmp_path, monkeypatch,
                                     capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    if expected:
        assert printed == expected


def test_quick_reference_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    value, verdict = capsys.readouterr().out.split()
    assert value.startswith("1.9699") and verdict == "stable"
