"""The README's library example runs as written, and its command-line
section names exactly the options the parser has, in examples that parse."""

import argparse
import pathlib
import re
import shlex

import pytest

from bilip.cli import build_parser
from bilip.fixtures import map_samples
from bilip.serialize import save_map
from cli_runner import run_python

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def command_line_section() -> str:
    return README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    save_map(map_samples("scale-2", count=200), tmp_path / "samples.csv")
    # a fresh interpreter, so the example must import everything it uses
    out = run_python("-c", block, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    constant_line, exchange_line = out.stdout.splitlines()
    assert float(constant_line.split()[0]) == 2.0
    assert max(map(float, exchange_line.split())) < 1e-10


def test_command_line_section_names_every_option():
    section = command_line_section()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert sorted(options - named) == [], "options the README does not name"
    assert sorted(named - options) == [], "options the README names that no command has"


def test_command_line_examples_parse():
    lines = [line for line in command_line_section().splitlines() if line.startswith("bilip ")]
    assert len(lines) >= 11
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
