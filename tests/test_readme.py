"""README's library example runs as written, and its Command line section names the parser's flags."""

import re
from pathlib import Path

from kerrcat import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("Library example"), re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    q_gap, fidelity = (float(line) for line in capsys.readouterr().out.split())
    assert q_gap < 1e-10
    assert 0.9 < fidelity <= 1.0 + 1e-12


def parser_flags() -> set[str]:
    """Every long option of every subcommand, argparse's own --help aside."""
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices.values()
    return {
        flag
        for command in commands
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and action.dest != "help"
    }


def test_command_line_section_names_every_flag():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section("Command line")))
    assert documented == parser_flags()
