"""README's examples run as written, and the documented flags and schema match the code.

The Command line section names the parser's flags, its config examples load,
and cli's schema names every field of the physical section.
"""

import json
import re
from dataclasses import fields
from pathlib import Path

from kerrcat import cli, trap_params

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


def test_command_line_configs_load(tmp_path):
    text = section("Command line")
    path = tmp_path / "config.json"
    path.write_text(re.search(r"cat > config.json <<'EOF'\n(.*?)EOF", text, re.DOTALL).group(1))
    assert cli.load_config(str(path)).mode == "dimensionless"
    block = re.search(r"```json\n(.*?)```", text, re.DOTALL).group(1)
    doc = {"schema_version": 1, "mode": "physical", **json.loads("{" + block + "}")}
    path.write_text(json.dumps(doc))
    assert cli.load_config(str(path)).mode == "physical"


def test_schema_names_every_physical_field():
    block = re.search(r'"physical": \{(.*?)\}', cli.__doc__, re.DOTALL).group(1)
    documented = set(re.findall(r'"(\w+)":', block))
    assert documented == {field.name for field in fields(trap_params.TrapConfig)}
