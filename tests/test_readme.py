"""README's library example runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    q_gap, fidelity = (float(line) for line in capsys.readouterr().out.split())
    assert q_gap < 1e-10
    assert 0.9 < fidelity <= 1.0 + 1e-12
