"""The README's library example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    shape, drift, gap, spread = capsys.readouterr().out.splitlines()
    assert shape == "(2001, 12)"
    assert float(drift) <= 1e-12 and float(gap) <= 1e-12
    assert 1e-3 < float(spread) < 1.0
