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


def bounds_bullet() -> str:
    section = README.read_text().split("- Work and memory are bounded", 1)[1]
    return " ".join(section.split("\n- ", 1)[0].split())


def test_readme_caps_are_the_code_caps():
    from recombdyn.cli import MAX_CYCLIC_CELLS, MAX_STATES, MAX_STORED_WEIGHTS
    from recombdyn.dynamics import MAX_GRID_POINTS, MAX_STEPS, ROW_BLOCK_CELLS

    stated = {
        name: int(base) ** int(power)
        for base, power, name in re.findall(
            r"at most (\d+)\^(\d+) (integrator steps|stored grid points|states|"
            r"stored weights|cyclic cells|cells)\b",
            bounds_bullet(),
        )
    }
    assert stated == {
        "integrator steps": MAX_STEPS,
        "stored grid points": MAX_GRID_POINTS,
        "states": MAX_STATES,
        "stored weights": MAX_STORED_WEIGHTS,
        "cyclic cells": MAX_CYCLIC_CELLS,
        "cells": ROW_BLOCK_CELLS,
    }


def test_readme_slice_width_is_the_writers_slice_width():
    from recombdyn import writers

    stated = re.findall(r"slices of ([\d,]+) cells", " ".join(README.read_text().split()))
    assert stated and {int(n.replace(",", "")) for n in stated} == {writers._CHUNK_CELLS}, stated


def test_readme_call_forms_are_package_names():
    # Every `name(...)` and every backticked type name `Name` of the prose
    # names something the package defines, so a deleted or renamed function
    # or type cannot stay in the README; exp is math, NaN and Infinity JSON.
    import importlib
    import pkgutil

    import recombdyn

    modules = [recombdyn] + [
        importlib.import_module(f"recombdyn.{info.name}")
        for info in pkgutil.iter_modules(recombdyn.__path__)
    ]
    text = README.read_text()
    named = set(re.findall(r"`([A-Za-z_]\w*)\(", text) + re.findall(r"`([A-Z][a-z]\w*)`", text))
    named -= {"exp", "NaN", "Infinity"}
    assert named
    assert sorted(n for n in named if not any(hasattr(m, n) for m in modules)) == []


def test_readme_names_every_top_level_name():
    # The reverse check: each name the top level exports appears backticked
    # in the README, so the core-types list follows the package.
    import recombdyn

    text = README.read_text()
    missing = [
        name for name in recombdyn.__all__
        if name != "__version__" and not re.search(rf"`{name}\b", text)
    ]
    assert missing == []
