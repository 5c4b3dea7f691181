"""Every name a library module imports is used in that module.

Stdlib only: each module is parsed with `ast`, never imported. `__future__`
imports and lines marked `# noqa` are skipped; the latter are the names that
`perfbench/tracing.py` rebinds.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "crofton"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the source's imports that it never reads, in source order."""
    lines = source.splitlines()
    bound, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound += [(alias.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names
                      if "# noqa" not in lines[alias.lineno - 1]]
    return [name for _, name in sorted(bound) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_check_finds_a_leftover_and_honours_its_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "from .geometry import (\n"
        "    _clip_cell,\n"
        "    contains,\n"
        "    split,  # noqa: F401\n"
        ")\n"
        "def f(x):\n"
        "    return np.sqrt(x) if contains(x, x) else x\n"
    )
    assert unused_imports(source) == ["math", "_clip_cell"]
