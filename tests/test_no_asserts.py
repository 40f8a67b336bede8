"""The certification path must survive `python -O`, which strips `assert`
statements: no module of the package holds one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "charthree"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_no_assert(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module}: assert statements at lines {lines}"
