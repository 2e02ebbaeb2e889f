"""Rules the package source keeps so that its floats stay bit-identical.

From Python 3.12 on, builtin sum() adds floats with compensated
summation, so a sum() in the package would change results with the
interpreter version.  Additions whose bits matter are written out in a
fixed order instead (see correlations._weight and optimize._nelder_mead's
centroid).
"""

import ast
from pathlib import Path

import pytest

import bellcat

SOURCES = sorted(Path(bellcat.__file__).resolve().parent.glob("*.py"))


def builtin_sum_uses(tree: ast.AST) -> list[int]:
    """Line numbers where the name sum is read: a call or a reference."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    assert builtin_sum_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_rule_sees_calls_and_references():
    tree = ast.parse("a = sum(xs)\nb = map(sum, rows)\nc = xs.sum()\nd = np.sum(xs)\n")
    assert builtin_sum_uses(tree) == [1, 2]
