"""Every squared modulus in the package goes through ``linalg.sq_norms``.

The guard reads the package sources with ``ast``: no code may square
``np.abs(...)``, the form that builds a temporary of moduli, takes a
square root per entry and squares it again.  Docstrings and comments
are not code and may mention it.
"""

import ast
from pathlib import Path

import pytest

import liftlab

SOURCES = sorted(Path(liftlab.__file__).parent.glob("*.py"))
ABS_CALLS = {"np.abs", "np.absolute", "numpy.abs", "numpy.absolute"}


def squared_abs_outside_the_helper(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Call)
        and ast.unparse(node.left.func) in ABS_CALLS
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    ]


def test_the_sources_are_found():
    assert "linalg.py" in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_squared_abs_outside_sq_norms(path):
    assert squared_abs_outside_the_helper(path) == []


def test_the_guard_sees_each_form(tmp_path):
    bad = tmp_path / "criteria.py"
    bad.write_text(
        '"""np.abs(x) ** 2 in a docstring is fine."""\n'
        "import numpy\n"
        "def f(x, y):\n"
        "    # np.abs(x) ** 2 in a comment is fine\n"
        "    a = np.sum(np.abs(x) ** 2, axis=1)\n"
        "    b = numpy.absolute(x @ y) ** 2\n"
        "    return a + np.abs(y) ** 3 + abs(x) ** 2 + np.abs(x) * 2\n",
        encoding="utf-8",
    )
    found = squared_abs_outside_the_helper(bad)
    assert [f.split(":")[0] for f in found] == ["line 5", "line 6"]
