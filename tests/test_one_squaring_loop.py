"""Only ``linalg.power_ladder`` squares a matrix.

The Stein rungs, the Taylor trace, the Hardy limit and the rows of a
lifting all read the powers M, M^2, M^4, ... of one ladder, so a
squaring anywhere else would form a power twice.  The guard reads
``criteria.py``, ``cli.py``, ``clt.py`` and ``h2.py`` with ``ast``: no
self-product ``x @ x``, ``np.matmul(x, x)``, ``np.dot(x, x)`` or
``x.dot(x)`` with the same expression on both sides.  Docstrings and
comments are not code and may mention them.
"""

import ast
from pathlib import Path

import pytest

import liftlab

PACKAGE = Path(liftlab.__file__).parent
GUARDED = ("criteria.py", "cli.py", "clt.py", "h2.py")


def self_products(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            pair = (node.left, node.right)
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            if name not in ("matmul", "dot"):
                continue
            if len(node.args) == 1 and isinstance(node.func, ast.Attribute):
                pair = (node.func.value, node.args[0])
            elif len(node.args) == 2:
                pair = tuple(node.args)
            else:
                continue
        else:
            continue
        if ast.dump(pair[0]) == ast.dump(pair[1]):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("name", GUARDED)
def test_no_self_product(name):
    assert self_products(PACKAGE / name) == []


def test_the_ladder_holds_the_one_squaring():
    assert [f.split(": ")[1] for f in self_products(PACKAGE / "linalg.py")] == ["powers[-1] @ powers[-1]"]


def test_the_guard_sees_each_form(tmp_path):
    bad = tmp_path / "criteria.py"
    bad.write_text(
        '"""power @ power in a docstring is fine."""\n'
        "import numpy as np\n"
        "def square(power, m):\n"
        "    # power @ power in a comment is fine\n"
        "    a = power @ power\n"
        "    b = np.matmul(m[0], m[0])\n"
        "    c = np.dot(m, m)\n"
        "    d = m.dot(m)\n"
        "    return a @ power, m.T @ m, np.dot(m, power)\n",
        encoding="utf-8",
    )
    assert [f.split(":")[0] for f in self_products(bad)] == ["line 5", "line 6", "line 7", "line 8"]
