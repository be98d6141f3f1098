"""No check in the numerical core draws a random number.

The isometry checks decide statements over every vector of a space by
the Gram matrices of their quadratic forms, so a verdict never depends
on a seed.  The guard reads ``criteria.py``, ``h2.py`` and ``linalg.py``
with ``ast``: no name, attribute or import called ``random`` or
``default_rng``.  Docstrings and comments are not code and may mention
them.
"""

import ast
from pathlib import Path

import pytest

import liftlab

PACKAGE = Path(liftlab.__file__).parent
GUARDED = ("criteria.py", "h2.py", "linalg.py")
RANDOM_NAMES = {"random", "default_rng"}


def random_uses(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {part for alias in node.names for part in alias.name.split(".")}
            names |= set((getattr(node, "module", None) or "").split("."))
        else:
            continue
        if names & RANDOM_NAMES:
            found.setdefault(node.lineno, ast.unparse(node))
    return [f"line {line}: {text}" for line, text in sorted(found.items())]


@pytest.mark.parametrize("name", GUARDED)
def test_no_random_number_is_drawn(name):
    assert random_uses(PACKAGE / name) == []


def test_the_guard_sees_each_form(tmp_path):
    bad = tmp_path / "criteria.py"
    bad.write_text(
        '"""np.random.default_rng in a docstring is fine."""\n'
        "import numpy as np\n"
        "def probes(dim):\n"
        "    # random probes in a comment are fine\n"
        "    rng = np.random.default_rng(1)\n"
        "    return rng.standard_normal(dim)\n"
        "import random\n"
        "from numpy.random import default_rng\n"
        "def pick(xs):\n"
        "    return random.choice(xs) + len('random')\n",
        encoding="utf-8",
    )
    assert [f.split(":")[0] for f in random_uses(bad)] == ["line 5", "line 7", "line 8", "line 10"]
