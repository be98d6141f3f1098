"""Every numerical rank in the package is cut by ``linalg.rank_mask``.

The guard reads the package sources with ``ast``: outside ``linalg.py``
no code may name RANK_TOL, and nowhere may it call numpy's own
pseudo-inverse or matrix rank, pass an ``rcond``, or take a
``rank_tol`` argument.  Docstrings and comments are not code and may
mention any of these.
"""

import ast
from pathlib import Path

import pytest

import liftlab

SOURCES = sorted(Path(liftlab.__file__).parent.glob("*.py"))
FORBIDDEN_CALLS = {"np.linalg.pinv", "np.linalg.matrix_rank", "numpy.linalg.pinv", "numpy.linalg.matrix_rank"}


def _name(node):
    """The identifier a node names: a variable, attribute, imported
    name, parameter or keyword argument."""
    for field in ("id", "attr", "arg", "name"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def rank_cuts_outside_the_rule(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) in FORBIDDEN_CALLS:
            found.append(ast.unparse(node))
        name = _name(node)
        if name in ("rcond", "rank_tol") or (name == "RANK_TOL" and path.name != "linalg.py"):
            found.append(f"{name} at line {node.lineno}")
    return found


def test_the_sources_are_found():
    assert "linalg.py" in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_rank_cut_outside_rank_mask(path):
    assert rank_cuts_outside_the_rule(path) == []


def test_the_guard_sees_each_forbidden_form(tmp_path):
    bad = tmp_path / "clt.py"
    bad.write_text(
        "from .linalg import RANK_TOL\n"
        "def f(a, rank_tol=1e-7):\n"
        "    return np.linalg.pinv(a, rcond=linalg.RANK_TOL) + np.linalg.matrix_rank(a)\n",
        encoding="utf-8",
    )
    found = rank_cuts_outside_the_rule(bad)
    assert {"np.linalg.pinv", "np.linalg.matrix_rank"} <= set(found)
    assert sum(f.startswith("RANK_TOL") for f in found) == 2
    assert any(f.startswith("rcond") for f in found) and any(f.startswith("rank_tol") for f in found)
