"""No function in the package is a generator.

A generator returns at once and runs only as its caller iterates it, so
a tracer that times each call from entry to return (as
``perfbench/layertrace.py`` does) would charge its work to the caller.
The guard reads the package sources with ``ast``: no ``yield`` and no
``yield from`` anywhere.  Docstrings and comments are not code and may
mention them.
"""

import ast
from pathlib import Path

import pytest

import liftlab

SOURCES = sorted(Path(liftlab.__file__).parent.glob("*.py"))


def yields(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0))
        if isinstance(node, (ast.Yield, ast.YieldFrom))
    ]


def test_the_sources_are_found():
    assert "h2.py" in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_yield(path):
    assert yields(path) == []


def test_the_guard_sees_each_form(tmp_path):
    bad = tmp_path / "h2.py"
    bad.write_text(
        '"""yield in a docstring is fine."""\n'
        "def terms(a):\n"
        "    # yield in a comment is fine\n"
        "    yield a\n"
        "def more(a):\n"
        "    yield from terms(a)\n"
        "    return [x for x in a]\n",
        encoding="utf-8",
    )
    assert [f.split(":")[0] for f in yields(bad)] == ["line 4", "line 6"]
