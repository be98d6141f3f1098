"""Only ``linalg.power_ladder`` squares a matrix, once per symbol, and
each coupling is factored once.

The Stein rungs, the Taylor trace, the Hardy limit and the rows of a
lifting all read the powers M, M^2, M^4, ... of one ladder, so a
squaring anywhere else would form a power twice.  The guard reads
``criteria.py``, ``cli.py``, ``clt.py`` and ``h2.py`` with ``ast``: no
self-product ``x @ x``, ``np.matmul(x, x)``, ``np.dot(x, x)`` or
``x.dot(x)`` with the same expression on both sides.  Docstrings and
comments are not code and may mention them.

A command builds one ``h2.Companion`` per symbol, through
``criteria.companion``, which alone splits the symbol W into its blocks;
a second guard reads every module of the package with ``ast`` and finds
no other construction.  The command hands that companion to every
reader, so the ladder itself is built once per symbol: counted by
wrapping ``linalg.power_ladder``, `examples prop4_6` builds 2 (one per
multiplicity) and each `lift` 1.  ``clt.build_omega`` takes one SVD of
g = Q_X* D_X T for both ker g* and pinv(g), and no basis the package
builds is checked again by ``SubspaceBasis.__post_init__``.  Each count
comes with a planted violation that the same count sees.
"""

import ast
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import liftlab
from liftlab import cli, clt, criteria, linalg, serialize

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


def companion_constructions(path: Path) -> list:
    """Where the module at `path` calls ``h2.Companion``, as
    "<module>.<enclosing scope>: line n": called by that name, through
    an attribute of that name, or by a name imported for it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"Companion"} | {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                             for alias in node.names if alias.name == "Companion"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id in names) or \
                        (isinstance(func, ast.Attribute) and func.attr == "Companion"):
                    found.append(f"{scope}: line {child.lineno}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(tree, path.stem)
    return found


def test_only_criteria_companion_builds_a_companion():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in companion_constructions(path)]
    assert [entry.split(":")[0] for entry in found] == ["criteria.companion"]


def test_the_companion_guard_sees_each_form(tmp_path):
    bad = tmp_path / "cli.py"
    bad.write_text(
        '"""h2.Companion(w, 0, 1) in a docstring is fine."""\n'
        "from . import h2\n"
        "from .h2 import Companion as Built\n"
        "def run(w):\n"
        "    # h2.Companion(w, 0, 1) in a comment is fine\n"
        "    return h2.Companion(w, 0, 1)\n"
        "class Holder:\n"
        "    def build(self, w):\n"
        "        return Built(w, 0, 1)\n"
        "LATE = Companion(None, 0, 1)\n",
        encoding="utf-8",
    )
    assert companion_constructions(bad) == ["cli.run: line 6", "cli.Holder.build: line 9", "cli: line 10"]


INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
PROP4_6 = ["examples", "prop4_6"]
LIFTS = {
    "lift": ["lift", "--input", str(INPUTS / "lift.json")],
    "lift_schur": ["lift", "--input", str(INPUTS / "lift_schur.json"), "--schur", str(INPUTS / "schur.json")],
}


def recorded(monkeypatch, owner, name) -> list:
    """The positional arguments of every call to owner.name from now on."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def run(argv, tmp_path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, "--out", str(tmp_path / "report.json")])


def ladders(monkeypatch, tmp_path, argv) -> int:
    calls = recorded(monkeypatch, linalg, "power_ladder")
    assert run(argv, tmp_path) == 0
    return len(calls)


def test_prop4_6_builds_one_ladder_per_multiplicity(monkeypatch, tmp_path):
    assert ladders(monkeypatch, tmp_path, PROP4_6) == 2


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_each_lift_builds_one_ladder(monkeypatch, tmp_path, name):
    assert ladders(monkeypatch, tmp_path, LIFTS[name]) == 1


def test_the_ladder_count_sees_a_check_that_builds_its_own(monkeypatch, tmp_path):
    # planted: lifting_isometry_check sets the shared companion aside and squares A again
    original = criteria.lifting_isometry_check
    monkeypatch.setattr(criteria, "lifting_isometry_check", lambda ld, r, comp, **kw: original(
        ld, r, criteria.companion(comp.w, comp.start, grid=kw["grid"]), **kw))
    assert ladders(monkeypatch, tmp_path, PROP4_6) == 4


def factorings_of_g(monkeypatch) -> int:
    """SVDs that build_omega takes of g or of g* on the golden dims problem."""
    problem = serialize.decode_problem(json.loads((INPUTS / "dims.json").read_text(encoding="utf-8")))
    g = (problem.basis_x.columns.conj().T @ problem.d_x @ problem.t.matrix())[:, : problem.window_dim]
    calls = recorded(monkeypatch, np.linalg, "svd")
    clt.build_omega(problem)
    return sum(any(a.shape == m.shape and np.array_equal(a, m) for m in (g.conj().T, g.conj())) for a, *_ in calls)


def test_build_omega_factors_g_once(monkeypatch):
    assert factorings_of_g(monkeypatch) == 1


def test_the_svd_count_sees_a_second_factoring(monkeypatch):
    # planted: the kernel and the pseudo-inverse each take their own SVD
    monkeypatch.setattr(linalg, "kernel_and_adjoint_pinv", lambda m: (linalg.kernel_basis(m), linalg.pinv(m.conj().T)))
    assert factorings_of_g(monkeypatch) == 2


def basis_checks(monkeypatch, tmp_path) -> int:
    calls = recorded(monkeypatch, linalg.SubspaceBasis, "__post_init__")
    for argv in (PROP4_6, *LIFTS.values()):
        assert run(argv, tmp_path) == 0
    return len(calls)


def test_no_basis_the_package_builds_is_checked_again(monkeypatch, tmp_path):
    assert basis_checks(monkeypatch, tmp_path) == 0


def test_the_basis_count_sees_a_constructor_that_checks(monkeypatch, tmp_path):
    # planted: the constructors go through the public, checking, path
    monkeypatch.setattr(linalg.SubspaceBasis, "_built", classmethod(lambda cls, columns: cls(columns)))
    assert basis_checks(monkeypatch, tmp_path) > 0
