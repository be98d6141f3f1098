"""Every squared modulus in the package goes through ``linalg.sq_norms``,
and every spectral norm through ``linalg.operator_norm`` or
``linalg.hermitian_norm``.

The guards read the package sources with ``ast``.  No code may square
``np.abs(...)``, the form that builds a temporary of moduli, takes a
square root per entry and squares it again.  No code may take a
spectral norm by an SVD: ``np.linalg.norm`` or ``matrix_norm`` with ord
2 or -2 (or an ord that is not a literal), ``svdvals``, or ``svd`` with
``compute_uv=False``.  Docstrings and comments are not code and may
mention either.
"""

import ast
from pathlib import Path

import pytest

import liftlab

SOURCES = sorted(Path(liftlab.__file__).parent.glob("*.py"))
ABS_CALLS = {"np.abs", "np.absolute", "numpy.abs", "numpy.absolute"}
NORM_CALLS = {f"{np}.linalg.{f}" for np in ("np", "numpy") for f in ("norm", "matrix_norm")}
SVD_CALLS = {f"{np}.linalg.svd" for np in ("np", "numpy")}
SVDVALS_CALLS = {f"{np}.linalg.svdvals" for np in ("np", "numpy")}
# The two seeded draws keep the SVD norm they scale by: its last bits
# scale the drawn T' (prop4_6) and X (shift problems), so another norm
# would move the coupling's kernel bases, which the free parameter r0 is
# drawn in, and re-draw the problems behind the committed reports.
SVD_NORM_EXCEPTIONS = {
    ("cli.py", "_scenario_prop4_6"): "scales the drawn T'",
    ("clt.py", "shift_intertwining_problem"): "scales the drawn X",
}


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


def _takes_an_svd_norm(call: ast.Call) -> bool:
    name = ast.unparse(call.func)
    if name in SVDVALS_CALLS:
        return True
    keywords = {k.arg: k.value for k in call.keywords}
    if name in SVD_CALLS:
        flag = keywords.get("compute_uv", call.args[2] if len(call.args) > 2 else None)
        return flag is not None and not (isinstance(flag, ast.Constant) and flag.value is True)
    if name in NORM_CALLS:
        order = keywords.get("ord", call.args[1] if len(call.args) > 1 else None)
        if order is None or (isinstance(order, ast.Constant) and order.value is None):
            return False
        return not isinstance(order, ast.Constant) or order.value in (2, -2)
    return False


def svd_norms_outside_the_kernel(path: Path) -> list:
    """Each SVD norm as 'function line: source', the function being the
    top-level definition that holds it; the named exceptions are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        if (path.name, owner) in SVD_NORM_EXCEPTIONS:
            continue
        found += [
            f"{owner} line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and _takes_an_svd_norm(node)
        ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_svd_norm_outside_the_norm_kernel(path):
    assert svd_norms_outside_the_kernel(path) == []


def test_each_exception_still_holds_its_svd_norm():
    """An exception whose draw no longer takes an SVD norm is stale."""
    for name, owner in SVD_NORM_EXCEPTIONS:
        tree = ast.parse((Path(liftlab.__file__).parent / name).read_text(encoding="utf-8"))
        (top,) = [t for t in tree.body if getattr(t, "name", None) == owner]
        assert any(isinstance(n, ast.Call) and _takes_an_svd_norm(n) for n in ast.walk(top)), owner


def test_the_svd_norm_guard_sees_each_form(tmp_path):
    bad = tmp_path / "clt.py"
    bad.write_text(
        '"""np.linalg.norm(x, 2) in a docstring is fine."""\n'
        "import numpy\n"
        "def shift_intertwining_problem(x):\n"
        "    return np.linalg.norm(x, 2)\n"
        "def f(x, order):\n"
        "    # np.linalg.norm(x, 2) in a comment is fine\n"
        "    a = np.linalg.norm(x, 2) + numpy.linalg.norm(x, ord=-2)\n"
        "    b = np.linalg.svd(x, compute_uv=False) + np.linalg.svdvals(x)\n"
        "    c = np.linalg.norm(x, order) + np.linalg.matrix_norm(x, ord=2)\n"
        "    d = np.linalg.norm(x) + np.linalg.norm(x, 'fro') + np.linalg.norm(x, ord=None)\n"
        "    u, s, vh = np.linalg.svd(x)\n"
        "    return a + b + c + d + np.linalg.svd(x, compute_uv=True)[1]\n",
        encoding="utf-8",
    )
    found = svd_norms_outside_the_kernel(bad)
    assert [f.split(":")[0] for f in found] == ["f line 7"] * 2 + ["f line 8"] * 2 + ["f line 9"] * 2
