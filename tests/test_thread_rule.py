"""The thread rule: every command runs its BLAS on one thread.

``linalg.OneBlasThread`` sets the BLAS to one thread through the BLAS's
own entry point and restores the count it found on any exit;
``cli.main`` enters it around every command.  The behaviour tests read
the count through ``linalg.blas_thread_entry_points``.  The guards read
the package sources with ``ast``: only ``linalg.py`` imports ctypes, no
module reads or writes the environment (so the rule cannot become a
knob), and only ``cli.main`` enters the rule.  Docstrings and comments
are not code and may mention any of them.
"""

import ast
from pathlib import Path

import pytest

import liftlab
from liftlab import cli, linalg

from test_cli import MALFORMED, write_json

SOURCES = sorted(Path(liftlab.__file__).parent.glob("*.py"))
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
RULE_NAMES = {"OneBlasThread", "blas_thread_entry_points"}
# (module, top-level definition) that may enter the rule
RULE_ENTRIES = {("cli.py", "main")}


@pytest.fixture
def threads():
    """The BLAS's (get, set) entry points, the count set to 2 first so
    that one thread inside a command cannot be the default; the count
    found before the test is restored after it."""
    points = linalg.blas_thread_entry_points()
    assert points is not None, "numpy's bundled OpenBLAS exports its thread functions"
    get, put = points
    found = get()
    put(2)
    assert get() == 2
    yield get
    put(found)


def test_the_entry_points_are_found():
    get, _ = linalg.blas_thread_entry_points()
    assert get() >= 1


def test_a_command_runs_on_one_thread(threads, monkeypatch, tmp_path):
    seen = []
    scenario = cli._SCENARIO_FUNCS["rk3_1"]

    def spy(cfg):
        seen.append(threads())
        return scenario(cfg)

    monkeypatch.setitem(cli._SCENARIO_FUNCS, "rk3_1", spy)
    assert cli.main(["examples", "rk3_1", "--out", str(tmp_path / "rk3_1.json")]) == 0
    assert seen == [1]
    assert threads() == 2


def test_library_calls_outside_main_keep_the_count(threads):
    linalg.operator_norm(linalg.as_matrix([[1.0, 2.0], [3.0, 4.0]]))
    assert threads() == 2


def test_a_passing_command_restores_the_count(threads, tmp_path):
    assert cli.main(["examples", "cor3_3", "--out", str(tmp_path / "cor3_3.json")]) == 0
    assert threads() == 2


def test_an_input_error_restores_the_count(threads, tmp_path, rng, capsys):
    command, make_doc, where = MALFORMED["bimodel_array"]
    path = write_json(tmp_path / "input.json", make_doc(rng))
    assert cli.main([command, "--input", path]) == 2
    assert where in capsys.readouterr().err
    assert threads() == 2


def test_a_usage_error_restores_the_count(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 2
    assert threads() == 2


def test_an_exception_restores_the_count(threads, monkeypatch, tmp_path):
    def broken(cfg):
        raise RuntimeError("planted")

    monkeypatch.setitem(cli._COMMAND_FUNCS, "dims", broken)
    with pytest.raises(RuntimeError, match="planted"):
        cli.main(["dims", "--input", str(tmp_path / "unread.json")])
    assert threads() == 2


def test_without_entry_points_a_command_runs_as_before(monkeypatch, tmp_path):
    out = tmp_path / "cor3_3.json"
    assert cli.main(["examples", "cor3_3", "--out", str(out)]) == 0
    with_rule = out.read_bytes()
    monkeypatch.setattr(linalg, "blas_thread_entry_points", lambda: None)
    assert cli.main(["examples", "cor3_3", "--out", str(out)]) == 0
    assert out.read_bytes() == with_rule


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def ctypes_imports(path: Path) -> list:
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in sorted(ast.walk(_parse(path)), key=lambda n: getattr(n, "lineno", 0))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ctypes" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes")
    ]


def environment_uses(path: Path) -> list:
    found = {}
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
        else:
            continue
        if names & ENVIRONMENT_NAMES:
            found.setdefault(node.lineno, ast.unparse(node))
    return [f"line {line}: {text}" for line, text in sorted(found.items())]


def rule_entries(path: Path) -> list:
    """Each use of the rule's names as 'owner line: source', the owner
    being the top-level definition that holds it; the allowed entry is
    left out."""
    found = []
    for top in _parse(path).body:
        owner = getattr(top, "name", "<module>")
        if (path.name, owner) in RULE_ENTRIES:
            continue
        found += [
            f"{owner} line {node.lineno}: {ast.unparse(node)}"
            for node in sorted(ast.walk(top), key=lambda n: getattr(n, "lineno", 0))
            if (isinstance(node, ast.Name) and node.id in RULE_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in RULE_NAMES)
        ]
    return found


def test_the_sources_are_found():
    assert {"linalg.py", "cli.py"} <= {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_linalg_imports_ctypes(path):
    found = [f.split(": ", 1)[1] for f in ctypes_imports(path)]
    assert found == (["import ctypes"] if path.name == "linalg.py" else [])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_or_writes_the_environment(path):
    assert environment_uses(path) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_cli_main_enters_the_rule(path):
    assert rule_entries(path) == []


def test_cli_main_runs_its_whole_body_inside_the_rule():
    (main,) = [t for t in _parse(Path(cli.__file__)).body if getattr(t, "name", None) == "main"]
    (block,) = main.body
    assert isinstance(block, ast.With)
    assert [ast.unparse(item.context_expr) for item in block.items] == ["linalg.OneBlasThread()"]


def test_the_guards_see_each_form(tmp_path):
    bad = tmp_path / "clt.py"
    bad.write_text(
        '"""import ctypes, os.environ and OneBlasThread in a docstring are fine."""\n'
        "import os, ctypes\n"
        "from ctypes import CDLL\n"
        "import ctypes.util as util\n"
        "from os import getenv\n"
        "from . import linalg\n"
        "def threads():\n"
        "    # os.environ['OPENBLAS_NUM_THREADS'] in a comment is fine\n"
        "    os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "    n = os.getenv('X') or getenv('Y') or os.environ.get('Z')\n"
        "    os.putenv('X', '1')\n"
        "    with linalg.OneBlasThread():\n"
        "        return linalg.blas_thread_entry_points(), n\n"
        "def main():\n"
        "    with linalg.OneBlasThread():\n"
        "        return 'environ'\n",
        encoding="utf-8",
    )
    assert [f.split(":")[0] for f in ctypes_imports(bad)] == ["line 2", "line 3", "line 4"]
    assert [f.split(":")[0] for f in environment_uses(bad)] == ["line 5", "line 9", "line 10", "line 11"]
    assert [f.split(":")[0] for f in rule_entries(bad)] == [
        "threads line 12", "threads line 13", "main line 15",
    ]
