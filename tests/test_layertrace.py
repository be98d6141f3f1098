"""The benchmark's layer tracer still finds every function it wraps.

perfbench/layertrace.py names liftlab functions and the arguments its
work counters read; renaming or deleting one breaks the benchmark, so
this runs a small pass under the tracer and checks every layer.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from liftlab import bimodel, cli, clt, coiso, criteria, h2, linalg, serialize

from test_cli import COMMANDS

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
MODULES = {
    "h2": h2, "linalg": linalg, "clt": clt, "criteria": criteria,
    "bimodel": bimodel, "coiso": coiso, "serialize": serialize, "cli": cli,
}


def load_layertrace(monkeypatch):
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_records_a_span(tmp_path, rng, monkeypatch):
    layertrace = load_layertrace(monkeypatch)
    tracer = layertrace.Tracer(MODULES)
    runs = [["examples", s] for s in ("ex3_1", "rk3_1", "cor3_3")]
    runs += [COMMANDS[name](rng, tmp_path) for name in ("lift", "dims", "bimodel", "coiso_feasible")]
    original = h2.resolvent_apply_grid
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert h2.resolvent_apply_grid is not original
        for argv in runs:
            out = tmp_path / "report.json"
            assert cli.main([*argv, "--out", str(out)]) == 0
            assert json.loads(out.read_bytes())["matched"] is True
    assert h2.resolvent_apply_grid is original
    spanned = {name for name, *_ in tracer.spans}
    assert {layer.name for layer in layertrace.LAYERS} <= spanned
    summary = tracer.summary(1)
    for check in ("radial_isometry_check", "boundary_measure_check", "lifting_isometry_check"):
        assert summary[f"criteria.{check}.solves"] > 0
    assert summary["h2.eval_circle_grid.nodes"] > 0
    assert summary["h2.neumann_inverse.macs"] > 0
