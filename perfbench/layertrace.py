"""Layer tracing from outside liftlab.

A ``Tracer`` replaces each function listed in ``LAYERS`` by a wrapper at
every module attribute that binds it, names bound by ``from ... import``
included (``criteria.assemble_schur_W`` is ``clt.assemble_schur_W``).
The wrapper keeps a span (name, start, end, parent) in memory and adds
the work the call did, computed from its argument and result shapes
(``macs``, ``nodes``, ``solves``, ``matrices`` and the byte counts are
computed, not measured).  A layer's self time is the duration of its
spans minus the part their direct child spans cover, so the self times
of one traced pass, including the benchmark's own glue, sum to the
pass's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "perfbench.pass"
DECIDED = ("pass", "fail")


def _min_sum(n: int, width: int) -> int:
    """sum over i = 1..n of min(i, width): the products of a truncated
    triangular-Toeplitz recursion whose input has `width` terms."""
    if n <= width:
        return n * (n + 1) // 2
    return width * (width + 1) // 2 + (n - width) * width


def _series_inverse_work(args, result) -> dict:
    p, degree = args["p"], args["degree"]
    # one d x d product per convolution term plus the q0 @ acc per degree
    return {"macs": (_min_sum(degree, p.degree) + degree) * p.in_dim**3}


def _neumann_inverse_work(args, result) -> dict:
    a, degree = args["a"], args["degree"]
    return {"macs": _min_sum(degree, a.degree + 1) * a.in_dim**3}


def _grid_nodes(args, result) -> dict:
    return {"nodes": args["grid"]}


def _verdict_work(args, result) -> dict:
    return {"verdicts": 1, "decided": int(result.verdict in DECIDED)}


def _check_work(args, result) -> dict:
    """One batched resolvent solve of `grid` systems per ladder rung."""
    return {"solves": len(args["ladder"]) * args["grid"], **_verdict_work(args, result)}


def _defect_batch_work(args, result) -> dict:
    shape = getattr(args["values"], "shape", ())
    return {"matrices": math.prod(shape[:-2])}


def _u_bytes(args, result) -> dict:
    return {"u_bytes": result.u.nbytes}


def _y_bytes(args, result) -> dict:
    return {"y_bytes": result.y.nbytes}


def _text_bytes(args, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Layer:
    """One traced function: `stats` are emitted as
    `<module>.<func>.<stat>`, `work` computes the counted stats of one
    call and `moves` names the end-to-end metric the layer should move."""

    module: str
    func: str
    stats: tuple
    moves: str
    work: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


LAYERS = (
    Layer("h2", "series_inverse", ("calls", "self_s", "macs"), "series.wall_s", _series_inverse_work),
    Layer("h2", "neumann_inverse", ("calls", "self_s", "macs"), "lifting.wall_s", _neumann_inverse_work),
    Layer("h2", "polymul", ("self_s",), "series.wall_s, model.wall_s"),
    Layer("h2", "eval_circle_grid", ("self_s", "nodes"), "model.wall_s, series.wall_s", _grid_nodes),
    Layer("h2", "resolvent_apply_grid", ("self_s",), "model.wall_s"),
    Layer("h2", "herglotz_to_symbol", ("self_s",), "series.wall_s"),
    Layer("h2", "outer_from_boundary_modulus", ("self_s",), "series.wall_s"),
    Layer("criteria", "radial_isometry_check", ("calls", "self_s", "solves"), "model.wall_s", _check_work),
    Layer("criteria", "boundary_measure_check", ("calls", "self_s", "solves"), "model.wall_s, series.wall_s", _check_work),
    Layer("criteria", "lifting_isometry_check", ("calls", "self_s", "solves"), "lifting.wall_s", _check_work),
    Layer("criteria", "obstruction_search", ("self_s",), "model.wall_s, lifting.wall_s", _verdict_work),
    Layer("criteria", "constant_symbol_check", ("self_s",), "model.wall_s", _verdict_work),
    Layer("clt", "build_problem", ("self_s",), "lifting.wall_s"),
    Layer("clt", "build_omega", ("self_s",), "lifting.wall_s"),
    Layer("clt", "build_omega_explicit", ("self_s",), "lifting.wall_s"),
    Layer("clt", "assemble_schur_W", ("self_s",), "lifting.wall_s"),
    Layer("clt", "lift", ("self_s", "y_bytes"), "lifting.wall_s, lifting.peak_rss_mb", _y_bytes),
    Layer("clt", "dims_report", ("self_s",), "lifting.wall_s"),
    Layer("clt", "minimal_isometric_lifting", ("self_s", "u_bytes"), "lifting.peak_rss_mb", _u_bytes),
    Layer("clt", "Lifting.residuals", ("self_s",), "lifting.wall_s"),
    Layer("linalg", "defect_batch", ("calls", "self_s", "matrices"), "model.wall_s", _defect_batch_work),
    Layer("linalg", "defect", ("calls", "self_s"), "model.wall_s"),
    Layer("linalg", "range_basis", ("calls", "self_s"), "model.wall_s"),
    Layer("linalg", "kernel_basis", ("calls", "self_s"), "model.wall_s"),
    Layer("bimodel", "build_model", ("self_s",), "model.wall_s"),
    Layer("bimodel", "verify_bi_isometry", ("self_s",), "model.wall_s"),
    Layer("bimodel", "random_vector", ("self_s",), "model.wall_s"),
    Layer("bimodel", "apply_W", ("self_s",), "model.wall_s"),
    Layer("coiso", "can_extend", ("self_s",), "model.wall_s"),
    Layer("coiso", "build_extension", ("self_s",), "model.wall_s"),
    Layer("serialize", "dumps_canonical", ("calls", "self_s", "bytes"), "model.wall_s", _text_bytes),
    Layer("cli", "main", ("self_s",), "model.wall_s"),
)

# metrics derived from the spans as a whole rather than from one layer
DERIVED = {
    "criteria.decided_ratio": "lifting.ok_share",
    f"{ROOT_SPAN}.self_s": "all wall_s (the benchmark's own glue)",
    "trace.wall_s": "the traced pass; equals the sum of every self_s",
    "trace.overhead_s": "none: traced minus untraced pass wall time",
}


MEASURED_STATS = ("calls", "self_s")


def metric_names() -> list:
    return [f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats] + list(DERIVED)


def computed_metric_names() -> list:
    """Metrics computed from argument and result shapes, not measured."""
    return [f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats if stat not in MEASURED_STATS]


class Tracer:
    """Spans and work counts of calls into the functions in LAYERS."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.work: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        try:
            for layer in LAYERS:
                self._install(layer)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, layer: Layer):
        owner = self.modules[layer.module]
        *classes, attr = layer.func.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        wrapper = self._wrap(layer, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if classes:
            return
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer.name):
                result = fn(*args, **kwargs)
            if layer.work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for stat, value in layer.work(bound.arguments, result).items():
                    self.work[f"{layer.name}.{stat}"] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def summary(self, passes: int) -> dict:
        """Per-pass means of every layer metric over `passes` traced passes."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
            calls[name] += 1
        out = {}
        for layer in LAYERS:
            for stat in layer.stats:
                if stat == "self_s":
                    value = self_s[layer.name]
                elif stat == "calls":
                    value = calls[layer.name]
                else:
                    value = self.work[f"{layer.name}.{stat}"]
                out[f"{layer.name}.{stat}"] = value / passes
        verdicts = sum(v for k, v in self.work.items() if k.startswith("criteria.") and k.endswith(".verdicts"))
        decided = sum(v for k, v in self.work.items() if k.startswith("criteria.") and k.endswith(".decided"))
        out["criteria.decided_ratio"] = decided / verdicts if verdicts else 1.0
        out[f"{ROOT_SPAN}.self_s"] = self_s[ROOT_SPAN] / passes
        out["trace.wall_s"] = sum(e - s for n, s, e, _ in self.spans if n == ROOT_SPAN) / passes
        return out
