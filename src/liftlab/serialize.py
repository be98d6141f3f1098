"""Shared JSON schema for problems, polynomials, and reports.

Complex scalars serialize as [re, im]; a matrix is an array of rows of
such pairs; a polynomial is {"coeffs": [matrix, ...]} ordered by
degree.  Operator specifications are a tagged union:
{"dense": matrix} | {"shift": {"mult": d, "degree": n}} |
{"mult_op": {"symbol": polynomial, "degree": n}}.

An input file's "expect" block is decoded here too (``decode_expect``).
Decoding errors raise SchemaError with the JSON path of the offending
node.  dumps_canonical emits byte-stable output for fixed input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields

import numpy as np

from . import clt, coiso, linalg
from .h2 import MatPoly

_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"at {path or '$'}: {message}")
        self.path = path


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _finite(value) -> float | None:
    """value as a float if it is a finite JSON number, not a bool, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None
    return float(value)


def decode_complex(obj, path: str = "$") -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SchemaError(path, "complex scalar must be a [re, im] pair")
    parts = [_finite(v) for v in obj]
    if None in parts:
        raise SchemaError(path, "complex scalar entries must be finite numbers")
    return complex(*parts)


def encode_matrix(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[encode_complex(v) for v in row] for row in a]


def _decode_matrix_at_once(obj: list) -> np.ndarray | None:
    """The matrix of a well-formed `obj`, read by one numpy conversion:
    every row a list, every entry a [re, im] pair of numbers whose exact
    types are float or int (no bool, no string), all finite.  None
    otherwise, so the per-entry path names the JSON path at fault.  Both
    paths call float() on the same numbers, so the bits agree."""
    if not all(type(row) is list for row in obj):
        return None
    try:
        parts = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if parts.ndim != 3 or parts.shape[2] != 2 or not np.isfinite(parts).all():
        return None
    if not {type(v) for row in obj for pair in row for v in pair} <= {float, int}:
        return None
    return parts.view(complex)[..., 0]


def decode_matrix(obj, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "matrix must be a non-empty array of rows")
    matrix = _decode_matrix_at_once(obj)
    if matrix is not None:
        return matrix
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{path}[{i}]", "matrix row must be an array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]", "matrix rows have unequal lengths")
        rows.append([decode_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def encode_matpoly(p: MatPoly) -> dict:
    return {"coeffs": [encode_matrix(c) for c in p.coeffs]}


def decode_matpoly(obj, path: str = "$") -> MatPoly:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise SchemaError(path, 'polynomial must be an object with a "coeffs" array')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}.coeffs", "must be a non-empty array of matrices")
    mats = [decode_matrix(c, f"{path}.coeffs[{k}]") for k, c in enumerate(coeffs)]
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise SchemaError(f"{path}.coeffs", "coefficient matrices must share one shape")
    return MatPoly(np.stack(mats))


def _optional_tol(obj: dict, default: float, path: str) -> float:
    """obj["tol"] when it is a finite, non-negative JSON number, default
    when it is absent or null.  No string, bool, NaN or infinity is
    parsed: a tol of inf or nan would switch off every check against it."""
    value = obj.get("tol")
    tol = default if value is None else _finite(value)
    if tol is None or tol < 0:
        raise SchemaError(f"{path}.tol", "must be a finite, non-negative number")
    return tol


def _integer(obj, key: str, path: str) -> int:
    """obj[key] when it is a JSON integer, not a bool, a fraction or a
    string; otherwise a SchemaError at `path`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SchemaError(path, f'"{key}" must be an integer')
    return int(value)


VERDICTS = ("pass", "fail", "inconclusive")
# what an "expect" entry may hold: a test of its JSON value, and its description
_VERDICT = (lambda v: isinstance(v, str) and v in VERDICTS, f"one of {', '.join(VERDICTS)}")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
# the entries each command's "expect" object may name; bimodel expects one verdict
EXPECT_ENTRIES = {
    "lift": dict.fromkeys(("lifting_isometry", "obstruction"), _VERDICT),
    "coiso": {"feasible": _FLAG},
    "dims": {**{f.name: _COUNT for f in fields(clt.DimsReport)},
             **dict.fromkeys(("kernel_inequality", "defect_inequality", "meet_inequality"), _FLAG)},
}


def _expected(value, rule, path: str):
    test, what = rule
    if not test(value):
        raise SchemaError(path, f"must be {what}")
    return value


def decode_expect(doc: dict, command: str, path: str = "$.expect"):
    """The "expect" entry of an input file of `command`: an object of the
    entries EXPECT_ENTRIES allows, {} when absent or null, or for
    `bimodel` one verdict, "pass" when absent or null."""
    expect = doc.get("expect")
    if command == "bimodel":
        return "pass" if expect is None else _expected(expect, _VERDICT, path)
    expect = {} if expect is None else expect
    if not isinstance(expect, dict):
        raise SchemaError(path, "must be an object")
    entries = EXPECT_ENTRIES[command]
    for key in expect:
        if key not in entries:
            raise SchemaError(f"{path}.{key}", f"{command} expects only {', '.join(entries)}")
    return {key: _expected(value, entries[key], f"{path}.{key}") for key, value in expect.items()}


def encode_operator_spec(spec) -> dict:
    if isinstance(spec, clt.DenseOp):
        return {"dense": encode_matrix(spec.matrix_data)}
    if isinstance(spec, clt.TruncatedShift):
        return {"shift": {"mult": spec.mult, "degree": spec.degree}}
    if isinstance(spec, clt.MultOp):
        return {"mult_op": {"symbol": encode_matpoly(spec.symbol), "degree": spec.degree}}
    raise SchemaError("", f"unknown operator spec {type(spec).__name__}")


def decode_operator_spec(obj, path: str = "$"):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(path, "operator spec must have exactly one tag")
    tag, body = next(iter(obj.items()))
    if tag == "dense":
        m = decode_matrix(body, f"{path}.dense")
        if m.shape[0] != m.shape[1]:
            raise SchemaError(f"{path}.dense", f"T must be square, got shape {m.shape}")
        return clt.DenseOp(m)
    if tag == "shift":
        mult, degree = _integer(body, "mult", f"{path}.shift"), _integer(body, "degree", f"{path}.shift")
        if mult < 1 or degree < 0:
            raise SchemaError(f"{path}.shift", '"mult" must be at least 1 and "degree" at least 0')
        return clt.TruncatedShift(mult, degree)
    if tag == "mult_op":
        degree = _integer(body, "degree", f"{path}.mult_op")
        symbol = decode_matpoly(body.get("symbol"), f"{path}.mult_op.symbol")
        try:
            return clt.MultOp(symbol, degree)
        except clt.CLTError as exc:
            raise SchemaError(f"{path}.mult_op", str(exc))
    raise SchemaError(path, f'unknown operator tag "{tag}"')


def decode_problem(obj, path: str = "$") -> clt.CLTProblem:
    if not isinstance(obj, dict):
        raise SchemaError(path, "problem must be an object")
    for key in ("T", "T_prime", "X"):
        if key not in obj:
            raise SchemaError(path, f'problem is missing "{key}"')
    spec = decode_operator_spec(obj["T"], f"{path}.T")
    t_prime = decode_matrix(obj["T_prime"], f"{path}.T_prime")
    x = decode_matrix(obj["X"], f"{path}.X")
    tol = _optional_tol(obj, 1e-8, path)
    window = None if obj.get("window") is None else _integer(obj, "window", f"{path}.window")
    try:
        return clt.build_problem(spec, t_prime, x, tol, window)
    except clt.CLTError as exc:
        raise SchemaError(path, f"problem validation failed: {exc}")


def encode_problem(p: clt.CLTProblem) -> dict:
    out = {
        "T": encode_operator_spec(p.t),
        "T_prime": encode_matrix(p.t_prime),
        "X": encode_matrix(p.x),
        "tol": p.tol,
    }
    if p.window_override is not None:
        out["window"] = p.window_override
    return out


def decode_extension_problem(obj, path: str = "$") -> coiso.ExtensionProblem:
    if not isinstance(obj, dict):
        raise SchemaError(path, "extension problem must be an object")
    for key in ("H_dim", "H_prime_dim", "M", "M_prime", "C"):
        if key not in obj:
            raise SchemaError(path, f'extension problem is missing "{key}"')
    h_dim = _integer(obj, "H_dim", f"{path}.H_dim")
    hp_dim = _integer(obj, "H_prime_dim", f"{path}.H_prime_dim")
    m_cols = decode_matrix(obj["M"], f"{path}.M")
    mp_cols = decode_matrix(obj["M_prime"], f"{path}.M_prime")
    c = decode_matrix(obj["C"], f"{path}.C")
    if m_cols.shape[0] != h_dim or mp_cols.shape[0] != hp_dim:
        raise SchemaError(path, "spanning columns do not match the ambient dimensions")
    # spanning columns are orthonormalized on load
    m = linalg.range_basis(m_cols)
    mp = linalg.range_basis(mp_cols)
    tol = _optional_tol(obj, 1e-8, path)
    try:
        return coiso.ExtensionProblem(h_dim, hp_dim, m, mp, c, tol)
    except coiso.CoisoError as exc:
        raise SchemaError(path, f"extension problem validation failed: {exc}")


def encode_extension_problem(p: coiso.ExtensionProblem) -> dict:
    """The problem as decode_extension_problem reads it back: M and M' by
    their columns, and C in the coordinates of the bases that decoding
    orthonormalizes from them, so the decoded problem maps H' to H as
    p does."""
    m, mp = linalg.range_basis(p.m.columns), linalg.range_basis(p.m_prime.columns)
    c = m.columns.conj().T @ p.m.columns @ p.c @ p.m_prime.columns.conj().T @ mp.columns
    return {
        "H_dim": p.h_dim,
        "H_prime_dim": p.h_prime_dim,
        "M": encode_matrix(p.m.columns),
        "M_prime": encode_matrix(p.m_prime.columns),
        "C": encode_matrix(c),
        "tol": p.tol,
    }


def _native(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return encode_complex(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _key(key) -> str:
    """A dict key as json writes it: a string as itself, a number, bool
    or None by its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _scalar_text(obj) -> str | None:
    """The JSON text of a float, string, None, bool or int, else None.  A
    float is its repr, save NaN and the infinities, written as json
    writes them."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return None


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON text of obj, its nested lines indented past `pad`."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _encode_str(_key(key)) + ": ")
            _write(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        _write(_native(obj), pad, out)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed indentation, native types.

    The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    default=_native) + "\n"``, from a writer of its own: with an indent,
    json falls back to its pure-Python encoder, and the reports are
    written faster without it."""
    out = []
    _write(obj, "", out)
    out.append("\n")
    return "".join(out)
