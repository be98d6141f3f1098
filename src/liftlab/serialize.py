"""Shared JSON schema for problems, polynomials, and reports.

Complex scalars serialize as [re, im]; a matrix is an array of rows of
such pairs; a polynomial is {"coeffs": [matrix, ...]} ordered by
degree.  Operator specifications are a tagged union:
{"dense": matrix} | {"shift": {"mult": d, "degree": n}} |
{"mult_op": {"symbol": polynomial, "degree": n}}.

Decoding errors raise SchemaError with the JSON path of the offending
node.  dumps_canonical emits byte-stable output for fixed input.
"""

from __future__ import annotations

import json

import numpy as np

from . import clt, coiso, linalg
from .h2 import MatPoly


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"at {path or '$'}: {message}")
        self.path = path


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj, path: str = "$") -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SchemaError(path, "complex scalar must be a [re, im] pair")
    try:
        return complex(float(obj[0]), float(obj[1]))
    except (TypeError, ValueError):
        raise SchemaError(path, "complex scalar entries must be numbers")


def encode_matrix(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[encode_complex(v) for v in row] for row in a]


def decode_matrix(obj, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(path, "matrix must be a non-empty array of rows")
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


def _optional_number(obj: dict, key: str, cast, default, path: str):
    """obj[key] converted by cast (float or int), or default when the
    key is absent or null."""
    value = obj.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise SchemaError(f"{path}.{key}", f"must be {kind}")


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
        return clt.DenseOp(decode_matrix(body, f"{path}.dense"))
    if tag == "shift":
        try:
            return clt.TruncatedShift(int(body["mult"]), int(body["degree"]))
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{path}.shift", 'needs integer "mult" and "degree"')
    if tag == "mult_op":
        try:
            degree = int(body["degree"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{path}.mult_op", 'needs integer "degree"')
        symbol = decode_matpoly(body.get("symbol"), f"{path}.mult_op.symbol")
        return clt.MultOp(symbol, degree)
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
    tol = _optional_number(obj, "tol", float, 1e-8, path)
    window = _optional_number(obj, "window", int, None, path)
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
    try:
        h_dim = int(obj["H_dim"])
        hp_dim = int(obj["H_prime_dim"])
    except (TypeError, ValueError):
        raise SchemaError(path, "space dimensions must be integers")
    m_cols = decode_matrix(obj["M"], f"{path}.M")
    mp_cols = decode_matrix(obj["M_prime"], f"{path}.M_prime")
    c = decode_matrix(obj["C"], f"{path}.C")
    if m_cols.shape[0] != h_dim or mp_cols.shape[0] != hp_dim:
        raise SchemaError(path, "spanning columns do not match the ambient dimensions")
    # spanning columns are orthonormalized on load
    m = linalg.range_basis(m_cols)
    mp = linalg.range_basis(mp_cols)
    tol = _optional_number(obj, "tol", float, 1e-8, path)
    try:
        return coiso.ExtensionProblem(h_dim, hp_dim, m, mp, c, tol)
    except coiso.CoisoError as exc:
        raise SchemaError(path, f"extension problem validation failed: {exc}")


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


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed indentation, native types."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_native) + "\n"
