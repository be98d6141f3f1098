import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import clt, coiso, linalg, serialize
from liftlab.h2 import MatPoly

from conftest import random_contraction, random_unitary

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


def through_json(doc):
    """The document as a file would hold it."""
    return json.loads(serialize.dumps_canonical(doc))


@given(z=finite_complex)
def test_complex_round_trip(z):
    assert serialize.decode_complex(through_json(serialize.encode_complex(z))) == z


@st.composite
def matpolys(draw):
    degree = draw(st.integers(0, 3))
    out_dim, in_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(finite_complex, min_size=(degree + 1) * out_dim * in_dim,
                            max_size=(degree + 1) * out_dim * in_dim))
    return MatPoly(np.array(entries, dtype=complex).reshape(degree + 1, out_dim, in_dim))


@given(p=matpolys())
def test_matpoly_round_trip(p):
    back = serialize.decode_matpoly(through_json(serialize.encode_matpoly(p)))
    assert back.coeffs.shape == p.coeffs.shape
    assert np.array_equal(back.coeffs, p.coeffs)


def dense_problem(rng, dim: int):
    """T' = T unitary and X a scaled power of T, so T'X = XT."""
    t = random_unitary(rng, dim)
    x = 0.9 * np.linalg.matrix_power(t, int(rng.integers(0, 3)))
    return clt.build_problem(clt.DenseOp(t), t, x)


def shift_problem(rng, mult: int):
    t_prime = random_contraction(rng, mult + 1, mult + 1, norm=0.8)
    return clt.shift_intertwining_problem(rng, mult, 3, t_prime)


def mult_op_problem(rng, mult: int):
    """Multiplication by z U, U unitary: isometric below the top degree;
    X = 0 intertwines with any T'."""
    symbol = MatPoly(np.stack([np.zeros((mult, mult)), random_unitary(rng, mult)]))
    t = clt.MultOp(symbol, 3)
    t_prime = random_contraction(rng, 2, 2, norm=0.7)
    return clt.build_problem(t, t_prime, np.zeros((2, t.dim)))


PROBLEMS = {"dense": dense_problem, "shift": shift_problem, "mult_op": mult_op_problem}


@settings(max_examples=30, deadline=None)
@given(tag=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 3), windowed=st.booleans())
def test_problem_round_trip(tag, seed, dim, windowed):
    rng = np.random.default_rng(seed)
    p = PROBLEMS[tag](rng, dim)
    if windowed:
        p = clt.build_problem(p.t, p.t_prime, p.x, p.tol, int(rng.integers(1, p.window_dim + 1)))
    doc = through_json(serialize.encode_problem(p))
    assert next(iter(doc["T"])) == tag
    assert ("window" in doc) == windowed
    back = serialize.decode_problem(doc)
    assert type(back.t) is type(p.t)
    assert serialize.encode_operator_spec(back.t) == serialize.encode_operator_spec(p.t)
    assert np.array_equal(back.t.matrix(), p.t.matrix())
    assert np.array_equal(back.t_prime, p.t_prime)
    assert np.array_equal(back.x, p.x)
    assert back.tol == p.tol
    assert back.window_override == p.window_override


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m_dim=st.integers(1, 3), h_extra=st.integers(0, 2),
       mp_extra=st.integers(0, 2), hp_extra=st.integers(0, 2))
def test_extension_problem_round_trip(seed, m_dim, h_extra, mp_extra, hp_extra):
    # the decoder orthonormalizes M and M' afresh, so C comes back in
    # other coordinates; the map M C M'* from H' to H is what must survive
    rng = np.random.default_rng(seed)
    h_dim, mp_dim = m_dim + h_extra, m_dim + mp_extra
    hp_dim = mp_dim + hp_extra
    m = linalg.SubspaceBasis(random_unitary(rng, h_dim)[:, :m_dim])
    mp = linalg.SubspaceBasis(random_unitary(rng, hp_dim)[:, :mp_dim])
    p = coiso.ExtensionProblem(h_dim, hp_dim, m, mp, random_contraction(rng, m_dim, mp_dim, norm=0.9), tol=1e-9)
    back = serialize.decode_extension_problem(through_json(serialize.encode_extension_problem(p)))
    assert (back.h_dim, back.h_prime_dim, back.tol) == (h_dim, hp_dim, 1e-9)
    for got, want in ((back.m, m), (back.m_prime, mp)):
        assert np.linalg.norm(got.projector() - want.projector(), 2) <= 1e-12

    def operator(q):
        return q.m.columns @ q.c @ q.m_prime.columns.conj().T

    assert np.linalg.norm(operator(back) - operator(p), 2) <= 1e-12


def per_entry(obj, path="$.M"):
    """decode_matrix through its per-entry path alone: the matrix, or the
    SchemaError message naming the entry at fault."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(serialize, "_decode_matrix_at_once", lambda obj: None)
        try:
            return serialize.decode_matrix(obj, path)
        except serialize.SchemaError as exc:
            return str(exc)


def decoded(obj, path="$.M"):
    try:
        return serialize.decode_matrix(obj, path)
    except serialize.SchemaError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(0, 4), data=st.data())
def test_a_matrix_read_at_once_has_the_bits_of_the_per_entry_path(rows, cols, data):
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**70, 2**70))
    obj = [[[data.draw(number), data.draw(number)] for _ in range(cols)] for _ in range(rows)]
    got, want = decoded(obj), per_entry(obj)
    # rows with no entries take the per-entry path
    assert (serialize._decode_matrix_at_once(obj) is not None) == (cols > 0)
    assert got.dtype == want.dtype == complex
    assert got.shape == want.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()


BAD_MATRICES = {
    "bool": [[[1.0, 0.0], [True, 0.0]]],
    "string": [[[1.0, "0.5"]]],
    "null": [[[None, 0.0]]],
    "nan": [[[float("nan"), 0.0]]],
    "infinity": [[[1.0, float("inf")]]],
    "huge_int": [[[10**400, 0]]],
    "triple": [[[1.0, 0.0, 2.0]]],
    "single": [[[1.0]], [[2.0]]],
    "ragged": [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
    "row_not_a_list": [[[1.0, 0.0]], {"re": 1.0}],
    "row_a_tuple": [([1.0, 0.0],)],
    "nested": [[[[1.0, 0.0], [0.0, 1.0]]]],
    "scalar_entries": [[1.0, 2.0]],
}


@pytest.mark.parametrize("name", sorted(BAD_MATRICES))
def test_a_bad_matrix_names_the_same_path_as_the_per_entry_path(name):
    obj = BAD_MATRICES[name]
    want = per_entry(obj)
    assert isinstance(want, str) and want.startswith("at $.M")
    assert decoded(obj) == want


GOLDEN_REPORTS = sorted((Path(__file__).resolve().parent / "golden" / "reports").glob("*.json"))


def json_canonical(obj) -> str:
    """Reference: json's own writer, which falls back to its pure-Python
    encoder with an indent."""
    return json.dumps(obj, sort_keys=True, indent=2, default=serialize._native) + "\n"


def test_the_golden_reports_are_found():
    assert len(GOLDEN_REPORTS) == 11


@pytest.mark.parametrize("path", GOLDEN_REPORTS, ids=lambda p: p.stem)
def test_the_writer_has_the_bytes_of_json_on_every_golden_report(path):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert serialize.dumps_canonical(doc) == json_canonical(doc) == text


numpy_scalars = st.one_of(
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    finite_complex.map(np.complex128),
)
numpy_arrays = st.lists(st.floats(), max_size=4).map(np.array) | st.lists(finite_complex, max_size=3).map(np.array)
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
          | st.text() | numpy_scalars | numpy_arrays)
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=payloads)
def test_the_writer_has_the_bytes_of_json(obj):
    assert serialize.dumps_canonical(obj) == json_canonical(obj)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [[]]}, {"é": "ᐃ\n\"", "\x00": "\ud800"},
                                 {2: "int", 1.5: "float", False: "bool"}, {None: [math.nan]}],
                         ids=["dict", "list", "tuple", "nested_empty", "non_ascii", "number_keys", "null_key"])
def test_the_writer_has_the_bytes_of_json_at_the_edges(obj):
    assert serialize.dumps_canonical(obj) == json_canonical(obj)


def test_the_writer_rejects_what_json_rejects():
    for obj in ({(1, 2): 0}, object(), {"a": {1j: 0}}):
        with pytest.raises(TypeError):
            json_canonical(obj)
        with pytest.raises(TypeError):
            serialize.dumps_canonical(obj)
