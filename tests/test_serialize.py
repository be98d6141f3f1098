import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlab import clt, serialize
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
    assert np.array_equal(back.t_matrix, p.t_matrix)
    assert np.array_equal(back.t_prime, p.t_prime)
    assert np.array_equal(back.x, p.x)
    assert back.tol == p.tol
    assert back.window_override == p.window_override
