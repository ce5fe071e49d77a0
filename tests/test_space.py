import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscosolve import DimensionMismatchError, NonFiniteError, as_vector, inner, norm
from viscosolve.space import row_inners, row_norms

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(values):
    return np.asarray(values, dtype=float)


def test_inner_examples():
    assert inner(vec([1, 2]), vec([3, 4])) == 11
    assert inner(vec([2, 3]), vec([5, 5])) == 25
    for x in ([1.5, -2.0], [0.0, 0.0], [7.0, 0.25]):
        assert inner(vec(x), vec([0, 0])) == 0


def test_inner_symmetric_bilinear(rng):
    x, y, z = rng.normal(size=(3, 4))
    assert inner(x, y) == pytest.approx(inner(y, x), abs=1e-12)
    assert inner(2.5 * x + z, y) == pytest.approx(2.5 * inner(x, y) + inner(z, y), abs=1e-9)


def test_norm_examples():
    assert norm(vec([3, 4])) == 5
    assert norm(vec([0, 0, 0])) == 0
    assert norm(vec([1, 1])) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        inner(vec([1, 2]), vec([1, 2, 3]))
    with pytest.raises(DimensionMismatchError):
        as_vector([1, 2, 3], dim=2)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        as_vector([1.0, float("nan")])
    with pytest.raises(NonFiniteError):
        as_vector([1.0, float("inf")])
    with pytest.raises(NonFiniteError):
        inner(vec([np.nan, 1.0]), vec([1.0, 1.0]))
    with pytest.raises(NonFiniteError):
        norm(np.array([np.inf, 0.0]))


def test_as_vector_shape_checks():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])


@given(st.lists(finite, min_size=1, max_size=6), st.lists(finite, min_size=1, max_size=6))
def test_cauchy_schwarz(xs, ys):
    n = min(len(xs), len(ys))
    x, y = vec(xs[:n]), vec(ys[:n])
    assert abs(inner(x, y)) <= norm(x) * norm(y) * (1 + 1e-12) + 1e-12


@given(
    st.lists(finite, min_size=1, max_size=6),
    st.lists(finite, min_size=1, max_size=6),
    st.floats(min_value=0, max_value=1),
)
def test_convexity_of_squared_norm(us, vs_, t):
    # ||t u + (1-t) v||^2 <= t ||u||^2 + (1-t) ||v||^2
    n = min(len(us), len(vs_))
    u, v = vec(us[:n]), vec(vs_[:n])
    lhs = norm(t * u + (1 - t) * v) ** 2
    rhs = t * norm(u) ** 2 + (1 - t) * norm(v) ** 2
    assert lhs <= rhs + 1e-9 * (1 + rhs)


@given(st.lists(finite, min_size=1, max_size=6), st.lists(finite, min_size=1, max_size=6))
def test_sum_square_bound(us, vs_):
    # ||u + v||^2 <= ||u||^2 + 2 <v, u + v>
    n = min(len(us), len(vs_))
    u, v = vec(us[:n]), vec(vs_[:n])
    lhs = norm(u + v) ** 2
    rhs = norm(u) ** 2 + 2 * inner(v, u + v)
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def _rows_with_zeros(rng, d, n=200):
    """Gaussian rows of mixed scale, with zero rows and signed zero entries mixed in."""
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    X[::7] = 0.0
    X[3::11] = -0.0
    X[5::13, 0] = -0.0
    return X


@pytest.mark.parametrize("d", range(1, 71))
def test_row_kernels_equal_norm_and_inner_bit_for_bit(d):
    rng = np.random.default_rng(d)
    X, Y = _rows_with_zeros(rng, d), _rows_with_zeros(rng, d)[::-1]
    assert row_norms(X).tobytes() == np.array([norm(x) for x in X]).tobytes()
    assert row_inners(X, Y).tobytes() == np.array([inner(x, y) for x, y in zip(X, Y)]).tobytes()
    # a row paired with a broadcast one, as for a fixed direction
    y = Y[1]
    assert row_inners(np.broadcast_to(y, X.shape), X).tobytes() == np.array([inner(y, x) for x in X]).tobytes()
