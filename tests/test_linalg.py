"""Exact linear algebra helpers."""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from natops.linalg import mat_inv, nullspace, rank

from .helpers import dense_nullspace, dense_rref


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m) == 2
    null = nullspace(m)
    assert len(null) == 1
    v = null[0]
    for row in m:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank(m) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)],
                 [Fraction(3, 2), Fraction(1)]]) == 1


def test_mat_inv_round_trip():
    a = [[Fraction(2), Fraction(1)], [Fraction(5), Fraction(3)]]
    inv = mat_inv(a)
    prod = [
        [sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        mat_inv([[1, 2], [2, 4]])


def test_empty_matrix_nullspace():
    basis = nullspace([], ncols=3)
    assert len(basis) == 3


# small rational matrices, mostly zeros so that rank deficiency is common
_entries = st.one_of(
    st.just(0), st.just(0),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@st.composite
def _matrices(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(1, 5))
    rows = [draw(st.lists(_entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    return rows, ncols


@given(_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_and_nullspace_match_dense_reference(m):
    rows, ncols = m
    assert rank(rows) == len(dense_rref(rows, ncols)[1])
    assert nullspace(rows, ncols=ncols) == dense_nullspace(rows, ncols)

