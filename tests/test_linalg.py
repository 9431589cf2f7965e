"""Exact linear algebra helpers."""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from natops.linalg import Echelon, mat_inv, nullspace, rank

from .helpers import dense_nullspace, dense_rref, dense_vector


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(_sparse(m)) == 2
    null = nullspace(_sparse(m), 3)
    assert null == [{0: -1, 1: -1, 2: 1}]
    v = dense_vector(null[0], 3)
    for row in m:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_int_rows_stay_ints_until_divided():
    rows = [{0: 2, 1: 4}, {1: 3, 2: 6}]
    echelon = Echelon(rows)
    assert rows == [{0: 2, 1: 4}, {1: 3, 2: 6}]
    assert echelon.rows == {0: {0: 1, 2: -4}, 1: {1: 1, 2: 2}}
    assert all(type(x) is Fraction
               for r in echelon.rows.values() for x in r.values())
    assert echelon.reduce({2: 5}) == {2: 5}
    assert type(echelon.reduce({2: 5})[2]) is int


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rank(_sparse(m)) == 2
    assert rank(_sparse([[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(3, 2), Fraction(1)]])) == 1


def test_mat_inv_round_trip():
    for a in ([[Fraction(2), Fraction(1)], [Fraction(5), Fraction(3)]],
              [[2, 1], [5, 3]]):
        inv = mat_inv(a)
        prod = [
            [sum((a[i][k] * inv[k][j] for k in range(2)), Fraction(0))
             for j in range(2)]
            for i in range(2)
        ]
        assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        mat_inv([[1, 2], [2, 4]])


def test_empty_matrix_nullspace():
    basis = nullspace([], 3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


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
    assert rank(_sparse(rows)) == len(dense_rref(rows, ncols)[1])
    null = nullspace(_sparse(rows), ncols)
    assert [dense_vector(v, ncols) for v in null] == dense_nullspace(rows, ncols)
    assert all(x for v in null for x in v.values())
    assert all(list(v) == sorted(v) for v in null)

