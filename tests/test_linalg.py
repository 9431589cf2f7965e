"""Exact linear algebra helpers."""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from natops.linalg import Elimination, nullspace, rank

from .helpers import (
    assert_same_kernel,
    dense_nullspace,
    dense_rref,
    dense_vector,
    mat_inv,
    reference_nullspace,
)


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
    elimination = Elimination(rows)
    assert rows == [{0: 2, 1: 4}, {1: 3, 2: 6}]
    # each pivot row divided by its content; column 2 has fewer nonzeros
    # than column 1, so it is the second row's pivot
    assert elimination.pivots == [(0, {0: 1, 1: 2}), (2, {1: 1, 2: 2})]
    assert elimination.cols == {0: 0, 2: 1}
    assert all(type(x) is int
               for _, r in elimination.pivots for x in r.values())
    assert elimination.reduce({2: 5}) == {1: -5}
    assert type(elimination.reduce({2: 5})[1]) is int
    # back-substituted, still on ints: row 2 over its pivot entry 2 is
    # the reduced row echelon form's
    assert elimination.reduced() == {0: {0: 1, 1: 2}, 2: {1: 1, 2: 2}}


def test_fraction_rows_are_scaled_to_ints():
    elimination = Elimination([{0: Fraction(1, 2), 1: Fraction(-2, 3)}])
    assert elimination.pivots == [(0, {0: 3, 1: -4})]
    assert elimination.reduce({0: Fraction(3, 4), 1: -1}) == {}


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


_small_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@st.composite
def _int_matrices(draw):
    """Small integer matrices with zero rows, repeated rows and rows that
    combine two earlier ones, so that rank deficiency is common."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combine"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_small_ints), draw(_small_ints)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_small_ints, min_size=ncols,
                                      max_size=ncols)))
    return rows, ncols


@given(_int_matrices())
@settings(max_examples=300, deadline=None)
def test_fraction_free_elimination_matches_references(m):
    rows, ncols = m
    ref, pivots = dense_rref(rows, ncols)
    assert rank(_sparse(rows)) == len(pivots)
    # in column order the back-substituted rows, each over its pivot
    # entry, are the dense RREF
    back = Elimination(_sparse(rows), key=int).reduced()
    assert {c: {j: Fraction(x, r[c]) for j, x in r.items()}
            for c, r in back.items()} == {
        c: {j: x for j, x in enumerate(r) if x} for c, r in zip(pivots, ref)}
    null = nullspace(_sparse(rows), ncols)
    assert [dense_vector(v, ncols) for v in null] == dense_nullspace(rows, ncols)
    assert_same_kernel(null, reference_nullspace(_sparse(rows), ncols))
