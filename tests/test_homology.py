"""Differential matrices, ranks, kernels, operator-space dimensions."""

from fractions import Fraction
from math import factorial

import pytest

from natops.complexes import enumerate_basis
from natops.formal import FormalSum, combine
from natops.homology import (
    BasisIncompleteError,
    delta_matrix,
    h0_dimension,
    kernel_basis,
    spans,
    coordinates,
    wheel_block_injective,
)
from natops.complexes import differential
from natops import linalg

from .helpers import (
    chain_xy,
    chain_yx,
    dense_coordinates,
    dense_matrix,
    dense_nullspace,
    dense_vector,
    nabla_xy,
)


def test_nabla1_matrix_is_row_of_signs():
    mat = delta_matrix("bullet-nabla-1", 2, 0)
    assert (mat.nrows, mat.ncols) == (1, 4)
    vals = sorted(v for row in mat.rows.values() for v in row.values())
    assert vals == [Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)]
    assert all(type(v) is int for v in vals)  # delta's ints stay ints


def test_unit_matrix_is_empty():
    mat = delta_matrix("bullet", 1, 0)
    assert mat.ncols == 1
    assert not mat.rows and not mat.sparse_rows() and not mat.triplets()


def test_bullet2_matrix_rank():
    mat = delta_matrix("bullet", 2, 0)
    assert mat.ncols == 4
    assert mat.rank() == 3  # kernel is the one-dimensional bracket line


@pytest.mark.parametrize("d,want", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 24)])
def test_h0_bullet_is_factorial(d, want):
    assert h0_dimension("bullet", d) == want == factorial(d - 1)


@pytest.mark.parametrize("d,want", [(1, 1), (2, 3), (3, 26), (4, 376)])
def test_h0_nabla1_matches_sequence(d, want):
    assert h0_dimension("bullet-nabla-1", d) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_h0_wheel_vanishes(d):
    assert h0_dimension("bullet-wheel", d) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wheel_blocks_full_rank(d):
    report = wheel_block_injective("bullet-wheel", d)
    for rank, cols in report.values():
        assert rank == cols


def test_rank_plus_nullity():
    for fam, d in [("bullet", 3), ("bullet-nabla-1", 2), ("bullet-wheel", 3)]:
        mat = delta_matrix(fam, d, 0)
        null = len(linalg.nullspace(mat.sparse_rows(), mat.ncols))
        assert mat.rank() + null == mat.ncols


_REFERENCE_SLICES = (
    [("bullet", d) for d in (1, 2, 3, 4)]
    + [("bullet-connected", 4)]
    + [("bullet-wheel", d) for d in (1, 2, 3, 4)]
    + [("bullet-nabla-1", d) for d in (1, 2, 3)]
)


@pytest.mark.parametrize("fam,d", _REFERENCE_SLICES)
def test_sparse_kernel_matches_dense_reference(fam, d):
    mat = delta_matrix(fam, d, 0)
    n = mat.ncols
    want = dense_nullspace(dense_matrix(mat), n)
    assert h0_dimension(fam, d) == len(want)
    null = linalg.nullspace(mat.sparse_rows(), n)
    assert [dense_vector(v, n) for v in null] == want
    assert all(x for v in null for x in v.values())
    src = enumerate_basis(fam, d, 0)
    kb = kernel_basis(fam, d)
    assert [dense_coordinates(x, src) for x in kb] == want
    coords = [coordinates(x, src) for x in kb]
    assert coords == null


def test_kernel_bullet2_is_bracket_line():
    kb = kernel_basis("bullet", 2)
    assert len(kb) == 1
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    src = enumerate_basis("bullet", 2, 0)
    assert spans([coordinates(kb[0], src)], [coordinates(b, src)])


def test_kernel_bullet1_is_unit():
    kb = kernel_basis("bullet", 1)
    assert len(kb) == 1
    ((g, c),) = list(kb[0])
    assert g.has_anchor() and len(g.vertices) == 2


def test_kernel_nabla1_contains_covariant_derivative():
    kb = kernel_basis("bullet-nabla-1", 2)
    assert len(kb) == 3
    covar = combine(FormalSum.of(nabla_xy()), FormalSum.of(chain_xy()), 1, 1)
    src = enumerate_basis("bullet-nabla-1", 2, 0)
    assert spans([coordinates(x, src) for x in kb], [coordinates(covar, src)])


def test_kernel_elements_recheck_differential():
    for fam, d in [("bullet", 3), ("bullet-nabla-1", 2)]:
        for x in kernel_basis(fam, d):
            assert not differential(x)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_disconnected_classes_contribute_nothing(d):
    # wheel components are acyclic, so the full and connected kernels agree
    assert h0_dimension("bullet", d) == h0_dimension("bullet-connected", d)


def test_incomplete_basis_is_fatal():
    src = enumerate_basis("bullet", 2, 0)
    broken = enumerate_basis("bullet", 2, 1)._replace(
        graphs=enumerate_basis("bullet", 2, 1).graphs[:1]
    )
    with pytest.raises(BasisIncompleteError):
        delta_matrix("bullet", 2, 0, source=src, target=broken)
