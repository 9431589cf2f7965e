"""Differential matrices, ranks, kernels, operator-space dimensions."""

from fractions import Fraction
from math import factorial

import pytest

from natops.canonical import key_bytes
from natops.complexes import delta_graph, enumerate_basis
from natops.formal import FormalSum, combine
from natops.homology import (
    BasisIncompleteError,
    delta_matrix,
    h0_dimension,
    kernel_basis,
)
from natops.complexes import differential
from natops import linalg

from .helpers import (
    Echelon,
    assert_same_kernel,
    chain_xy,
    chain_yx,
    coordinates,
    dense_coordinates,
    dense_matrix,
    dense_nullspace,
    dense_vector,
    nabla_xy,
    reference_nullspace,
    spans,
    wheel_block_injective,
)


def _degree0_matrix(fam, d):
    """The degree-0 differential of (fam, d), on its two slices."""
    return delta_matrix(enumerate_basis(fam, d, 0), enumerate_basis(fam, d, 1))


def test_nabla1_matrix_is_row_of_signs():
    mat = _degree0_matrix("bullet-nabla-1", 2)
    assert (mat.nrows, mat.ncols) == (1, 4)
    vals = sorted(v for row in mat.rows.values() for v in row.values())
    assert vals == [Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)]
    assert all(type(v) is int for v in vals)  # delta's ints stay ints


def test_unit_matrix_is_empty():
    mat = _degree0_matrix("bullet", 1)
    assert mat.ncols == 1
    assert not mat.rows and not mat.rows.values() and not mat.triplets()


def test_bullet2_matrix_rank():
    mat = _degree0_matrix("bullet", 2)
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


def test_h0_nabla_trace_4():
    # 17 291 x 16 796, rank 11 476: 1.3-2.0 s of elimination on a 2-core
    # host, where the least-column Fraction elimination took minutes
    assert h0_dimension("bullet-nabla-trace", 4) == 5320


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wheel_blocks_full_rank(d):
    report = wheel_block_injective("bullet-wheel", d)
    for rank, cols in report.values():
        assert rank == cols


def test_rank_plus_nullity():
    for fam, d in [("bullet", 3), ("bullet-nabla-1", 2), ("bullet-wheel", 3)]:
        mat = _degree0_matrix(fam, d)
        null = len(linalg.nullspace(mat.rows.values(), mat.ncols))
        assert mat.rank() + null == mat.ncols


_REFERENCE_SLICES = (
    [("bullet", d) for d in (1, 2, 3, 4)]
    + [("bullet-connected", 4)]
    + [("bullet-wheel", d) for d in (1, 2, 3, 4)]
    + [("bullet-nabla-1", d) for d in (1, 2, 3)]
)


@pytest.mark.parametrize("fam,d", _REFERENCE_SLICES)
def test_sparse_kernel_matches_dense_reference(fam, d):
    mat = _degree0_matrix(fam, d)
    n = mat.ncols
    want = dense_nullspace(dense_matrix(mat), n)
    assert h0_dimension(fam, d) == len(want)
    null = linalg.nullspace(mat.rows.values(), n)
    assert [dense_vector(v, n) for v in null] == want
    assert all(x for v in null for x in v.values())
    src = enumerate_basis(fam, d, 0)
    kb = kernel_basis(fam, d)
    assert [dense_coordinates(x, src) for x in kb] == want
    coords = [coordinates(x, src) for x in kb]
    assert coords == null


def test_kernel_basis_applies_delta_once_per_graph(monkeypatch):
    # the re-check reads the differentials the matrix was built from,
    # through the module globals, as a tracer that rebinds them sees it
    from natops import complexes, homology

    made = []

    def counted(g):
        made.append(g)
        return delta_graph(g)

    monkeypatch.setattr(complexes, "delta_graph", counted)
    monkeypatch.setattr(homology, "delta_graph", counted)
    src = enumerate_basis("bullet-nabla-1", 3, 0)
    kb = kernel_basis("bullet-nabla-1", 3)
    assert sorted(map(key_bytes, made)) == sorted(map(key_bytes, src.graphs))
    assert {g for x in kb for g, _ in x} == set(src.graphs)


def _matches_reference(fam, d):
    """The elimination's rank and kernel equal the reference elimination's
    on the degree-0 differential of (fam, d); returns whether the two
    chose different free columns."""
    mat = _degree0_matrix(fam, d)
    rows, n = mat.rows.values(), mat.ncols
    ref = Echelon(rows).rows
    want = reference_nullspace(rows, n)
    assert linalg.rank(rows) == len(ref) == n - len(want)
    assert_same_kernel(linalg.nullspace(rows, n), want)
    return set(linalg.Elimination(rows).cols) != set(ref)


_RANKED_SLICES = (
    [("bullet", d) for d in (1, 2, 3, 4, 5)]
    + [("bullet-connected", d) for d in (1, 2, 3, 4)]
    + [("bullet-wheel", d) for d in (1, 2, 3, 4)]
    + [("bullet-nabla-1", d) for d in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("fam,d", _RANKED_SLICES)
def test_elimination_matches_reference(fam, d):
    _matches_reference(fam, d)


def test_least_used_pivots_leave_other_free_columns():
    # the reduced basis is then the kernel vectors' reduced form with the
    # columns reversed, not the vectors the pivots give
    assert _matches_reference("bullet-nabla", 4)


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
    tgt = enumerate_basis("bullet", 2, 1)
    assert len(tgt.graphs) > 1
    with pytest.raises(BasisIncompleteError,
                       match=r"outside the \(bullet, d=2, m=1\) basis"):
        delta_matrix(src, tgt._replace(graphs=tgt.graphs[:1]))


def test_wheel_blocks_with_an_incomplete_basis_are_fatal(monkeypatch):
    # cut every degree-1 slice homology enumerates to its first graph
    from natops import homology

    def truncated(family, d, m):
        bs = enumerate_basis(family, d, m)
        return bs._replace(graphs=bs.graphs[:1]) if m == 1 else bs

    monkeypatch.setattr(homology, "enumerate_basis", truncated)
    with pytest.raises(BasisIncompleteError):
        wheel_block_injective("bullet-wheel", 2)
