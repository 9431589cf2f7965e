"""Exact rational linear algebra on graded basis slices.

The differential matrix of a slice has one column per degree-m basis graph
holding the coordinates of its differential in the degree-(m+1) basis; a
differential term missing from the target basis is a fatal completeness
error.  Everything here is in the one row format of :mod:`natops.linalg`,
sparse {col: value} dicts holding nonzeros only: the matrix is stored as
its rows, with the differential's int coefficients kept as ints until the
elimination divides; kernel vectors come back as {col: Fraction} and
coordinates as {index: coeff}.  The one sparse exact elimination gives
ranks, reduced kernel bases and span tests.  The kernel of the degree-0
differential is the space of natural operators of the family.
"""

from __future__ import annotations

from . import linalg
from .canonical import key_bytes
from .complexes import (
    FAMILIES,
    delta_graph_cached,
    differential,
    enumerate_basis,
)
from .formal import FormalSum
from .graphs import wheel_length


class BasisIncompleteError(RuntimeError):
    """A differential term fell outside the enumerated target slice."""


class SparseMatrixQ:
    """Sparse rational matrix stored as its nonzero rows, {row: {col: value}}."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = {}

    def set(self, r, c, v):
        if v:
            self.rows.setdefault(r, {})[c] = v
        elif c in self.rows.get(r, ()):
            del self.rows[r][c]
            if not self.rows[r]:
                del self.rows[r]

    def sparse_rows(self):
        """The nonzero rows as {col: value} dicts (shared, not copies)."""
        return list(self.rows.values())

    def triplets(self):
        return sorted((r, c, v) for r, row in self.rows.items()
                      for c, v in row.items())

    def rank(self):
        return linalg.rank(self.sparse_rows())

    def __repr__(self):
        return "SparseMatrixQ(%dx%d, %d nonzero)" % (
            self.nrows, self.ncols, sum(map(len, self.rows.values())))


def delta_matrix(family, d, m, source=None, target=None):
    """Exact matrix of the differential from degree m to m+1."""
    if isinstance(family, str):
        family = FAMILIES[family]
    src = source if source is not None else enumerate_basis(family, d, m)
    tgt = target if target is not None else enumerate_basis(family, d, m + 1)
    index = {g: i for i, g in enumerate(tgt.graphs)}
    mat = SparseMatrixQ(len(tgt.graphs), len(src.graphs))
    for j, g in enumerate(src.graphs):
        for cg, coeff in delta_graph_cached(g):
            i = index.get(cg)
            if i is None:
                raise BasisIncompleteError(
                    "differential term %s outside the (%s, d=%d, m=%d) basis"
                    % (key_bytes(cg).decode(), family.name, d, m + 1))
            mat.set(i, j, coeff)
    return mat


def h0_dimension(family, d):
    """dim ker of the degree-0 differential."""
    mat = delta_matrix(family, d, 0)
    return mat.ncols - mat.rank()


def kernel_basis(family, d, m=0):
    """Reduced exact basis of ker(delta) on the degree-m slice.

    Every returned element is re-verified to have vanishing differential.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
    src = enumerate_basis(family, d, m)
    mat = delta_matrix(family, d, m, source=src)
    out = []
    for vec in linalg.nullspace(mat.sparse_rows(), mat.ncols):
        s = FormalSum()
        for j, c in vec.items():
            s.add_canonical(src.graphs[j], c)
        if differential(s):
            raise AssertionError("kernel element fails differential re-check")
        out.append(s)
    return out


def coordinates(x, basis_slice):
    """Sparse coordinates {index: coeff} of a formal sum in a basis slice."""
    index = {g: i for i, g in enumerate(basis_slice.graphs)}
    vec = {}
    for g, c in x:
        i = index.get(g)
        if i is None:
            raise BasisIncompleteError("term outside slice")
        vec[i] = c
    return vec


def spans(vectors, others):
    """Do ``vectors`` span every vector in ``others`` (exact)?"""
    echelon = linalg.Echelon(vectors)
    return not any(echelon.reduce(o) for o in others)


def wheel_block_injective(family, d):
    """Check the wheel-length-preserving degree-0 differential blockwise.

    For every wheel length the block of delta keeping that length must
    have full column rank; returns {wheel_length: (rank, ncols)}.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
    if family.anchored:
        raise ValueError("wheel blocks exist in anchor-free families only")
    src = enumerate_basis(family, d, 0)
    tgt = enumerate_basis(family, d, 1)
    by_len_src = {}
    for g in src.graphs:
        by_len_src.setdefault(wheel_length(g), []).append(g)
    tgt_index = {}
    for i, g in enumerate(tgt.graphs):
        tgt_index[g] = (wheel_length(g), i)
    report = {}
    for wlen, graphs in sorted(by_len_src.items()):
        cols = len(graphs)
        rows = {}
        for j, g in enumerate(graphs):
            for cg, coeff in delta_graph_cached(g):
                tlen, i = tgt_index[cg]
                if tlen == wlen:
                    rows.setdefault(i, {})[j] = coeff
        rank = linalg.rank(rows.values())
        report[wlen] = (rank, cols)
        if rank != cols:
            raise AssertionError(
                "wheel-length-%d block of (%s, d=%d) not injective"
                % (wlen, family.name, d))
    return report
