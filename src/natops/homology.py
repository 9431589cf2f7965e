"""Exact rational linear algebra on graded basis slices.

The differential matrix of a slice has one column per degree-m basis graph
holding the coordinates of its differential in the degree-(m+1) basis.
The target is always the enumerated degree-(m+1) slice, so a differential
term missing from it means the enumeration lost a graph: a fatal
completeness error.  Everything here is in the one row format of :mod:`natops.linalg`,
sparse {col: value} dicts holding nonzeros only: the matrix is stored as
its rows, with the differential's int coefficients.  The one sparse exact
elimination, fraction-free with the least-used column as each row's
pivot, gives ranks and span tests on ints alone, so :func:`h0_dimension`
never makes a Fraction.  Only :func:`kernel_basis` back-substitutes and
divides: its vectors come back in the reduced form the least-column
elimination gives, as {col: value} on ints unless one of a vector's
values is not an integer.  The kernel of the degree-0 differential is the
space of natural operators of the family.  Only the functions that
eliminate import :mod:`natops.linalg`, so ``natops matrix``, which writes
the differential, never compiles it.
"""

from .canonical import key_bytes
from .complexes import (
    delta_graph,
    delta_graph_cached,
    differential,
    enumerate_basis,
)
from .formal import FormalSum
from .graphs import as_family


class BasisIncompleteError(RuntimeError):
    """A differential term fell outside the enumerated target slice."""


class SparseMatrixQ:
    """Sparse rational matrix stored as its nonzero rows, {row: {col: value}}."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = {}

    def triplets(self):
        return sorted((r, c, v) for r, row in self.rows.items()
                      for c, v in row.items())

    def rank(self):
        from .linalg import rank

        return rank(self.rows.values())

    def __repr__(self):
        return "SparseMatrixQ(%dx%d, %d nonzero)" % (
            self.nrows, self.ncols, sum(map(len, self.rows.values())))


def delta_matrix(family, d, m, source=None, memo=None):
    """Exact matrix of the differential from degree m to m+1, on the
    degree-m slice ``source`` (enumerated when None) and the enumerated
    degree-(m+1) slice.  With a dict ``memo``, each column's differential
    is kept there, as :func:`delta_graph_cached` does."""
    family = as_family(family)
    src = source if source is not None else enumerate_basis(family, d, m)
    tgt = enumerate_basis(family, d, m + 1)
    index = {g: i for i, g in enumerate(tgt.graphs)}
    mat = SparseMatrixQ(len(tgt.graphs), len(src.graphs))
    rows = mat.rows
    for j, g in enumerate(src.graphs):
        dg = delta_graph(g) if memo is None else delta_graph_cached(g, memo)
        for cg, coeff in dg:
            i = index.get(cg)
            if i is None:
                raise BasisIncompleteError(
                    "differential term %s outside the (%s, d=%d, m=%d) basis"
                    % (key_bytes(cg).decode(), family.name, d, m + 1))
            # each (i, j) once, and a FormalSum holds no zero coefficient
            rows.setdefault(i, {})[j] = coeff
    return mat


def h0_dimension(family, d):
    """dim ker of the degree-0 differential."""
    mat = delta_matrix(family, d, 0)
    return mat.ncols - mat.rank()


def kernel_basis(family, d):
    """Reduced exact basis of ker(delta) on the degree-0 slice.

    Every returned element is re-verified to have vanishing differential,
    added up again from its graphs' differentials, not read off the
    matrix.  Those are the matrix's columns, kept in a memo that lives as
    long as this call, so each is made once.
    """
    from .linalg import nullspace

    src = enumerate_basis(family, d, 0)
    memo = {}
    mat = delta_matrix(family, d, 0, source=src, memo=memo)
    out = []
    for vec in nullspace(mat.rows.values(), mat.ncols):
        # nonzeros on distinct basis graphs: the sum's terms as they are
        s = FormalSum()
        s.terms = {src.graphs[j]: c for j, c in vec.items()}
        if differential(s, memo):
            raise AssertionError("kernel element fails differential re-check")
        out.append(s)
    return out
