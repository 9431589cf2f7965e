"""Exact linear algebra over the rationals, shared by homology, the rule
derivation and the jet oracle.

Everything is over Q; no floating point.  There is one row format: a
sparse row is a mapping ``{col: value}`` holding its nonzeros, with int or
Fraction values; ints stay ints until :class:`Echelon` divides by a
pivot.  One sparse Gauss–Jordan elimination (:class:`Echelon`) serves
rank, kernels, span tests and the linear system of the connection-rule
derivation: pivot rows are kept fully reduced and keyed by pivot column,
and each row's pivot is its least nonzero column, so the pivot rows are
the reduced row echelon form whatever the row order.  Batches are fed
shortest row first to limit fill-in.  :func:`nullspace` returns kernel
vectors in the same format, and :func:`mat_inv` reduces [A | I] on the
same elimination.
"""

from __future__ import annotations

from fractions import Fraction


def _as_dict(row):
    """A {col: value} mapping as a new sparse row without its zeros."""
    return {c: x for c, x in row.items() if x}


def _sub(dst, f, src):
    """``dst -= f * src`` in place, dropping the zeros."""
    for k, v in src.items():
        x = dst.get(k, 0) - f * v
        if x:
            dst[k] = x
        else:
            del dst[k]


class Echelon:
    """Fully reduced sparse pivot rows over Q, keyed by pivot column."""

    def __init__(self, rows=()):
        self.rows = {}
        for row in sorted(map(_as_dict, rows), key=len):
            self.add(row)

    def reduce(self, row):
        """``row`` minus its components along the pivot rows (a new dict)."""
        out = _as_dict(row)
        # pivot rows vanish on every other pivot column, so one pass suffices
        for c in [c for c in out if c in self.rows]:
            _sub(out, out[c], self.rows[c])
        return out

    def add(self, row):
        """Reduce ``row`` in; it adds a pivot row unless it reduces to 0."""
        r = self.reduce(row)
        if not r:
            return
        lead = min(r)
        inv = 1 / Fraction(r[lead])
        r = {k: v * inv for k, v in r.items()}
        for p in self.rows.values():
            f = p.get(lead)
            if f:
                _sub(p, f, r)
        self.rows[lead] = r


def rank(rows):
    """Rank of sparse rows."""
    return len(Echelon(rows).rows)


def nullspace(rows, ncols):
    """Reduced basis of the right kernel of sparse rows over ``ncols``
    columns: one sparse vector {col: Fraction} per free column, in column
    order, holding its nonzeros in column order.

    A pivot row c is zero left of c and on every other pivot column, so
    its entries past c sit on free columns f > c and give the entry -r[f]
    of f's vector at c; walking the columns in order writes each vector's
    pivot entries, then its own 1.
    """
    pivots = Echelon(rows).rows
    basis = {f: {} for f in range(ncols) if f not in pivots}
    for c in range(ncols):
        if c in basis:
            basis[c][c] = Fraction(1)
            continue
        for f, x in pivots[c].items():
            if f != c:
                basis[f][c] = -x
    return list(basis.values())


def mat_inv(rows):
    """Inverse of a square matrix over Q, read off the reduced echelon form
    of [A | I]: A is invertible exactly when each of its n columns holds a
    pivot, and pivot row c then ends in row c of A^-1.  Raises
    ZeroDivisionError when the matrix is singular.
    """
    n = len(rows)
    pivots = Echelon([{**dict(enumerate(row)), n + i: 1}
                      for i, row in enumerate(rows)]).rows
    if any(c not in pivots for c in range(n)):
        raise ZeroDivisionError("singular matrix")
    zero = Fraction(0)
    return [[pivots[c].get(n + j, zero) for j in range(n)] for c in range(n)]
