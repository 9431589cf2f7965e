"""Exact linear algebra over the rationals, shared by homology, the rule
derivation and the jet oracle.

Everything is over Q; no floating point.  One sparse Gauss–Jordan
elimination (:class:`Echelon`) serves rank, kernels, span tests and the
linear system of the connection-rule derivation: rows are dicts
``{col: Fraction}``, pivot rows are kept fully reduced and keyed by pivot
column, and each row's pivot is its least nonzero column, so the pivot rows
are the reduced row echelon form whatever the row order.  Batches are fed
shortest row first to limit fill-in.  :func:`mat_inv` reduces [A | I] on
the same elimination.
"""

from __future__ import annotations

from fractions import Fraction


def _as_dict(row):
    """A sequence or a {col: value} mapping as a new sparse Fraction row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: Fraction(x) for c, x in items if x}


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
        inv = 1 / r[lead]
        r = {k: v * inv for k, v in r.items()}
        for p in self.rows.values():
            f = p.get(lead)
            if f:
                _sub(p, f, r)
        self.rows[lead] = r


def rank(rows):
    """Rank of dense or sparse rows."""
    return len(Echelon(rows).rows)


def nullspace(rows, ncols=None):
    """Reduced basis of the right kernel, one vector per free column."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    pivots = Echelon(rows).rows
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, r in pivots.items():
            if fc in r:
                v[c] = -r[fc]
        basis.append(v)
    return basis


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
