"""Exact linear algebra over the rationals, shared by homology, the rule
derivation and the jet oracle.

Everything is over Q; no floating point.  One sparse Gauss–Jordan
elimination (:class:`Echelon`) serves rank, kernels, span tests and the
linear system of the connection-rule derivation: rows are dicts
``{col: Fraction}``, pivot rows are kept fully reduced and keyed by pivot
column, and each row's pivot is its least nonzero column, so the pivot rows
are the reduced row echelon form whatever the row order.  Batches are fed
shortest row first to limit fill-in.  :func:`mat_inv` inverts small dense
matrices over any field-like scalars (the jet oracle's dual numbers).
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


def mat_inv(rows, unit=lambda v: bool(v)):
    """Inverse of a square matrix over any field-like scalars.

    ``unit`` decides invertibility of a pivot (dual numbers need a custom
    predicate); raises ZeroDivisionError when the matrix is singular.
    """
    n = len(rows)
    m = [
        [Fraction(x) if isinstance(x, int) else x for x in row]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if unit(m[i][c]):
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]
