"""Exact linear algebra over the rationals, shared by homology, the rule
derivation and the jet oracle.

Everything is exact; no floating point.  There is one row format: a
sparse row is a mapping ``{col: value}`` holding its nonzeros, with int or
Fraction values.  One sparse elimination (:class:`Elimination`) serves
rank, kernels, span tests, the inverse of a coordinate change's linear
part and the linear system of the connection-rule derivation.  It is
fraction-free: a row with Fraction entries is scaled to ints by the lcm
of its denominators, a row is cleared of a pivot column as
r <- a*r - b*p with a and b the two pivot entries over their gcd, and
each new pivot row is divided by its content.
Rows go in shortest first.  A row's pivot is its least column under the
elimination's column order; by default that is the column with the
fewest nonzeros in the input, ties to the lowest index, which keeps the
pivot rows sparse.  A pivot row holds no pivot column older than its own,
so a row is cleared against the pivot rows in the order they were made.

The forward pass is all that :func:`rank` and the span test run, so a
rank over int rows (the differential's) never makes a Fraction, and a
kernel does only where a division leaves one.
:meth:`Elimination.reduced` back-substitutes, youngest pivot first and
still over ints.  :func:`nullspace` and the rule solver divide each of
its rows by its pivot entry, which gives them the reduced row echelon
form; the rule solver and the jet oracle's inverse of a linear part
(:class:`natops.jets.CoordinateChange`, which keeps the rows over ints)
eliminate in plain column order (``key=int``).  Rows are added with
:func:`natops.formal.add_into`, the one cancel-dropping add, which the
formal sums, the jet law's polynomials and the oracle's Lagrange slope
use as well.  :mod:`fractions` is imported only where a Fraction is made.
"""

from math import gcd, lcm

from .formal import add_into


def _cancel(r, p, c):
    """``r`` with column c cleared against ``p``: a*r - b*p, where a > 0
    and b are r[c] and p[c] over their gcd.  It scales into a new dict
    when a > 1 and otherwise adds into ``r`` in place."""
    x, y = r[c], p[c]
    g = gcd(x, y)
    a, b = y // g, x // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        r = {j: a * v for j, v in r.items()}
    add_into(r, p, -b)
    return r


class Elimination:
    """Fraction-free sparse pivot rows over the integers.

    ``pivots`` holds (pivot column, row) in the order the pivot rows were
    made, and ``cols`` maps each pivot column to its index there.  Each
    pivot is its row's least column under ``key``; by default the key
    orders the columns of ``rows`` by their number of nonzeros, then by
    index, and :meth:`add` then takes rows on those columns only.
    """

    def __init__(self, rows=(), key=None):
        rows = sorted(rows, key=len)
        if key is None:
            uses = {}
            for r in rows:
                for c in r:
                    uses[c] = uses.get(c, 0) + 1
            n = max(uses, default=0) + 1
            key = {c: u * n + c for c, u in uses.items()}.__getitem__
        self.key = key
        self.pivots = []
        self.cols = {}
        for r in rows:
            self.add(r)

    def reduce(self, row):
        """``row`` cleared of every pivot column: a nonzero multiple of
        ``row`` minus a combination of the pivot rows, as a new int row."""
        # scaled to ints by its denominators' lcm, without its zeros
        m = lcm(*(x.denominator for x in row.values()))
        r = {c: int(x * m) for c, x in row.items() if x}
        cols, pivots = self.cols, self.pivots
        # pivot rows hold no older pivot column, so clearing the oldest
        # pending pivot first brings in only younger ones
        pending = {cols[c] for c in r if c in cols}
        while pending:
            k = min(pending)
            pending.remove(k)
            c, p = pivots[k]
            if c in r:
                pending.update([cols[j] for j in p
                                if j in cols and j not in r])
                r = _cancel(r, p, c)
        return r

    def add(self, row):
        """Reduce ``row`` in; it adds a pivot row unless it reduces to 0."""
        r = self.reduce(row)
        if r:
            # a new dict: r's table may still be sized for its fill-in
            g = gcd(*r.values())
            r = {j: v // g for j, v in r.items()}
            c = min(r, key=self.key)
            self.cols[c] = len(self.pivots)
            self.pivots.append((c, r))

    def reduced(self):
        """The rows added in reduced echelon form, over the integers:
        {pivot column: row}, 0 on every other pivot column.  A row over
        its pivot entry is the row of the reduced row echelon form.

        A pivot row holds only younger pivot columns, so back-substituting
        youngest first meets each of them reduced already.
        """
        done = {}
        for c, p in reversed(self.pivots):
            r = dict(p)
            for j in p:
                if j in done:
                    r = _cancel(r, done[j], j)
            g = gcd(*r.values())
            done[c] = {j: v // g for j, v in r.items()}
        return done


def rank(rows):
    """Rank of sparse rows."""
    return len(Elimination(rows).pivots)


def nullspace(rows, ncols):
    """Reduced basis of the right kernel of sparse rows over ``ncols``
    columns: one sparse vector per free column of the reduced row echelon
    form, in column order, holding its nonzeros in column order.  A
    vector's values are ints, or Fractions if one of them is not an
    integer.

    The least-used pivots leave their own free columns f, and the reduced
    rows give one kernel vector per f, 1 at f and -row[f] at each pivot.
    The basis above is the reduced echelon form of those vectors with the
    columns in reverse order: each vector ends in its own free column with
    a 1, where the others vanish.
    """
    back = Elimination(rows).reduced()
    # every vector times the lcm of the pivot entries, to stay on ints
    den = lcm(*(r[c] for c, r in back.items()))
    vecs = {f: {f: den} for f in range(ncols) if f not in back}
    for c, r in back.items():
        m = den // r[c]
        for f, x in r.items():
            if f != c:
                vecs[f][c] = -x * m
    del back  # before the second elimination builds its rows
    out = []
    for f, r in sorted(Elimination(vecs.values(), key=int.__neg__)
                       .reduced().items()):
        # r has content 1, so it is integral over r[f] only when r[f] = +-1
        d = r[f]
        if d in (1, -1):
            out.append({j: v * d for j, v in sorted(r.items())})
        else:
            from fractions import Fraction

            out.append({j: Fraction(v, d) for j, v in sorted(r.items())})
    return out

