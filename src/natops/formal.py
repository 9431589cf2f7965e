"""Formal rational linear combinations of canonical graphs.

A coefficient is an exact rational: an ``int``, or a ``Fraction`` where a
division made one.  Ints are never wrapped (the differential's
coefficients are all ints), and ``1 == Fraction(1)`` with equal hashes, so
sums compare equal whichever form a coefficient has.

A sparse object never holds a zero: :func:`add_into`, the one add that
drops what cancels, adds the terms of sums (:func:`combine`, the
differential, the delta^2 residue) and the rows and polynomials of
:mod:`natops.linalg`, the jet law and the rule oracle;
:meth:`FormalSum.add_canonical` is its single-term form.
"""

from .canonical import ZERO, canonicalize, key_bytes
from .graphs import Graph


def add_into(acc, row, c=1):
    """``acc += c * row`` in place, dropping the entries that cancel."""
    get = acc.get
    for k, v in row.items():
        x = get(k, 0) + v * c
        if x:
            acc[k] = x
        else:
            acc.pop(k, None)


def _exact(c):
    """``c`` as an exact rational: an int or a Fraction as it is, anything
    else (a ``"p/q"`` string, a bool) through ``Fraction``.  Sums of ints
    never load :mod:`fractions`."""
    if type(c) is int:
        return c
    import fractions  # per call, a from-import costs 5x as much

    return c if type(c) is fractions.Fraction else fractions.Fraction(c)


class FormalSum:
    """Finite map from canonical graphs to nonzero rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for graph, coeff in dict(terms).items():
                if coeff:
                    self.terms[graph] = _exact(coeff)

    @classmethod
    def of(cls, graph, coeff=1):
        """Sum with a single, not necessarily canonical, presentation."""
        s = cls()
        s.add_graph(graph, coeff)
        return s

    def add_graph(self, graph, coeff=1):
        """Accumulate ``coeff`` times a raw presentation (canonicalizing)."""
        cg, sign = canonicalize(graph)
        if cg is ZERO:
            return
        self.add_canonical(cg, _exact(coeff) * sign)

    def add_canonical(self, cg, coeff):
        """Add ``coeff`` times the canonical graph ``cg``: :func:`add_into`
        for a single term."""
        terms = self.terms
        x = terms.get(cg, 0) + coeff
        if x:
            terms[cg] = x
        else:
            terms.pop(cg, None)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __add__(self, other):
        return combine(self, other, 1, 1)

    def __sub__(self, other):
        return combine(self, other, 1, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a):
        a = _exact(a)
        out = FormalSum()
        if a:
            out.terms = {g: c * a for g, c in self.terms.items()}
        return out

    def map_graphs(self, fn):
        """Apply a graph -> graph map to every term and re-canonicalize."""
        out = FormalSum()
        for g, c in self.terms.items():
            out.add_graph(fn(g), c)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: key_bytes(t[0]))

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        bits = []
        for g, c in self.sorted_terms():
            bits.append("%s * %s" % (c, key_bytes(g).decode()))
        return "FormalSum(" + " + ".join(bits) + ")"


def combine(a, b, alpha=1, beta=1):
    """Exact alpha*a + beta*b; zero coefficients are dropped."""
    out = a.scale(alpha)
    beta = _exact(beta)
    if beta:
        add_into(out.terms, b.terms, beta)
    return out


def as_sum(x):
    """``x`` as a formal sum: a :class:`Graph` is its own one-term sum."""
    return FormalSum.of(x) if isinstance(x, Graph) else x
