"""Local replacement rules defining the graph differential.

A rule expands one vertex into a signed sum of "local graphs" over the
vertex's boundary ports: its original inputs plus its single output.  Port
order conventions:

* vector(v):      ports are the v symmetric inputs,
* connection(w):  ports are (base0, base1) then the w symmetric inputs,
* white(u):       ports are the u symmetric inputs.

Every term uses each boundary port exactly once.  New white vertices carry
an insertion rank: rank 1 becomes the minimal element of the orientation
order (rank 2, when present, the next one).

Rules for white vertices are unshuffle sums.  Vector-field and connection
rules are one closed form, :func:`_lie_derivative_rule`: the Leibniz
expansion of the Lie derivative along a jet-group generator that vanishes
to second order, with unit coefficients.  :mod:`natops.oracle` derives
connection rules independently from the jet action; the tests compare the
two, and no runtime path calls it.  The boundary-port and arity check of a
template (``check_template``) lives in the tests too, which run it on
every template a command can build.
"""

import itertools
from collections import namedtuple
from functools import lru_cache

from .graphs import CONNECTION, SYM, VECTOR, WHITE, Vertex, connection, white

#: out-target marker: the internal vertex's output leaves the local graph.
OUT = ("out",)

Term = namedtuple("Term", ["coeff", "internals", "ranks", "iout", "ports"])
RuleTemplate = namedtuple("RuleTemplate", ["kind", "order", "terms"])


def _term(coeff, internals, ranks, iout, ports):
    return Term(int(coeff), tuple(internals), tuple(ranks), tuple(iout), tuple(ports))


@lru_cache(maxsize=None)
def replace_white(u):
    """Expansion of a white vertex of arity ``u`` into two-white trees.

    One term of coefficient +1 per pair s, t >= 2 with s + t = u + 1 and
    per choice of the t inputs handed to the child.  The parent (arity s)
    is the minimal new white and the child the next one: of the two
    readable conventions only this one satisfies d(d(G)) = 0 against the
    orientation splice used in :mod:`natops.complexes`, and the d-squared
    suite is the arbiter.
    """
    if u < 2:
        raise ValueError("white arity must be >= 2")
    terms = []
    ports_all = range(u)
    for t in range(2, u):
        s = u + 1 - t
        parent, child = white(s), white(t)
        for sub in itertools.combinations(ports_all, t):
            subset = set(sub)
            ports = tuple(
                (1, SYM) if p in subset else (0, SYM) for p in ports_all
            )
            terms.append(
                _term(1, (parent, child), (1, 2), (OUT, (0, SYM)), ports)
            )
    return RuleTemplate(WHITE, u, tuple(terms))


def _lie_derivative_rule(kind, k, vertex, nbase):
    """Leibniz expansion of the Lie derivative of an order-``k`` vertex.

    ``vertex(order)`` builds the lower-order copy X' of the vertex and
    ``nbase`` is its number of ordered base slots (0 for a vector field,
    2 for a connection), which lead the port list ahead of the ``k``
    symmetric ports.  For each white arity s in 2..k+1, with X' of order
    k+1-s: +1 for white(s) on top of X' (the white takes s-1 symmetric
    ports); -1 for X' on top of a white that takes base port b and feeds
    base slot b; -1, when X' keeps a symmetric slot, for X' on top of a
    white that takes s symmetric ports.  A connection also carries
    -white(k+2) over every port.
    """
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    base, sym = range(nbase), range(nbase, nbase + k)

    def ports(base_ports, child):
        # symmetric ports in ``child`` go to internal 1, the rest to 0
        return base_ports + tuple(
            (1, SYM) if p in child else (0, SYM) for p in sym
        )

    terms = []
    for s in range(2, k + 2):
        j = k + 1 - s
        lower, wht = vertex(j), white(s)
        for sub in itertools.combinations(sym, j):
            terms.append(_term(1, (wht, lower), (1, None), (OUT, (0, SYM)),
                               ports(tuple((1, b) for b in base), sub)))
        for b in base:
            fed = tuple((1, SYM) if q == b else (0, q) for q in base)
            for sub in itertools.combinations(sym, s - 1):
                terms.append(_term(-1, (lower, wht), (None, 1), (OUT, (0, b)),
                                   ports(fed, sub)))
        if j >= 1:
            for sub in itertools.combinations(sym, s):
                terms.append(_term(-1, (lower, wht), (None, 1), (OUT, (0, SYM)),
                                   ports(tuple((0, q) for q in base), sub)))
    if nbase:
        terms.append(_term(-1, (white(k + 2),), (1,), (OUT,),
                           ((0, SYM),) * (nbase + k)))
    return RuleTemplate(kind, k, tuple(terms))


@lru_cache(maxsize=None)
def replace_vectorfield(v, label="X"):
    """Rule for a vector-field vertex with ``v`` derivative inputs; the
    label rides along unchanged."""
    return _lie_derivative_rule(VECTOR, v, lambda u: Vertex(VECTOR, label, u), 0)


@lru_cache(maxsize=None)
def replace_connection(w):
    """Rule for a connection vertex of derivative order ``w``: the Leibniz
    terms plus the single white of arity w+2 with coefficient -1."""
    return _lie_derivative_rule(CONNECTION, w, connection, 2)


def rule_for(vertex):
    """Template for an arbitrary non-anchor vertex."""
    if vertex.kind == WHITE:
        return replace_white(vertex.order)
    if vertex.kind == VECTOR:
        return replace_vectorfield(vertex.order, vertex.label)
    if vertex.kind == CONNECTION:
        return replace_connection(vertex.order)
    raise ValueError("no replacement rule for %r" % (vertex.kind,))


def derive_connection_rule(w, n):
    """The order-``w`` connection rule derived from the jet action in probe
    dimension ``n``: :func:`natops.oracle.derive_connection_rule`, loaded
    only when this runs."""
    from .oracle import derive_connection_rule

    return derive_connection_rule(w, n)
