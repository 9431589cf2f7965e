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
to second order, with unit coefficients.  :func:`derive_connection_rule`
derives connection rules independently: it realizes every candidate
degree-1 graph on the fields of :func:`connection_probe` with the jet
oracle's :func:`natops.jets.realize` and matches the candidates against the
linearized coordinate-change action on connection jets.  The tests compare
it with the differential of the probe, and no runtime path calls it.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from functools import lru_cache

from . import jets
from .canonical import canonicalize
from .formal import FormalSum
from .graphs import (
    CONNECTION,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    Vertex,
    anchor,
    connection,
    relabel,
    vector,
    white,
)
from .linalg import Echelon

#: out-target marker: the internal vertex's output leaves the local graph.
OUT = ("out",)

Term = namedtuple("Term", ["coeff", "internals", "ranks", "iout", "ports"])
RuleTemplate = namedtuple("RuleTemplate", ["kind", "order", "terms"])


def _term(coeff, internals, ranks, iout, ports):
    return Term(int(coeff), tuple(internals), tuple(ranks), tuple(iout), tuple(ports))


def check_template(t):
    """Boundary-port and arity sanity of a template; raises on violation."""
    nports = t.order + (2 if t.kind == CONNECTION else 0)
    for term in t.terms:
        outs = [k for k, tgt in enumerate(term.iout) if tgt == OUT]
        assert len(outs) == 1, "template term must export exactly one output"
        fill = {}
        for j, v in enumerate(term.internals):
            if v.kind == WHITE:
                assert v.order >= 2
            fill[j] = {"sym": 0, 0: 0, 1: 0}
        for j, tgt in enumerate(term.iout):
            if tgt != OUT:
                dj, slot = tgt
                fill[dj]["sym" if slot == SYM else slot] += 1
        assert len(term.ports) == nports
        for dj, slot in term.ports:
            fill[dj]["sym" if slot == SYM else slot] += 1
        for j, v in enumerate(term.internals):
            assert fill[j]["sym"] == v.order, "unfilled symmetric slots"
            if v.kind == CONNECTION:
                assert fill[j][0] == 1 and fill[j][1] == 1, "unfilled base slot"
    return t


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
        if s < 2:
            continue
        parent, child = white(s), white(t)
        for sub in itertools.combinations(ports_all, t):
            subset = set(sub)
            ports = tuple(
                (1, SYM) if p in subset else (0, SYM) for p in ports_all
            )
            terms.append(
                _term(1, (parent, child), (1, 2), (OUT, (0, SYM)), ports)
            )
    return check_template(RuleTemplate(WHITE, u, tuple(terms)))


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
    return check_template(RuleTemplate(kind, k, tuple(terms)))


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


# ---------------------------------------------------------------------------
# Derivation of connection rules from the jet action (reference for tests)
# ---------------------------------------------------------------------------


def connection_probe(w):
    """The order-``w`` connection vertex fed from order-0 fields X1..X(w+2),
    X1 and X2 in the base slots, and anchored.  The fields name the boundary
    ports, so its differential is the connection rule written as a sum of
    graphs."""
    fields = tuple(vector("X%d" % (i + 1)) for i in range(w + 2))
    c = w + 2
    return Graph(fields + (connection(w), anchor),
                 ((c, 0), (c, 1)) + ((c, SYM),) * w + ((c + 1, SYM), None))


def _unit_fields(n, ports, conn, w):
    """Jet data whose field Xk is the unit vector at index ``ports[k-1]``."""
    fields = {"X%d" % (k + 1): [jets.Tensor(n, 1, 0, {(i,): 1})]
              for k, i in enumerate(ports)}
    return jets.JetData(n, 0, fields, conn, w)


def derive_connection_rule(w, n):
    """Derive the order-``w`` connection rule in probe dimension ``n``.

    The candidates are the degree-1 graphs on the fields of
    :func:`connection_probe`, with one coefficient per orbit under
    permutations of the derivative ports.  Each sample draws sparse
    generators of every arity and sparse connection jets at dimension
    ``n``, denser from one sample to the next, and asks the candidates,
    realized at unit-vector fields on boundary indices where the action is
    nonzero, to reproduce the exact first-order action of the generators on
    the order-``w`` connection jet.  The match must be unique, which the
    stable-range bound n >= 2w + 4 guarantees, and is then verified at
    every boundary index of a small dimension with dense fresh data.
    Returns the rule as a formal sum, which the closed form must reproduce
    as ``differential(connection_probe(w))``.
    """
    from .complexes import BULLET_NABLA1, _wirings  # complexes imports rules

    if n < 2 * w + 4:
        raise ValueError("probe dimension below stable bound 2w+4")
    arities = range(2, w + 3)
    # merging the derivative labels into one names a graph's orbit
    merged = {"X%d" % k: "D" for k in range(3, w + 3)}
    orbits = {}
    for s in arities:
        ws = (w + 1 - s,) if s <= w + 1 else ()
        for g in _wirings(BULLET_NABLA1, w + 2, (0,) * (w + 2), ws, (s,)):
            orbits.setdefault(canonicalize(relabel(g, merged))[0], {})[g] = 1
    orbits = [FormalSum(orbit) for orbit in orbits.values()]
    norb = len(orbits)

    def action(dim, gens, conn):
        data = jets.JetData(dim, 0, {}, conn, w)
        return jets.infinitesimal_action(list(gens.values()), data).conn[w]

    # one row per output index a: the orbit realizations, then the action
    # in the augmented column norb, which turns pivot when no rule matches
    rng = random.Random(repr(("connrule", w, n)))
    echelon = Echelon()
    for k in range(40):
        if len(echelon.rows) == norb or norb in echelon.rows:
            break
        # sparse draws pin few orbits, and acting on a draw costs more than
        # realizing the orbits at one pick: read each at norb/2 + 1 picks
        density = 2 + 4 * k
        gens = {s: jets.random_sparse_tensor(rng, n, 1, s, density)
                for s in arities}
        conn = [jets.random_sparse_tensor(rng, n, 3, v, 3 * density)
                for v in range(w + 1)]
        delta = action(n, gens, conn)
        picks = sorted({key[1:3] + tuple(sorted(key[3:]))
                        for key in delta.data})
        rng.shuffle(picks)
        for ports in picks[:norb // 2 + 1]:
            data = _unit_fields(n, ports, conn, w)
            cols = [jets.realize(orbit, data, gens) for orbit in orbits]
            for a in range(n):
                row = {j: col[a] for j, col in enumerate(cols) if col[a]}
                row[norb] = delta.get((a,) + ports[:2], ports[2:])
                echelon.add(row)
    if norb in echelon.rows:
        raise ArithmeticError(
            "no order-%d connection rule matches the jet action" % w)
    if len(echelon.rows) < norb:
        raise ArithmeticError(
            "singular rule-matching system for w=%d (rule-basis bug)" % w)
    rule = FormalSum()
    for j, orbit in enumerate(orbits):
        coeff = echelon.rows[j].get(norb, 0)
        if coeff.denominator != 1:
            raise ArithmeticError(
                "non-integer connection-rule coefficient %s" % (coeff,))
        rule = rule + orbit.scale(coeff)
    nv = min(n, max(w + 2, 3), 5)
    rng = random.Random(repr(("connrule-verify", w, n)))
    gens = {s: jets.random_tensor(rng, nv, 1, s) for s in arities}
    conn = jets.random_jet_data(rng, nv, [], w, with_conn=True,
                                conn_order=w).conn
    delta = action(nv, gens, conn)
    for b, c in itertools.product(range(nv), repeat=2):
        for ds in itertools.combinations_with_replacement(range(nv), w):
            data = _unit_fields(nv, (b, c) + ds, conn, w)
            if jets.realize(rule, data, gens) != [
                    delta.get((a, b, c), ds) for a in range(nv)]:
                raise ArithmeticError(
                    "derived rule fails verification at w=%d" % w)
    return rule
