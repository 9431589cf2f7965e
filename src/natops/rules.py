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
derives connection rules independently, by matching candidate templates
against the linearized coordinate-change action on connection jets; the
tests compare it with the closed form, and no runtime path calls it.
"""

from __future__ import annotations

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


def _candidate_terms(w, s):
    """All local shapes available to the arity-``s`` part of the rule.

    Shapes are two-vertex trees with one connection of order w+1-s and one
    white of arity s, plus (for s = w+2) the single big white.  Returned as
    concrete-port terms grouped into orbits under permutations of the
    derivative ports, so that one coefficient per orbit keeps the template
    symmetric in the symmetric inputs it replaces.
    """
    ports = list(range(w + 2))  # 0,1 = base; 2.. = derivative ports
    base_ports, d_ports = ports[:2], ports[2:]
    shapes = []

    def orbit_key(assign):
        # assign: port -> (internal, slotclass); derivative ports unordered
        fixed = tuple(assign[p] for p in base_ports)
        dmulti = tuple(sorted(assign[p] for p in d_ports))
        return fixed, dmulti

    def emit(internals, ranks, iout, assign):
        shapes.append((internals, ranks, iout, dict(assign)))

    if s == w + 2:
        emit((white(s),), (1,), (OUT,), {p: (0, SYM) for p in ports})
    v2 = w + 1 - s
    if v2 >= 0:
        conn = connection(v2)
        wht = white(s)
        # white on top: conn output fills one white slot, s-1 ports remain
        for rest in itertools.combinations(ports, s - 1):
            restset = set(rest)
            remaining = [p for p in ports if p not in restset]
            # conn base slots take an ordered pair from remaining, sym the rest
            for b0, b1 in itertools.permutations(remaining, 2):
                assign = {p: (0, SYM) for p in restset}
                assign[b0] = (1, 0)
                assign[b1] = (1, 1)
                for p in remaining:
                    if p not in (b0, b1):
                        assign[p] = (1, SYM)
                emit((wht, conn), (1, None), (OUT, (0, SYM)), assign)
        # conn on top: white output goes into a base or a sym slot of conn
        for wslot in ([0, 1] + ([SYM] if v2 >= 1 else [])):
            for wports in itertools.combinations(ports, s):
                wset = set(wports)
                remaining = [p for p in ports if p not in wset]
                free_base = [b for b in (0, 1) if b != wslot or wslot == SYM]
                if wslot == SYM:
                    free_base = [0, 1]
                need_sym = v2 - (1 if wslot == SYM else 0)
                if len(remaining) != len(free_base) + need_sym:
                    continue
                for bsel in itertools.permutations(remaining, len(free_base)):
                    assign = {p: (1, SYM) for p in wset}
                    for b, p in zip(free_base, bsel):
                        assign[p] = (0, b)
                    for p in remaining:
                        if p not in bsel:
                            assign[p] = (0, SYM)
                    emit((conn, wht), (None, 1), (OUT, (0, wslot)), assign)

    orbits = {}
    for internals, ranks, iout, assign in shapes:
        key = (internals, iout, orbit_key(assign))
        orbits.setdefault(key, []).append((internals, ranks, iout, assign))
    out = []
    seen = set()
    for key, members in orbits.items():
        uniq = []
        mseen = set()
        for internals, ranks, iout, assign in members:
            pk = tuple(assign[p] for p in ports)
            if pk in mseen:
                continue
            mseen.add(pk)
            uniq.append((internals, ranks, iout, tuple(assign[p] for p in ports)))
        if key not in seen:
            seen.add(key)
            out.append(uniq)
    return out


def derive_connection_rule(w, n):
    """Derive the order-``w`` connection rule in probe dimension ``n``.

    The infinitesimal coordinate-change action of each jet-group generator
    on order-w connection jets is computed exactly (first order in a formal
    parameter), then matched against the realizations of all candidate
    local terms; the match must be unique, which the stable-range bound
    n >= 2w + 4 guarantees.  This is the reference that the closed form
    :func:`replace_connection` must reproduce bit-exactly.
    """
    from . import jets  # deferred: jets imports graphs only

    if n < 2 * w + 4:
        raise ValueError("probe dimension below stable bound 2w+4")
    orbits_by_s = {s: _candidate_terms(w, s) for s in range(2, w + 3)}
    coeffs_by_s = jets.match_connection_rule(w, n, orbits_by_s)
    terms = []
    for s in sorted(orbits_by_s):
        for orbit, c in zip(orbits_by_s[s], coeffs_by_s[s]):
            if not c:
                continue
            if c.denominator != 1:
                raise ArithmeticError(
                    "non-integer connection-rule coefficient %s" % (c,)
                )
            for internals, ranks, iout, ports in orbit:
                terms.append(_term(c, internals, ranks, iout, ports))
    return check_template(RuleTemplate(CONNECTION, w, tuple(terms)))


def _template_key(tpl):
    """Order-insensitive fingerprint of a template (term multiset)."""
    return tuple(sorted(
        (t.coeff, t.internals, t.ranks, t.iout, t.ports) for t in tpl.terms
    ))
