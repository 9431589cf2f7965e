"""Operadic structure on degree-0 graph spaces.

Composition inserts one anchored graph into a field slot of another: cut
the inserted graph's anchor, graft its root where the replaced vertex's
output went, and redistribute the replaced vertex's derivative inputs over
the inserted graph's field vertices in all possible ways (each grafted
edge raises the receiving vertex's derivative order by one).  On the
vector-field family the receivers are the labelled field vertices; with
connections present the connection vertices receive as well, which is what
composition of differential operators dictates.

All three rewrites here -- insertion, the trace, and the component split
of :mod:`natops.graphs` -- are one primitive, :func:`natops.graphs.splice`:
drop some vertices, keep the rest in order, redirect some out-edges.
Insertion takes the disjoint union of the two graphs and splices away the
replaced vertex and the inserted anchor; the trace splices away the anchor
and X0, closing X0's output onto the anchor's feeder.

Bracket words expand through the operad morphism sending the binary
bracket to the antisymmetrized 2-chain and the star letter to the
covariant-derivative cocycle.
"""

import itertools
import re
from collections import Counter

from .formal import FormalSum, as_sum, combine
from .graphs import (
    ANCHOR,
    CONNECTION,
    SYM,
    VECTOR,
    Graph,
    anchor,
    connection,
    disjoint_union,
    relabel,
    splice,
    vector,
)


def arity(x):
    """Common multilinearity of a degree-0 operad element."""
    ds = set()
    for g, _ in as_sum(x):
        labs = g.labels()  # sorted as strings: X1, X10, X2, ...
        d = len(labs)
        if labs != sorted("X%d" % i for i in range(1, d + 1)):
            raise ValueError("operad elements carry labels X1..Xd")
        ds.add(d)
    if len(ds) != 1:
        raise ValueError("mixed arity")
    return ds.pop()


def unit_graph():
    return Graph((vector("X1"), anchor), ((1, SYM), None))


def p_graph():
    """The 2-chain: X2 feeding the derivative slot of X1, X1 anchored."""
    return Graph(
        (vector("X1", 1), vector("X2", 0), anchor),
        ((2, SYM), (0, SYM), None),
    )


def bracket_element():
    """Antisymmetrized 2-chain (the Lie bracket)."""
    tau = sigma_action(FormalSum.of(p_graph()), (2, 1))
    return combine(tau, FormalSum.of(p_graph()), 1, -1)


def nabla_graph():
    """Connection vertex on the ordered pair (X1, X2), anchored."""
    return Graph(
        (vector("X1"), vector("X2"), connection(0), anchor),
        ((2, 0), (2, 1), (3, SYM), None),
    )


def covariant_element():
    """The covariant-derivative cocycle: connection term plus 2-chain."""
    return combine(FormalSum.of(nabla_graph()), FormalSum.of(p_graph()), 1, 1)


def _slot_inputs(g1, i):
    """The vertex labelled X_i of g1 (None if there is none) and the
    sources of its inputs."""
    slot = next((k for k, x in enumerate(g1.vertices)
                 if x.kind == VECTOR and x.label == "X%d" % i), None)
    return slot, [k for k, e in enumerate(g1.out)
                  if e is not None and e[0] == slot]


def _receivers(g2):
    return [k for k, x in enumerate(g2.vertices)
            if x.kind in (VECTOR, CONNECTION)]


def monomial_count(a, i, b):
    """How many monomials :func:`compose` builds for a o_i b, counted
    without building one: per pair of terms, r**k for the r receivers of
    the inserted graph and the k inputs of slot i."""
    ks = Counter(len(_slot_inputs(g1, i)[1]) for g1, _ in as_sum(a))
    rs = Counter(len(_receivers(g2)) for g2, _ in as_sum(b))
    return sum(m * n * r ** k for k, m in ks.items() for r, n in rs.items())


def _monomial_compose(g1, i, g2):
    """All monomials of g1 composed with g2 in slot i (labels rewritten)."""
    u, v = g1.count(VECTOR), g2.count(VECTOR)
    slot, ins = _slot_inputs(g1, i)
    off = len(g1.vertices)
    root = next(
        k for k, e in enumerate(g2.out)
        if e is not None and g2.vertices[e[0]].kind == ANCHOR
    )
    anchor2 = off + g2.out[root][0]
    root += off
    receivers = [off + k for k in _receivers(g2)]
    outer = {"X%d" % j: "X%d" % (j + v - 1) for j in range(i + 1, u + 1)}
    inner = {"X%d" % k: "X%d" % (i + k - 1) for k in range(1, v + 1)}
    both = disjoint_union(relabel(g1, outer), relabel(g2, inner))
    out = []
    for choice in itertools.product(receivers, repeat=len(ins)):
        verts = list(both.vertices)
        for r in choice:
            verts[r] = verts[r]._replace(order=verts[r].order + 1)
        redirect = {k: (r, SYM) for k, r in zip(ins, choice)}
        # the root takes the slot's out-edge, or its self-loop's new target
        redirect[root] = redirect.get(slot, g1.out[slot])
        grown = Graph(verts, both.out, both.white_order)
        out.append(splice(grown, {slot, anchor2}, redirect))
    return out


def compose(a, i, b):
    """Operadic insertion a o_i b, extended bilinearly."""
    a, b = as_sum(a), as_sum(b)
    if not (1 <= i <= arity(a)):
        raise ValueError("slot index out of range")
    arity(b)
    if not all(g.has_anchor() for g, _ in b):
        raise ValueError("the inserted sum must be anchored (vector-valued)")
    out = FormalSum()
    for g1, c1 in a:
        for g2, c2 in b:
            for g in _monomial_compose(g1, i, g2):
                out.add_graph(g, c1 * c2)
    return out


def sigma_action(x, sigma):
    """Right action relabelling X_k to X_{sigma(k)}: the result evaluates
    the original element at arguments pulled back through sigma."""
    x = as_sum(x)
    if sorted(sigma) != list(range(1, arity(x) + 1)):
        raise ValueError("permutation size mismatch")
    mapping = {"X%d" % k: "X%d" % s for k, s in enumerate(sigma, 1)}
    return x.map_graphs(lambda g: relabel(g, mapping))


# --- bracket-word expansion -------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_word(text):
    """Parse a bracket/star word like ``(b (b X1 X2) X3)`` or ``(c X1 X2)``."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def rec():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of word")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in ("b", "c"):
                raise ValueError("expected operator b or c")
            op = tokens[pos]
            pos += 1
            left = rec()
            right = rec()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("expected ')'")
            pos += 1
            return (op, left, right)
        if tok == ")":
            raise ValueError("unexpected ')'")
        m = re.fullmatch(r"X(\d+)", tok)
        if not m:
            raise ValueError("bad leaf %r" % tok)
        return int(m.group(1))

    try:
        tree = rec()
    except RecursionError:
        raise ValueError("word nests too deeply") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens in word")
    return tree


def _leaves(tree):
    if isinstance(tree, int):
        return [tree]
    return _leaves(tree[1]) + _leaves(tree[2])


def lie_expand(word):
    """Image of a bracket/star word under the expansion morphism.

    ``b`` letters map to the Lie bracket element, ``c`` letters to the
    covariant-derivative cocycle; each variable must occur exactly once.
    """
    tree = parse_word(word) if isinstance(word, str) else word
    leaves = _leaves(tree)
    if sorted(leaves) != list(range(1, len(leaves) + 1)):
        raise ValueError("word must use X1..Xd exactly once")

    def rec(node):
        if isinstance(node, int):
            return FormalSum.of(unit_graph()), 1
        op, l, r = node
        el, al = rec(l)
        er, ar = rec(r)
        base = bracket_element() if op == "b" else covariant_element()
        out = compose(compose(base, 1, el), al + 1, er)
        return out, al + ar

    expr, _ = rec(tree)
    return sigma_action(expr, leaves)


# --- trace ------------------------------------------------------------------


def trace_map(g):
    """Splice out the anchor and the order-0 vertex labelled X0, closing
    the freed input and output into one edge (a wheel)."""
    x0 = anc = None
    for k, vv in enumerate(g.vertices):
        if vv.kind == VECTOR and vv.label == "X0":
            if vv.order != 0:
                raise ValueError("X0 must have derivative order 0")
            x0 = k
        elif vv.kind == ANCHOR:
            anc = k
    if x0 is None or anc is None:
        raise ValueError("trace needs an anchored graph with an X0 vertex")
    feeder = next(k for k, e in enumerate(g.out) if e is not None and e[0] == anc)
    return splice(g, {x0, anc}, {feeder: g.out[x0]})


def trace_sum(x):
    return as_sum(x).map_graphs(trace_map)
