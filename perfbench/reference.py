"""Reference values the benchmark checks the program's outputs against.

Everything here is computed from first principles with the standard
library; nothing imports natops.  The one exception is
``DEGREE1_SIZES`` (and the degree-0 sizes of the connection families),
which have no closed form: they were counted once with ``natops basis``
and ``perfbench/recount.py`` recounts them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

SCHEMA = "natops-v1"


def g_series(upto):
    """g_1..g_upto, where sum g_d t^d / d! solves exp(g)(1 - t - g^2) = 1.

    Solved coefficient by coefficient over the rationals: with g known
    below t^n, the t^n coefficient of exp(g)(1 - t - g^2) - 1 is
    (g_n coefficient) + (terms of lower order), because exp(g) = 1 + ...
    and g^2 has no t^n term involving the new coefficient.
    """
    n_terms = upto + 1
    g = [Fraction(0)] * n_terms
    for n in range(1, n_terms):
        e = _exp(g)
        h = [Fraction(0)] * n_terms
        h[0] = Fraction(1)
        h[1] -= 1
        sq = _mul(g, g)
        h = [a - b for a, b in zip(h, sq)]
        g[n] -= _mul(e, h)[n]
    out = [g[n] * factorial(n) for n in range(1, n_terms)]
    if any(x.denominator != 1 for x in out):
        raise ArithmeticError("g series is not integral")
    return [int(x) for x in out]


def _mul(a, b):
    r = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                r[i + j] += x * b[j]
    return r


def _exp(a):
    # r = exp(a) with a[0] = 0, from r' = a' r
    r = [Fraction(0)] * len(a)
    r[0] = Fraction(1)
    for n in range(1, len(a)):
        r[n] = sum(k * a[k] * r[n - k] for k in range(1, n + 1)) / n
    return r


def connected_functional_graphs(d):
    """Connected functional graphs on d labelled points (A001865).

    Each is one cycle with rooted trees hanging off it: choose the k cycle
    points, (k-1)! cycles on them, and k d^(d-k-1) forests of rooted trees
    on the rest whose roots are the k cycle points.
    """
    total = 0
    for k in range(1, d + 1):
        forests = k * d ** (d - k - 1) if k < d else 1
        total += comb(d, k) * factorial(k - 1) * forests
    return total


def h0(family, d):
    """Dimension of the degree-0 kernel that ``natops h0`` must report."""
    if family in ("bullet", "bullet-connected"):
        return factorial(d - 1)
    if family == "bullet-wheel":
        return 0
    if family == "bullet-nabla-1":
        return g_series(d)[d - 1]
    raise KeyError(family)


# (family, d) -> degree-0 basis size.  The vector-field families have
# closed forms: a degree-0 graph is a map from the d fields to the fields
# and the anchor, and the anchor takes exactly one input.
def degree0_size(family, d):
    if family == "bullet":
        return d ** d  # any map with exactly one field on the anchor
    if family == "bullet-connected":
        return d ** (d - 1)  # rooted labelled trees
    if family == "bullet-wheel":
        return connected_functional_graphs(d)
    return DEGREE0_SIZES[(family, d)]


# Counted with `natops basis`; recounted by perfbench/recount.py.
DEGREE0_SIZES = {
    ("bullet-nabla", 3): 183,
    ("bullet-nabla-1", 3): 45,
    ("bullet-nabla-trace", 2): 34,
}
DEGREE1_SIZES = {
    ("bullet", 4): 565,
    ("bullet-wheel", 4): 433,
    ("bullet-connected", 5): 1526,
    ("bullet-nabla", 3): 100,
    ("bullet-nabla-1", 3): 22,
    ("bullet-nabla-trace", 2): 19,
}


def connection_rule_shapes(w):
    """Term shapes of the order-w connection rule, from the Lie derivative.

    The rule is the Leibniz expansion of the Lie derivative of a connection
    along a generator vanishing to second order: a white(s) takes s - 1 of
    the w symmetric ports and sits on top of conn(w+1-s) (+1), or feeds
    base slot 0 or 1 of it (-1), or takes s symmetric ports and feeds a
    symmetric slot of it (-1); and a single white(w+2) takes every port
    (-1).  Returns {(place, s, connection order, coeff): multiplicity},
    place being "top", "base" or "sym".
    """
    shapes = {("top", w + 2, None, -1): 1}
    for s in range(2, w + 2):
        shapes[("top", s, w + 1 - s, 1)] = comb(w, s - 1)
        shapes[("base", s, w + 1 - s, -1)] = 2 * comb(w, s - 1)
        if s <= w:
            shapes[("sym", s, w + 1 - s, -1)] = comb(w, s)
    return shapes


def _edge(src, dst, group="sym", index=0):
    return {"from": src, "to": dst, "slot": {"group": group, "index": index}}


def _single_term(graph):
    return {"schema": SCHEMA, "terms": [{"coeff": "1", "graph": graph}]}


def control_o2_chain():
    """X1 -> d X2: the directional derivative X1^j d_j X2^i, not natural."""
    return _single_term({
        "vertices": [{"id": 0, "kind": "vector", "label": "X1", "derivOrder": 0},
                     {"id": 1, "kind": "vector", "label": "X2", "derivOrder": 1},
                     {"id": 2, "kind": "anchor"}],
        "edges": [_edge(0, 1), _edge(1, 2)],
        "whiteOrder": [],
    })


def control_bare_connection():
    """Gamma(X1, X2) with no derivative: the connection is not a tensor."""
    return _single_term({
        "vertices": [{"id": 0, "kind": "vector", "label": "X1", "derivOrder": 0},
                     {"id": 1, "kind": "vector", "label": "X2", "derivOrder": 0},
                     {"id": 2, "kind": "connection", "derivOrder": 0},
                     {"id": 3, "kind": "anchor"}],
        "edges": [_edge(0, 2, "base", 0), _edge(1, 2, "base", 1), _edge(2, 3)],
        "whiteOrder": [],
    })


def rank(vectors):
    """Exact rank of sparse rational vectors given as {key: Fraction}."""
    rows = [dict(v) for v in vectors if v]
    r = 0
    pivots = []
    for row in rows:
        for key, prow in pivots:
            c = row.get(key)
            if c:
                for k, v in prow.items():
                    nv = row.get(k, 0) - c * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        if row:
            key = min(row)
            inv = 1 / row[key]
            pivots.append((key, {k: v * inv for k, v in row.items()}))
            r += 1
    return r
