"""Shared test helpers: canonical small graphs, presentation shuffles, a
dense reference elimination, the derived connection rules and the
realization state sum."""

import itertools
from fractions import Fraction
from functools import lru_cache

from natops.graphs import (
    ANCHOR,
    CONNECTION,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    anchor,
    connection,
    vector,
)
from natops.rules import derive_connection_rule


@lru_cache(maxsize=None)
def derived_rule(w, n):
    """``derive_connection_rule(w, n)``, derived once per test session:
    order 2 takes seconds and order 3 most of a minute."""
    return derive_connection_rule(w, n)


def unit():
    return Graph((vector("X1"), anchor), ((1, SYM), None))


def chain_xy():
    """X1 feeding the derivative slot of X2, X2 anchored (the O2 formula)."""
    return Graph(
        (vector("X1", 0), vector("X2", 1), anchor),
        ((1, SYM), (2, SYM), None),
    )


def chain_yx():
    return Graph(
        (vector("X1", 1), vector("X2", 0), anchor),
        ((2, SYM), (0, SYM), None),
    )


def trace_pair():
    """The two 2-edge graphs that collide in dimension 1."""
    g1 = chain_xy()
    g2 = Graph(
        (vector("X1", 0), vector("X2", 1), anchor),
        ((2, SYM), (1, SYM), None),
    )
    return g1, g2


def nabla_xy():
    return Graph(
        (vector("X1"), vector("X2"), connection(0), anchor),
        ((2, 0), (2, 1), (3, SYM), None),
    )


def shuffle_presentation(g, rng):
    """Random relabeling of vertex ids and white order; same graph."""
    n = len(g.vertices)
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    verts = tuple(g.vertices[perm[new]] for new in range(n))
    out = tuple(
        (inv[g.out[perm[new]][0]], g.out[perm[new]][1])
        if g.out[perm[new]] is not None
        else None
        for new in range(n)
    )
    order = [inv[w] for w in g.white_order]
    swaps = 0
    for _ in range(rng.randrange(3)):
        if len(order) >= 2:
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
            swaps += 1
    return Graph(verts, out, tuple(order)), (-1) ** swaps


def dense_rref(rows, ncols):
    """Reference reduced row echelon form by dense Fraction Gauss-Jordan.

    Returns (rows, pivot_columns); the slow path the sparse elimination in
    natops.linalg is checked against.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def dense_nullspace(rows, ncols):
    """Reference kernel basis read off dense_rref, one vector per free column."""
    m, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][fc]
        basis.append(v)
    return basis


def dense_matrix(mat):
    """A SparseMatrixQ as dense Fraction rows (reference inputs only)."""
    rows = [[Fraction(0)] * mat.ncols for _ in range(mat.nrows)]
    for (r, c), v in mat.entries.items():
        rows[r][c] = v
    return rows


def state_sum(g, data, gens=None):
    """Reference realization of one graph: the sum over all n^edges index
    assignments of the product of the vertex arrays, the anchor edge held
    at each output index in turn.  natops.jets.realize_graph is checked
    against this slow path."""
    edges = [(src, e[0], e[1]) for src, e in enumerate(g.out) if e is not None]
    edge_of_src = {src: k for k, (src, _, _) in enumerate(edges)}
    anchor_edge = None
    plan = []
    for i, v in enumerate(g.vertices):
        into = {slot: [] for slot in (0, 1, SYM)}
        for k, (_, dst, slot) in enumerate(edges):
            if dst == i:
                into[slot].append(k)
        if v.kind == ANCHOR:
            anchor_edge, = into[SYM]
            continue
        if v.kind == VECTOR:
            arr, base = data.fields[v.label][v.order], ()
        elif v.kind == CONNECTION:
            arr, base = data.conn[v.order], (into[0][0], into[1][0])
        elif v.kind == WHITE:
            arr, base = gens[v.order], ()
        plan.append((arr, (edge_of_src[i],) + base, into[SYM]))
    free = [k for k in range(len(edges)) if k != anchor_edge]

    def total(out_index):
        acc = Fraction(0)
        idx = [out_index] * len(edges)
        for assign in itertools.product(range(data.n), repeat=len(free)):
            for k, i in zip(free, assign):
                idx[k] = i
            term = Fraction(1)
            for arr, fixed, syms in plan:
                term = term * arr.get([idx[k] for k in fixed],
                                      [idx[k] for k in syms])
                if not term:
                    break
            acc += term
        return acc

    if anchor_edge is None:
        return total(0)
    return [total(a) for a in range(data.n)]
