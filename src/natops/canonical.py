"""Canonical forms of graphs with orientation signs.

Two presentations of the same graph must map to an identical canonical
presentation.  The algorithm is colour refinement (vertex species, arity,
label, in/out profiles) followed by individualization backtracking over the
remaining symmetric cells; the canonical form is the minimum serialization
over all discrete refinements.  Ordered base slots of connection vertices
are never permuted.

The returned sign is the parity of the permutation carrying the presented
white order to the canonical white order.  If two minimal labelings
disagree on that parity, the graph admits an automorphism inducing an odd
permutation of its white vertices and so equals its own negative: the
distinguished ``ZERO`` class is returned.
"""

from __future__ import annotations

from .graphs import Graph


class _ZeroClass:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


#: Canonical class of graphs that vanish by orientation symmetry.
ZERO = _ZeroClass()


def _initial_colors(g):
    return [(v.kind, v.order, v.label or "") for v in g.vertices]


def _refine(g, colors, ins):
    """Stable colour refinement; colours are rank ints, order-invariant."""
    n = len(g.vertices)
    colors = _rank(colors)
    ncell = len(set(colors))
    while True:
        new = []
        for i in range(n):
            e = g.out[i]
            oc = (colors[e[0]], e[1]) if e is not None else None
            ic = tuple(sorted((s, colors[src]) for src, s in ins[i]))
            new.append((colors[i], oc, ic))
        new = _rank(new)
        nnew = len(set(new))
        if nnew == ncell:
            return new
        colors, ncell = new, nnew


def _rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _cells(colors):
    cells = {}
    for i, c in enumerate(colors):
        cells.setdefault(c, []).append(i)
    return [cells[c] for c in sorted(cells)]


def _search(g, colors, ins, leaves):
    cells = _cells(colors)
    target = None
    for cell in cells:
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        pos = [0] * len(colors)
        for p, i in enumerate(sorted(range(len(colors)), key=colors.__getitem__)):
            pos[i] = p
        leaves.append(pos)
        return
    for v in target:
        branch = [(c, 1) if i != v else (c, 0) for i, c in enumerate(colors)]
        _search(g, _refine(g, branch, ins), ins, leaves)


def _serialize(g, pos):
    n = len(g.vertices)
    verts = [None] * n
    outs = [None] * n
    for i, v in enumerate(g.vertices):
        verts[pos[i]] = (v.kind, v.order, v.label or "")
        e = g.out[i]
        outs[pos[i]] = (pos[e[0]], e[1]) if e is not None else (-1, -1)
    return (tuple(verts), tuple(outs))


def _parity(seq):
    """Parity of the permutation sorting ``seq`` (0 or 1)."""
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        while seq[i] != i:
            j = seq[i]
            seq[i], seq[j] = seq[j], seq[i]
            swaps += 1
    return swaps & 1


def canonicalize(g):
    """Return ``(canonical_graph, sign)`` or ``(ZERO, 1)``.

    The canonical graph is the same graph re-presented with vertices in
    canonical positions and ``white_order`` ascending; ``sign`` relates the
    *presented* orientation to the canonical one.
    """
    n = len(g.vertices)
    if n == 0:
        return g, 1
    ins = g.in_edges()
    colors = _refine(g, _initial_colors(g), ins)
    leaves = []
    _search(g, colors, ins, leaves)
    best = None
    best_pos = None
    parities = set()
    for pos in leaves:
        ser = _serialize(g, pos)
        if best is None or ser < best:
            best = ser
            best_pos = [pos]
            parities = set()
        elif ser == best:
            best_pos.append(pos)
        else:
            continue
    for pos in best_pos:
        ranks = _rank([pos[w] for w in g.white_order])
        parities.add(_parity(ranks))
    if len(parities) == 2:
        return ZERO, 1
    sign = -1 if parities.pop() else 1
    pos = best_pos[0]
    inv = [0] * n
    for i, p in enumerate(pos):
        inv[p] = i
    verts = tuple(g.vertices[inv[p]] for p in range(n))
    outs = tuple(
        (pos[g.out[inv[p]][0]], g.out[inv[p]][1])
        if g.out[inv[p]] is not None
        else None
        for p in range(n)
    )
    order = tuple(sorted(pos[w] for w in g.white_order))
    return Graph(verts, outs, order), sign


def key_bytes(cg):
    """Stable byte-string key of a canonical graph (for files and sorting)."""
    if cg is ZERO:
        return b"ZERO"
    parts = []
    for i, v in enumerate(cg.vertices):
        e = cg.out[i]
        parts.append(
            "%s:%s:%d>%s"
            % (v.kind[0], v.label or "", v.order, "%d.%d" % e if e else "-")
        )
    return ";".join(parts).encode()
