"""Canonical forms of graphs with orientation signs.

Two presentations of the same graph must map to an identical canonical
presentation.  The algorithm is individualization-refinement (McKay,
"Practical graph isomorphism", 1981): exact colour refinement of the
vertices by species, arity, label and in/out profiles, then backtracking
over the remaining symmetric cells; the canonical form is the minimum
serialization over all discrete refinements.  Ordered base slots of
connection vertices are never permuted.

A colour is the position of its cell, the number of vertices in smaller
cells, so splitting a cell leaves every other colour unchanged and each
round re-keys only the members of tied cells.  The initial partition
depends on the vertex tuple alone, and many presentations share one (the
terms of the differential, the wirings of one arity multiset), so it is
worked out once per vertex tuple and kept, as tuples, for the life of the
process.  A caller that already holds it passes it in (``start``): the
differential keeps it in each row of its plans and the basis enumeration
looks it up once per arity multiset, so neither hashes a vertex tuple per
graph.  When the initial colours are already distinct, the positions are
their ranks and nothing is refined.  Each round keys a tied vertex by
its out-edge, read as a colour, and only in a cell where two out-edges
key alike also by its in-edges, which the round collects in one pass
over the out-map when the first such cell needs them (5 280 of the
14 418 tied presentations that ``d2check`` canonicalizes for
bullet-connected d = 5, bullet-wheel d = 4 and bullet d = 4).  So the
first round needs no other set-up; most graphs are discrete after it,
and its colours are then the positions.  Only a tie that survives goes
on to the later rounds and the search.  Twin leaves, order-0 vector
vertices without inputs that share a cell and an out-edge, are swapped
by an automorphism that fixes every white vertex and commutes with the
refinement, so the search branches on one of them per out-edge: k fields
feeding one white cost k refinements instead of k! leaves.  Discrete
starts, the memoized partitions, the cell-wise rounds, the in-edges
read only where out-edges tie, and the pruning change how much work is
done, never the result: the representatives, their vertex order and the
signs are those of the unpruned search over globally re-ranked colours.

The input is a presentation: any graph, read through its three fields
``vertices``, ``out`` and ``white_order`` only.  The differential and the
basis enumeration hand over their terms and wirings as made by
:meth:`~natops.graphs.Graph.from_tuples`, normalized by nobody, and the
canonical graph is made the same way from the tuples built here.

Canonical graphs are hash-consed (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): :func:`canonicalize` returns one shared
:class:`~natops.graphs.Graph` per canonical graph for the life of the
process, and every edge of a canonical out-map is the one shared
``(position, slot)`` pair for its position and slot.  The bases, formal
sums, ``d2check``'s memo of differentials and matrix assembly therefore
hold references, not copies, and their dict lookups succeed on identity.
A returned graph is shared by every caller that ever met it and must
never be mutated.  The table is keyed in two levels so that a graph
costs only its own object and out-map: each canonical vertex tuple gets
a small int id once, kept in its start, and the graphs of one id and one
white set sit in one entry that holds their one shared white order,
keyed by out-map alone.  So the lookup of a term hashes an int, its
whites and its edges, not n vertices.

The returned sign is the parity of the permutation carrying the presented
white order to the canonical white order.  If two minimal labelings
disagree on that parity, the graph admits an automorphism inducing an odd
permutation of its white vertices and so equals its own negative: the
distinguished ``ZERO`` class is returned.

The search is bounded: a graph whose search reaches more than
``MAX_LEAVES`` discrete refinements is refused (:class:`SearchBudgetError`).

:func:`key_bytes`, the sort key of bases and sums, joins per-vertex and
per-edge pieces made once each and kept for the life of the process.
"""

from .graphs import EMPTY, SYM, VECTOR, Graph


class _ZeroClass:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


#: Canonical class of graphs that vanish by orientation symmetry.
ZERO = _ZeroClass()

#: The canonical graphs made so far, one shared object per canonical graph,
#: kept as long as the process: ``_SHARED[sid, whites]`` is ``(whites,
#: {out: graph})`` for the graphs whose canonical vertex tuple has id
#: ``sid`` (see ``_SIDS``) and whose sorted white positions are
#: ``whites``; every graph of the entry holds the entry's ``whites`` as its
#: white order.  The empty graph is ``EMPTY``.
_SHARED = {}

#: The id of every canonical vertex tuple met so far, 0, 1, 2, ... in the
#: order they were met, kept as long as the process.
_SIDS = {}

#: The initial partition of every vertex tuple met so far (see
#: :func:`_start`), keyed by ``g.vertices`` and kept as long as the process.
#: Its entries are tuples, which nothing mutates.
_STARTS = {}

#: ``_PAIRS[p][s]`` is the shared edge ``(p, s)`` into position p, slot s.
_PAIRS = []

#: Most leaves (discrete refinements) one search may reach, 7!.  No basis
#: graph or delta term of the tabulated slices, up to bullet-nabla-1 d = 5
#: at degree 0, reaches a second leaf, but a graph read from outside can
#: reach k!: k order-1 fields, each on its own self-loop, tie in one cell
#: that refinement never splits.  7 of them take about 0.2 s on a 2-core
#: host.
MAX_LEAVES = 5040


class SearchBudgetError(ValueError):
    """A graph whose canonical search reaches more than MAX_LEAVES leaves."""


def _pairs(n):
    """The shared edge pairs, grown to cover positions 0..n-1."""
    for p in range(len(_PAIRS), n):
        _PAIRS.append(tuple((p, s) for s in range(SYM + 1)))
    return _PAIRS


#: Slots per vertex: an out-edge ``(target, slot)`` read as colours is the
#: one int ``colour * _SLOTS + slot``, -1 for none.
_SLOTS = SYM + 1


def _refine(out, colors, cells):
    """Split the tied ``cells`` until the colouring is stable.

    ``colors[i]`` is the position of vertex i's cell; each round reads
    the last colours and writes a new list.  ``cells`` lists the cells
    with more than one member in colour order, each ascending.  A round
    keys every tied vertex by its colour's out-edge and, in a cell where
    two out-edges key alike, also by its sorted in-edges ``(slot, colour
    of the source)``, all read from the previous round, and splits its
    cell in key order.  The in-edges of the tied vertices are collected
    in one pass over the out-map, at the first cell that needs them.
    Returns the new colours and tied cells.
    """
    while cells:
        ins = None
        new = list(colors)
        tied = []
        split = False
        for cell in cells:
            keyed = []
            for i in cell:
                e = out[i]
                keyed.append((colors[e[0]] * _SLOTS + e[1]
                              if e is not None else -1, i))
            start = colors[cell[0]]
            if len({key for key, _ in keyed}) == len(keyed):
                keyed.sort()
                for off, (_, i) in enumerate(keyed):
                    new[i] = start + off
                split = True
                continue
            if ins is None:
                ins = [None] * len(colors)
                for c in cells:
                    for i in c:
                        ins[i] = []
                for src, e in enumerate(out):
                    if e is not None:
                        into = ins[e[0]]
                        if into is not None:
                            into.append((e[1], colors[src]))
            keyed = sorted([((key, sorted(ins[i])), i) for key, i in keyed])
            run = [keyed[0][1]]
            for off in range(1, len(keyed)):
                key, i = keyed[off]
                if key != keyed[off - 1][0]:
                    split = True
                    for j in run:
                        new[j] = start
                    if len(run) > 1:
                        tied.append(run)
                    start += len(run)
                    run = []
                run.append(i)
            for j in run:
                new[j] = start
            if len(run) > 1:
                tied.append(run)
        if not split:
            break
        colors, cells = new, tied
    return colors, cells


def _search(out, twin, colors, cells, leaves):
    """Individualize each vertex of the first tied cell in turn; collect
    the discrete colourings (vertex -> position) in depth-first order.

    Of the twins in that cell, input-free fields sharing an out-edge, only
    the first is tried: the others' subtrees are its images under swaps
    that fix every white, so they add no smaller leaf and no new parity.
    """
    if not cells:
        if len(leaves) == MAX_LEAVES:
            raise SearchBudgetError(
                "graph too symmetric to canonicalize: its search passes %d"
                " leaves" % MAX_LEAVES)
        leaves.append(colors)
        return
    target = cells[0]
    top = colors[target[0]]
    tried = set()
    for v in target:
        if twin[v]:
            if out[v] in tried:
                continue
            tried.add(out[v])
        branch = list(colors)
        rest = []
        for u in target:
            if u != v:
                branch[u] = top + 1
                rest.append(u)
        tied = [rest, *cells[1:]] if len(rest) > 1 else cells[1:]
        _search(out, twin, *_refine(out, branch, tied), leaves)


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
    """Parity of the permutation sorting the distinct values ``seq``."""
    swaps = 0
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if x > y:
                swaps += 1
    return swaps & 1


def _leaf(g, colors, cells):
    """Positions of the first minimal leaf of a graph with tied initial
    ``colors`` and ``cells``, or None when two minimal leaves disagree on
    the parity of the white order.  The first round usually leaves no tie,
    and its colours are the positions."""
    out = g.out
    colors, cells = _refine(out, colors, cells)
    if not cells:
        return colors
    fed = {e[0] for e in out if e is not None}
    twin = [v.kind == VECTOR and i not in fed
            for i, v in enumerate(g.vertices)]
    leaves = []
    _search(out, twin, colors, cells, leaves)
    if len(leaves) == 1:
        return leaves[0]
    best = None
    for leaf in leaves:
        ser = _serialize(g, leaf)
        if best is None or ser < best:
            best, pos = ser, leaf
            parities = set()
        if ser == best:
            parities.add(_parity([leaf[w] for w in g.white_order]))
    return pos if len(parities) == 1 else None


def _sid(cverts):
    """The id of the canonical vertex tuple ``cverts``, given once."""
    sid = _SIDS.get(cverts)
    if sid is None:
        sid = _SIDS[cverts] = len(_SIDS)
    return sid


def _start(verts):
    """The initial partition of the vertex tuple ``verts``, as tuples
    ``(colors, cells, pos, cverts, sid)``.  Vertices are coloured by kind,
    order and label: ``colors[i]`` is the position of vertex i's cell, and
    ``cells`` are the cells with more than one member, in colour order,
    each ascending.  For a discrete start ``pos`` is ``colors`` (the
    positions are the ranks), else None.  ``cverts`` is the canonical vertex
    tuple and ``sid`` its id (:func:`_sid`), or both None when a cell holds
    unequal vertices (an unlabelled and an empty-labelled field), whose
    order only the leaf decides."""
    n = len(verts)
    init = [(v.kind, v.order, v.label or "") for v in verts]
    inv = sorted(range(n), key=init.__getitem__)
    colors = [0] * n
    cells = []
    start = 0
    for p in range(1, n + 1):
        if p == n or init[inv[p]] != init[inv[start]]:
            if p - start > 1:
                cell = inv[start:p]
                cells.append(tuple(cell))
                for i in cell:
                    colors[i] = start
            else:
                colors[inv[start]] = start
            start = p
    colors = tuple(colors)
    cverts = tuple([verts[i] for i in inv])
    if cells and any(verts[i] != verts[cell[0]]
                     for cell in cells for i in cell):
        cverts = sid = None
    else:
        sid = _sid(cverts)
    return colors, tuple(cells), None if cells else colors, cverts, sid


def start_of(verts):
    """The initial partition of the vertex tuple ``verts`` (see
    :func:`_start`), from the table of those met so far."""
    start = _STARTS.get(verts)
    if start is None:
        start = _STARTS[verts] = _start(verts)
    return start


def canonicalize(g, start=None):
    """Return ``(canonical_graph, sign)`` or ``(ZERO, 1)``.

    The canonical graph is the same graph re-presented with vertices in
    canonical positions and ``white_order`` ascending; ``sign`` relates the
    *presented* orientation to the canonical one.  It is the process's one
    shared object for that graph (the empty graph is ``EMPTY``): equal
    results are identical, and none may ever be mutated.

    ``start`` is ``start_of(g.vertices)`` when the caller already holds
    it: the differential's plans keep it per term and the basis
    enumeration looks it up once per arity multiset, so that neither
    hashes a vertex tuple per graph.  Left out, it is looked up here.
    """
    verts = g.vertices
    n = len(verts)
    if n == 0:
        return EMPTY, 1
    if start is None:
        start = start_of(verts)
    colors, cells, pos, cverts, sid = start
    if pos is None:
        pos = _leaf(g, colors, cells)
        if pos is None:
            return ZERO, 1
        if cverts is None:
            inv = sorted(range(n), key=pos.__getitem__)
            cverts = tuple([verts[i] for i in inv])
            sid = _sid(cverts)
    pairs = _PAIRS if n <= len(_PAIRS) else _pairs(n)
    edges = [None] * n
    for i, e in enumerate(g.out):
        if e is not None:
            edges[pos[i]] = pairs[pos[e[0]]][e[1]]
    edges = tuple(edges)
    whites = [pos[w] for w in g.white_order]
    key = (sid, tuple(sorted(whites)))
    entry = _SHARED.get(key)
    if entry is None:
        entry = _SHARED[key] = (key[1], {})
    cg = entry[1].get(edges)
    if cg is None:
        cg = entry[1][edges] = Graph.from_tuples(cverts, edges, entry[0])
    return cg, -1 if len(whites) > 1 and _parity(whites) else 1


#: The pieces of :func:`key_bytes`, per vertex and per edge, made once each
#: and kept as long as the process.
_VERTEX_KEYS = {}
_EDGE_KEYS = {None: "-"}


def key_bytes(cg):
    """Stable byte-string key of a canonical graph (for files and sorting):
    ``kind initial:label:order>target.slot`` (``-`` for no edge) per
    vertex, joined by ``;``."""
    if cg is ZERO:
        return b"ZERO"
    parts = []
    for v, e in zip(cg.vertices, cg.out):
        vk = _VERTEX_KEYS.get(v)
        if vk is None:
            vk = _VERTEX_KEYS[v] = "%s:%s:%d>" % (v.kind[0], v.label or "",
                                                  v.order)
        ek = _EDGE_KEYS.get(e)
        if ek is None:
            ek = _EDGE_KEYS[e] = "%d.%d" % e
        parts.append(vk + ek)
    return ";".join(parts).encode()
