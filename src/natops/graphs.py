"""Typed directed graphs for natural-operator calculus.

A graph has four species of vertices:

* ``vector``      -- a vector-field jet coordinate; one output, ``order``
                     mutually symmetric derivative inputs, and a label
                     ("X1", "X2", ...) naming the field it belongs to.
* ``connection``  -- a connection jet coordinate; one output, an *ordered*
                     pair of base inputs and ``order`` symmetric derivative
                     inputs.
* ``white``       -- a jet-group generator; one output and ``order`` >= 2
                     mutually symmetric inputs.  The number of white
                     vertices is the cohomological degree.
* ``anchor``      -- the output marker of vector-valued graphs; a single
                     input, no output.  Scalar-valued graphs have none.

Every non-anchor vertex has exactly one outgoing edge, so a graph is stored
as an out-map: ``out[i]`` is ``(target, slot)`` where ``slot`` is ``0`` or
``1`` for the ordered base inputs of a connection and ``SYM`` for any
symmetric input group.  Loops (a vertex feeding its own input) are allowed.

White vertices carry an orientation: a representative linear order, stored
in ``white_order``.  Reorderings by odd permutations flip the sign of the
graph; this bookkeeping lives in :mod:`natops.canonical`.
"""

from collections import namedtuple

VECTOR = "vector"
CONNECTION = "connection"
WHITE = "white"
ANCHOR = "anchor"

#: slot codes: 0 and 1 are the ordered base inputs of a connection vertex,
#: SYM is membership in the symmetric input group of any vertex.
SYM = 2

Vertex = namedtuple("Vertex", ["kind", "label", "order"])

#: A family of graph complexes: anchored (vector-valued), with connection
#: vertices (nabla), connected graphs only, and the extra field X0 (trace).
Family = namedtuple("Family", ["name", "anchored", "nabla", "connected", "trace"])

BULLET = Family("bullet", True, False, False, False)
BULLET_CONNECTED = Family("bullet-connected", True, False, True, False)
BULLET_WHEEL = Family("bullet-wheel", False, False, True, False)
BULLET_NABLA1 = Family("bullet-nabla-1", True, True, True, False)
BULLET_NABLA = Family("bullet-nabla", True, True, False, False)
BULLET_NABLA_WHEEL = Family("bullet-nabla-wheel", False, True, True, False)
BULLET_NABLA_TRACE = Family("bullet-nabla-trace", True, True, True, True)

FAMILIES = {
    f.name: f
    for f in (
        BULLET,
        BULLET_CONNECTED,
        BULLET_WHEEL,
        BULLET_NABLA1,
        BULLET_NABLA,
        BULLET_NABLA_WHEEL,
        BULLET_NABLA_TRACE,
    )
}


def as_family(family):
    """``family`` as a :class:`Family`: a name is looked up in FAMILIES."""
    return FAMILIES[family] if isinstance(family, str) else family


def vector(label, order=0):
    return Vertex(VECTOR, label, order)


def connection(order=0):
    return Vertex(CONNECTION, None, order)


def white(order):
    return Vertex(WHITE, None, order)


anchor = Vertex(ANCHOR, None, 0)


def sym_size(v):
    """Number of slots in the symmetric input group of vertex ``v``."""
    if v.kind == ANCHOR:
        return 1
    return v.order


class Graph:
    """Immutable directed multigraph with port-structured edges.

    Immutable by contract, not by enforcement: canonical graphs are shared
    process-wide (:mod:`natops.canonical`), so no field of any graph may
    ever be re-assigned after it is built.
    """

    __slots__ = ("vertices", "out", "white_order", "_hash")

    def __init__(self, vertices, out, white_order=None):
        self.vertices = tuple(vertices)
        self.out = tuple(tuple(e) if e is not None else None for e in out)
        if white_order is None:
            white_order = tuple(
                i for i, v in enumerate(self.vertices) if v.kind == WHITE
            )
        self.white_order = tuple(white_order)
        self._hash = None

    @classmethod
    def from_tuples(cls, vertices, out, white_order):
        """The graph of fields already in normal form, taken as they are: a
        tuple of Vertex, a tuple of ``(target, slot)`` tuples or None, and a
        tuple of white ids.  The differential, the basis enumeration and
        :func:`natops.canonical.canonicalize` build their graphs this way.
        The hash is worked out on first use: the terms and wirings handed to
        canonicalize are never dict keys."""
        g = cls.__new__(cls)
        g.vertices, g.out, g.white_order = vertices, out, white_order
        g._hash = None
        return g

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vertices, self.out, self.white_order))
        return h

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.out == other.out
            and self.white_order == other.white_order
        )

    def __repr__(self):
        return "Graph(%r, %r, %r)" % (self.vertices, self.out, self.white_order)

    def __len__(self):
        return len(self.vertices)

    @property
    def degree(self):
        """Cohomological degree = number of white vertices."""
        return len(self.white_order)

    def in_edges(self):
        """Per vertex id, the tuple of its in-edges (source, slot), sources
        ascending."""
        ins = [[] for _ in self.vertices]
        for src, e in enumerate(self.out):
            if e is not None:
                ins[e[0]].append((src, e[1]))
        return tuple(map(tuple, ins))

    def labels(self):
        return sorted(v.label for v in self.vertices if v.kind == VECTOR)

    def count(self, kind):
        return sum(1 for v in self.vertices if v.kind == kind)

    def has_anchor(self):
        return any(v.kind == ANCHOR for v in self.vertices)


#: The empty graph: the unit of scalar-valued families.
EMPTY = Graph((), (), ())


def validate(g):
    """Return a list of violated structural invariants; empty means legal."""
    bad = []
    n = len(g.vertices)
    for i, v in enumerate(g.vertices):
        if v.kind == WHITE and v.order < 2:
            bad.append("white arity < 2 at vertex %d" % i)
        if v.kind in (VECTOR, CONNECTION) and v.order < 0:
            bad.append("negative derivative order at vertex %d" % i)
        if v.kind == VECTOR and not v.label:
            bad.append("unlabelled vector vertex %d" % i)
        if v.kind not in (VECTOR, CONNECTION, WHITE, ANCHOR):
            bad.append("unknown vertex kind %r" % (v.kind,))
    if len(g.out) != n:
        bad.append("out-map length mismatch")
        return bad
    # out-edge discipline
    for i, v in enumerate(g.vertices):
        e = g.out[i]
        if v.kind == ANCHOR:
            if e is not None:
                bad.append("anchor %d has an outgoing edge" % i)
            continue
        if e is None:
            bad.append("vertex %d lacks an outgoing edge" % i)
            continue
        dst, slot = e
        if not (0 <= dst < n):
            bad.append("edge from %d to missing vertex %d" % (i, dst))
            continue
        t = g.vertices[dst]
        if slot in (0, 1):
            if t.kind != CONNECTION:
                bad.append("base slot on non-connection target %d" % dst)
        elif slot != SYM:
            bad.append("bad slot code %r on edge from %d" % (slot, i))
    if bad:
        return bad
    # every input slot filled exactly once
    ins = g.in_edges()
    for i, v in enumerate(g.vertices):
        got_sym = sum(1 for _, s in ins[i] if s == SYM)
        want_sym = sym_size(v)
        if got_sym != want_sym:
            bad.append(
                "open input slot: vertex %d has %d/%d symmetric inputs"
                % (i, got_sym, want_sym)
            )
        if v.kind == CONNECTION:
            for b in (0, 1):
                k = sum(1 for _, s in ins[i] if s == b)
                if k != 1:
                    bad.append(
                        "open input slot: vertex %d base %d filled %d times"
                        % (i, b, k)
                    )
    # orientation datum
    whites = tuple(i for i, v in enumerate(g.vertices) if v.kind == WHITE)
    if sorted(g.white_order) != sorted(whites):
        bad.append("whiteOrder is not a permutation of the white vertices")
    return bad


def _walks(g):
    """Component id per vertex and the directed cycles of ``g``, from one
    walk along out-edges from each vertex not yet seen.

    Every vertex has at most one out-edge, so a walk either runs into a
    vertex an earlier walk labelled, and joins its component, or stops at
    a vertex without an out-edge or on a cycle of its own, and starts a new
    component.  Walks start in vertex order, so the component ids 0, 1, ...
    follow the components' least vertices.  Each cycle is listed along its
    edges from its least vertex, and the cycles in the order of those.
    Returns ``(ids, cycles)``.
    """
    ids = [None] * len(g.vertices)
    cycles = []
    count = 0
    for start in range(len(ids)):
        if ids[start] is not None:
            continue
        path = []
        v = start
        while v is not None and ids[v] is None:
            ids[v] = -1  # on this walk
            path.append(v)
            e = g.out[v]
            v = e[0] if e is not None else None
        if v is not None and ids[v] >= 0:
            c = ids[v]
        else:
            c = count
            count += 1
            if v is not None:
                cycle = path[path.index(v):]
                k = cycle.index(min(cycle))
                cycles.append(tuple(cycle[k:] + cycle[:k]))
        for u in path:
            ids[u] = c
    return ids, tuple(sorted(cycles))


def component_ids(g):
    """Weak-connectivity component id per vertex (ids are 0,1,... by min vertex)."""
    return _walks(g)[0]


def is_connected(g):
    return max(component_ids(g), default=0) == 0


def cycles(g):
    """The directed cycles of g, each listed along its edges from its least
    vertex, in the order of their least vertices."""
    return _walks(g)[1]


def components(g):
    """Split into weakly connected components (relative white order kept)."""
    ids = component_ids(g)
    return [
        splice(g, {v for v, k in enumerate(ids) if k != c})
        for c in range(max(ids, default=-1) + 1)
    ]


def splice(g, drop, redirect=None):
    """Drop the vertices in ``drop``, keeping the others and the white order
    in their order; each kept vertex's out-edge goes to ``redirect[v]``
    when one is given, else where it went.  Every kept edge must land on a
    kept vertex."""
    redirect = redirect or {}
    keep = [v for v in range(len(g.vertices)) if v not in drop]
    new = {v: k for k, v in enumerate(keep)}
    outs = []
    for v in keep:
        e = redirect.get(v, g.out[v])
        outs.append(None if e is None else (new[e[0]], e[1]))
    return Graph(
        tuple(g.vertices[v] for v in keep),
        outs,
        tuple(new[w] for w in g.white_order if w in new),
    )


def disjoint_union(a, b):
    """Disjoint union; b's whites come after a's in the orientation order."""
    off = len(a.vertices)
    verts = a.vertices + b.vertices
    outs = a.out + tuple(
        (e[0] + off, e[1]) if e is not None else None for e in b.out
    )
    order = a.white_order + tuple(w + off for w in b.white_order)
    return Graph(verts, outs, order)


def relabel(g, mapping):
    """Return g with vector labels replaced through ``mapping`` (a dict)."""
    verts = tuple(
        Vertex(v.kind, mapping.get(v.label, v.label), v.order)
        if v.kind == VECTOR
        else v
        for v in g.vertices
    )
    return Graph(verts, g.out, g.white_order)
