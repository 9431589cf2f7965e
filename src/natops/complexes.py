"""Graph families, graded bases, and the differential.

The degree of a graph is its number of white vertices.  The differential
replaces one vertex at a time according to :mod:`natops.rules` and splices
the freshly created white vertices into the orientation order:

* replacing a field/connection/anchor-side vertex makes the new white the
  minimal element, with sign +1;
* replacing the white at position i (1-based) of the orientation order
  carries sign (-1)**(i+1), and the new whites take its place in rank
  order (the wider parent white first; see :func:`natops.rules.replace_white`).

A term keeps the ids of the graph it comes from: the internal vertex
that exports the rule term's output takes the replaced vertex's id, and
the other internals take n, n + 1, ... for a graph of n vertices.  So a
term's out-map is the graph's own with the edges into the replaced vertex
rewritten and the internals' edges appended.

Of that work only the edges differ between graphs with one vertex tuple and
one white order: which rule replaces each vertex, the sign, the spliced
white order and the vertex tuple of each term are a plan, worked out once
per (vertices, white order) and kept in ``_PLANS`` for the life of the
process.  A plan row holds, per rule term, the term's vertex tuple, white
order and coefficient, where each boundary port enters, the internals'
own edges, and the canonical start of the vertex tuple, which is handed
to :func:`canonicalize` with every term.
The port maps and internal edges depend only on the rule, the replaced
vertex's id and n (:func:`_placed`); :func:`canonicalize` maps every edge
to its shared pair when it builds the output.

A basis slice is dealt out as wirings, one source per input slot, slot
group by slot group in vertex order.  Equal vertices sit at consecutive
ids: the connections of one order and the whites of one arity each form a
*run*.  A run member's key is a tuple over its slot groups, in order: the
sorted sources dealt into each, with every run member written as its
run's first id.  Only wirings whose run keys do not decrease are dealt,
and a partial wiring is dropped as soon as a member's last group is
filled with a key below the previous member's.  No graph is lost:
swapping two members of a run gives the same graph (up to the sign of
the white order), permutes their two keys and leaves every other key as
it was, so the swaps that sort the keys of any wiring reach a dealt one.

In a connected family a partial wiring is also dropped as soon as its
edges close more cycles than a connected graph of the slice holds: with
one edge per source, that is ``#sources - (#vertices - 1)``, 0 for an
anchored slice (a tree) and 1 for an anchor-free one (one wheel).  The
edge from source s into a slot of v closes a cycle when the walk from v
along the dealt out-edges ends at s; an edge that closes one is left out
of the walks, so they run in a forest and end at a root.  Every wiring
that is dealt in full is then connected, and no disconnected one is
built.  Swaps keep connectivity and the number of cycles, so the two
prunings drop no graph between them.
"""

from collections import namedtuple
from itertools import combinations
from math import factorial

from .canonical import ZERO, canonicalize, key_bytes, start_of
from .formal import FormalSum, add_into, as_sum
from .graphs import (
    ANCHOR,
    CONNECTION,
    EMPTY,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    anchor,
    as_family,
    connection,
    is_connected,
    validate,
    vector,
    white,
)
from .rules import OUT, rule_for

BasisSlice = namedtuple("BasisSlice", ["family", "d", "m", "graphs"])


def expected_labels(family, d):
    labels = ["X%d" % i for i in range(1, d + 1)]
    if family.trace:
        labels.append("X0")
    return sorted(labels)


def member(family, g, d, m=None):
    """Does graph ``g`` lie in ``family`` at multilinearity ``d``?"""
    if len(g.vertices) == 0:
        return not family.anchored and d == 0 and (m in (None, 0))
    if validate(g):
        return False
    if g.labels() != expected_labels(family, d):
        return False
    if g.count(ANCHOR) != (1 if family.anchored else 0):
        return False
    if not family.nabla and g.count(CONNECTION):
        return False
    if family.connected and not is_connected(g):
        return False
    if family.trace:
        x0 = [v for v in g.vertices if v.kind == VECTOR and v.label == "X0"]
        if len(x0) != 1 or x0[0].order != 0:
            return False
    if m is not None and g.degree != m:
        return False
    return True


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multisets(total, parts, minimum):
    """Weakly increasing tuples of ``parts`` ints >= minimum with given sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total // parts + 1):
        for rest in _multisets(total - first * parts, parts - 1, 0):
            yield (first,) + tuple(first + c for c in rest)


def _assignments(groups, sources, verts, cycles=None):
    """Deal the sources out to the slot groups, one source per slot.

    ``groups`` is a list of (owner, slotcode, size) in vertex order;
    symmetric groups take unordered source subsets.  Yields the out-arrays
    (length ``len(verts)``, None where no source sits) of the wirings
    whose run keys do not decrease, as tuples (see the module docstring).
    With ``cycles`` set, only the wirings of connected graphs with that
    many independent cycles: a partial wiring is dropped as soon as its
    edges close more.
    """
    n = len(verts)
    if not groups:
        yield (None,) * n
        return
    first = list(range(n))  # the first id of each vertex's run
    for i in range(1, n):
        if verts[i] == verts[i - 1]:
            first[i] = first[i - 1]
    runs = {r for i, r in enumerate(first) if r != i}
    # per slot group: its target, owner and size; for a run member the
    # index of its first group (else None), whether this group is its
    # last, and whether the previous member's key bounds its own there
    steps = []
    for k, (owner, code, size) in enumerate(groups):
        if first[owner] not in runs:
            lo = None
        else:
            lo = k
            while lo and groups[lo - 1][0] == owner:
                lo -= 1
        last = k + 1 == len(groups) or groups[k + 1][0] != owner
        steps.append(((owner, code), owner, size, lo,
                      last and lo is not None, last and first[owner] != owner))
    out = [None] * n
    to = [-1] * n  # the edges dealt so far that close no cycle
    parts = [None] * len(groups)
    keys = [None] * n
    end = len(steps) - 1

    def fill(k, sources, spare):
        tgt, owner, size, lo, done, check = steps[k]
        for chosen in combinations(sources, size):
            if lo is not None:
                parts[k] = tuple([first[s] for s in chosen])
                if done:
                    key = keys[owner] = tuple(parts[lo:k + 1])
                    if check and key < keys[owner - 1]:
                        continue
            left = spare
            if cycles is not None:
                for s in chosen:
                    x = owner
                    while to[x] >= 0:
                        x = to[x]
                    if x == s:
                        left -= 1
                    else:
                        to[s] = owner
                if left < 0:
                    for s in chosen:
                        to[s] = -1
                    continue
            for s in chosen:
                out[s] = tgt
            if k == end:
                yield tuple(out)
            else:
                yield from fill(k + 1, [s for s in sources if s not in chosen],
                                left)
            if cycles is not None:
                for s in chosen:
                    to[s] = -1

    yield from fill(0, list(sources), cycles)


def enumerate_basis(family, d, m):
    """Complete deterministic basis of canonical graphs for (family, d, m).

    Generation runs over every vertex-arity multiset allowed by the port
    balance  sum(v) + sum(w) + #conn + sum(u-1) = #fields - [anchor],
    then over all wirings, deduplicated through canonical forms.
    """
    family = as_family(family)
    found = {}
    if not family.anchored and d == 0 and m == 0:
        found[EMPTY] = True
    for vs, ws, us in _arities(family, d, m):
        for g in _wirings(family, d, vs, ws, us):
            found.setdefault(g, True)
    graphs = sorted(found, key=key_bytes)
    return BasisSlice(family, d, m, tuple(graphs))


def wiring_count(family, d, m, limit=None):
    """Number of wirings of ``enumerate_basis(family, d, m)``, connected or
    not: per arity multiset, the multinomial n!/prod(size!) of dealing the
    n sources out to the slot groups.  A connected family builds and
    canonicalizes only the connected ones.  Nothing is built; the count
    stops at the first partial sum above ``limit``."""
    family = as_family(family)
    total = 0
    for vs, ws, us in _arities(family, d, m):
        _, sources, groups = _slots(family, d, vs, ws, us)
        count = factorial(len(sources))
        for _, _, size in groups:
            count //= factorial(size)
        total += count
        if limit is not None and total > limit:
            break
    return total


def _arities(family, d, m):
    """The (field orders, connection orders, white arities) of a slice;
    each fills exactly as many input slots as it has wire sources."""
    if d < 0 or m < 0:
        raise ValueError("d and m must be nonnegative")
    nblack = d + (1 if family.trace else 0)
    budget = nblack - (1 if family.anchored else 0)
    if budget < 0:
        return
    kmax = budget if family.nabla else 0
    for k in range(kmax + 1):
        # white arities: m parts, each >= 2, sum(u - 1) <= budget - k
        for total_u in range(2 * m, budget - k + m + 1):
            for us in _multisets(total_u, m, 2):
                left = budget - k - total_u + m
                for total_w in range(left + 1):
                    for ws in _multisets(total_w, k, 0):
                        for vs in _compositions(left - total_w, d):
                            yield vs, ws, us


def _slots(family, d, vs, ws, us):
    """Vertices, wire sources and input slot groups (owner, code, size)."""
    verts = [vector("X%d" % (i + 1), vs[i]) for i in range(d)]
    if family.trace:
        verts.append(vector("X0", 0))
    verts += [connection(w) for w in ws]
    verts += [white(u) for u in us]
    if family.anchored:
        verts.append(anchor)
    sources = tuple(i for i, v in enumerate(verts) if v.kind != ANCHOR)
    groups = []
    for i, v in enumerate(verts):
        if v.kind == CONNECTION:
            groups.append((i, 0, 1))
            groups.append((i, 1, 1))
            if v.order:
                groups.append((i, SYM, v.order))
        elif v.kind == ANCHOR:
            groups.append((i, SYM, 1))
        elif v.order:
            groups.append((i, SYM, v.order))
    return verts, sources, groups


def _wirings(family, d, vs, ws, us):
    verts, sources, groups = _slots(family, d, vs, ws, us)
    # a connected graph with one edge per source has this many independent
    # cycles: 0 with an anchor (a tree), 1 without (one wheel)
    cycles = len(sources) - (len(verts) - 1) if family.connected else None
    verts = tuple(verts)
    whites = tuple(i for i, v in enumerate(verts) if v.kind == WHITE)
    start = start_of(verts)
    for out in _assignments(groups, sources, verts, cycles):
        cg, _ = canonicalize(Graph.from_tuples(verts, out, whites), start)
        if cg is ZERO:
            continue
        yield cg


#: The substitution plan of every (vertices, white order) met by
#: :func:`delta_graph` (see :func:`_plan`), kept as long as the process.
#: Plans are tuples, which nothing mutates.
_PLANS = {}


def _placed(tpl, v, n):
    """Per term of the rule template ``tpl`` replacing vertex v of a graph
    of n vertices: ``(internal, rest, new whites, coeff, ports, own)``.
    The internal that exports the term's output (its ``iout`` is ``OUT``)
    takes v's id, and the ``rest`` of the internals take n, n + 1, ... in
    their order in the term.  ``new whites`` are the ids of the internal
    whites in rank order; ``ports`` gives, per boundary port of v, the
    ``(id, slot)`` it enters and ``own`` the out-edges of the rest, in id
    order."""
    terms = []
    for term in tpl.terms:
        iout = term.iout
        jout = iout.index(OUT)
        ids = [v if j == jout else n + j - (j > jout)
               for j in range(len(iout))]
        internals = term.internals
        ranked = sorted((r, ids[j]) for j, r in enumerate(term.ranks)
                        if r is not None)
        terms.append((
            internals[jout], internals[:jout] + internals[jout + 1:],
            tuple(w for _, w in ranked), term.coeff,
            tuple((ids[j], s) for j, s in term.ports),
            tuple((ids[t[0]], t[1]) for t in iout if t != OUT)))
    return terms


def _plan(verts, order):
    """What the differential of a graph with vertex tuple ``verts`` and
    white order ``order`` does without reading its edges: per replaced
    vertex v, ``(v, nbase, rows)`` with ``nbase`` v's number of ordered
    base slots and one row per rule term.

    A term keeps the graph's vertex ids: v's id goes to the internal that
    exports the output and the other internals take n, n + 1, ...
    (:func:`_placed`).  A row is ``(vertices, white order, eps * coeff,
    ports, own, start)``: the term's vertex tuple; its white order, the
    internal whites in rank order spliced where v stood, or ahead of all
    for a non-white v; per boundary port of v, the ``(id, slot)`` it
    enters, and the out-edges of the other internals; and the canonical
    start of the vertex tuple (:func:`natops.canonical.start_of`)."""
    plan = []
    n = len(verts)
    for v, vv in enumerate(verts):
        if vv.kind == ANCHOR:
            continue
        tpl = rule_for(vv)
        if not tpl.terms:
            continue
        if vv.kind == WHITE:
            at = order.index(v)
            eps = -1 if at & 1 else 1
            before, after = order[:at], order[at + 1:]
        else:
            eps, before, after = 1, (), order
        head, tail = verts[:v], verts[v + 1:]
        rows = []
        for internal, rest, new, coeff, ports, own in _placed(tpl, v, n):
            tverts = head + (internal,) + tail + rest
            rows.append((tverts, before + new + after, eps * coeff, ports,
                         own, start_of(tverts)))
        plan.append((v, 2 if vv.kind == CONNECTION else 0, tuple(rows)))
    return tuple(plan)


def delta_graph(g):
    """Differential of a single graph presentation, as a formal sum.

    Each term substitutes a rule term for one vertex ``v`` and keeps every
    other vertex's id: the internal that exports the output takes v's id,
    so v's own out-edge stays as it is, and the other internals take ids
    from n on.  The edges into ``v`` go to the internal slots of their
    boundary ports, which are v's ordered base slots, then its symmetric
    inputs by source.  What does not depend on the edges comes from the
    plan of the graph's vertex tuple and white order (:func:`_plan`).  Per
    graph, the in-edges are collected once; per term, the out-map is
    copied, the edges into v rewritten (v's own too when it loops), the
    internals' edges appended, and the term goes to :func:`canonicalize`
    with its plan's start, built by ``Graph.from_tuples``, and is added
    straight into the result by :meth:`FormalSum.add_canonical`.
    """
    out = FormalSum()
    add = out.add_canonical
    verts, gout = g.vertices, g.out
    key = (verts, g.white_order)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _plan(*key)
    make = Graph.from_tuples
    ins = g.in_edges()
    for v, nbase, rows in plan:
        port = nbase  # the next symmetric input's boundary port
        into = []  # (source, boundary port) of the edges entering v
        loop = None  # v's boundary port fed by v itself
        for src, slot in ins[v]:
            if slot == SYM:
                p, port = port, port + 1
            else:
                p = slot
            if src == v:
                loop = p
            else:
                into.append((src, p))
        for tverts, whites, c, ports, own, start in rows:
            edges = [*gout, *own]
            for src, p in into:
                edges[src] = ports[p]
            if loop is not None:
                edges[v] = ports[loop]
            cg, sign = canonicalize(make(tverts, tuple(edges), whites), start)
            if cg is not ZERO:
                add(cg, sign * c)
    return out


def differential(x, memo=None):
    """Differential of a formal sum; input must be degree-homogeneous.
    With a dict ``memo``, each graph's differential is read from it or
    kept there, as :func:`delta_graph_cached` does."""
    x = as_sum(x)
    degrees = {g.degree for g, _ in x}
    if len(degrees) > 1:
        raise ValueError("mixed-degree input to differential")
    out = FormalSum()
    for g, c in x:
        dg = delta_graph(g) if memo is None else delta_graph_cached(g, memo)
        add_into(out.terms, dg.terms, c)
    return out


def delta_graph_cached(g, memo):
    """The differential of a canonical graph, from the dict ``memo`` or
    made by :func:`delta_graph` and kept there.  The sums it returns are
    shared with every later call on the same memo, so its caller must
    not change them."""
    hit = memo.get(g)
    if hit is None:
        hit = memo[g] = delta_graph(g)
    return hit


D2Report = namedtuple("D2Report", ["family", "d", "checked", "failures"])


def d_squared_zero(family, d):
    """Check delta(delta(G)) = 0 on the basis graphs of degrees 0 and 1.

    Each residue is added up in one dict straight from the differentials
    of G and of its terms.  A degree-1 or degree-2 graph is a term of many
    differentials, so each differential is made once, in a memo that lives
    as long as this call and holds only what is read again.  A degree-0
    differential is read once and never kept.  A degree-1 graph's, kept
    since the graph first came up as a term, is taken out of the memo when
    its own residue is summed; every degree-1 term is a basis graph, so on
    return the memo holds degree-2 differentials alone."""
    family = as_family(family)
    failures = []
    checked = 0
    memo = {}
    for m in (0, 1):
        for g in enumerate_basis(family, d, m).graphs:
            dg = memo.pop(g, None)
            if dg is None:
                dg = delta_graph(g)
            r = FormalSum()
            acc = r.terms
            for h, c in dg:
                add_into(acc, delta_graph_cached(h, memo).terms, c)
            checked += 1
            if r:
                failures.append((g, r))
    return D2Report(family.name, d, checked, failures)

