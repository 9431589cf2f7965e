"""Graph families, graded bases, and the differential.

The degree of a graph is its number of white vertices.  The differential
replaces one vertex at a time according to :mod:`natops.rules` and splices
the freshly created white vertices into the orientation order:

* replacing a field/connection/anchor-side vertex makes the new white the
  minimal element, with sign +1;
* replacing the white at position i (1-based) of the orientation order
  carries sign (-1)**(i+1), and the new whites take its place in rank
  order (the wider parent white first; see :func:`natops.rules.replace_white`).

Of that work only the edges differ between graphs with one vertex tuple and
one white order: which rule replaces each vertex, the sign, the spliced
white order and the vertex tuple of each term are a plan, worked out once
per (vertices, white order) and kept in ``_PLANS`` for the life of the
process, as the differential's cache is.  A plan holds references: one
vertex tuple and one white order per distinct value, and the rule's own
terms.

A basis slice is dealt out as wirings, one source per input slot.  In a
connected family a partial wiring is dropped as soon as its edges close
more cycles than a connected graph of the slice holds: with one edge per
source, that is ``#sources - (#vertices - 1)``, 0 for an anchored slice (a
tree) and 1 for an anchor-free one (one wheel).  Every wiring that is dealt
in full is then connected, and no disconnected one is built.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import factorial

from .canonical import ZERO, canonicalize, key_bytes
from .formal import FormalSum
from .graphs import (  # noqa: F401  (the families are re-exported here)
    ANCHOR,
    BULLET,
    BULLET_CONNECTED,
    BULLET_NABLA,
    BULLET_NABLA1,
    BULLET_NABLA_TRACE,
    BULLET_NABLA_WHEEL,
    BULLET_WHEEL,
    CONNECTION,
    EMPTY,
    FAMILIES,
    SYM,
    VECTOR,
    WHITE,
    Family,
    Graph,
    anchor,
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


def _assignments(groups, sources, n, cycles=None):
    """Fill slot groups with distinct sources, one source per slot.

    ``groups`` is a list of (owner, slotcode, size); symmetric groups take
    unordered source subsets.  Yields the out-arrays (length ``n``, None
    where no source sits) of the wirings, as tuples.  With ``cycles`` set,
    only the wirings of connected graphs with that many independent
    cycles: a partial wiring is dropped as soon as its edges close more.
    """
    comp = None if cycles is None else list(range(n))
    yield from _fill(groups, sources, [None] * n, comp, cycles)


def _fill(groups, sources, out, comp, spare):
    # every leaf has dealt out all sources, so ``out`` is overwritten
    # along each path and never needs resetting.  ``comp`` labels the
    # components of the edges dealt so far (None: no pruning), and
    # ``spare`` is the number of cycles they may still close; ``comp`` is
    # replaced, never mutated, so siblings share their parent's.
    if not groups:
        yield tuple(out)
        return
    (owner, code, size), rest = groups[0], groups[1:]
    tgt = (owner, code)
    for chosen in itertools.combinations(sources, size):
        sub, left = comp, spare
        if comp is not None:
            root = comp[owner]
            for s in chosen:
                c = sub[s]
                if c == root:
                    left -= 1
                else:
                    sub = [root if x == c else x for x in sub]
            if left < 0:
                continue
        for s in chosen:
            out[s] = tgt
        remaining = tuple(s for s in sources if s not in chosen)
        yield from _fill(rest, remaining, out, sub, left)


def enumerate_basis(family, d, m):
    """Complete deterministic basis of canonical graphs for (family, d, m).

    Generation runs over every vertex-arity multiset allowed by the port
    balance  sum(v) + sum(w) + #conn + sum(u-1) = #fields - [anchor],
    then over all wirings, deduplicated through canonical forms.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
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
    if isinstance(family, str):
        family = FAMILIES[family]
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
        for us in _multisets_white(budget - k, m):
            left = budget - k - sum(u - 1 for u in us)
            for total_w in range(left + 1):
                for ws in _multisets(total_w, k, 0):
                    for vs in _compositions(left - total_w, d):
                        yield vs, ws, us


def _multisets_white(budget, m):
    # white arities: m parts, each >= 2, sum(u-1) <= budget
    if budget < 0:
        return
    for total in range(2 * m, budget + m + 1):
        for us in _multisets(total, m, 2):
            yield us


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
    total_slots = sum(g[2] for g in groups)
    if total_slots != len(sources):
        return
    # a connected graph with one edge per source has this many independent
    # cycles: 0 with an anchor (a tree), 1 without (one wheel)
    cycles = len(sources) - (len(verts) - 1) if family.connected else None
    verts = tuple(verts)
    whites = tuple(i for i, v in enumerate(verts) if v.kind == WHITE)
    for out in _assignments(groups, sources, len(verts), cycles):
        cg, _ = canonicalize(Graph.from_tuples(verts, out, whites))
        if cg is ZERO:
            continue
        yield cg


_DELTA_CACHE = {}

#: The substitution plan of every (vertices, white order) met by
#: :func:`delta_graph` (see :func:`_plan`), kept as long as the process
#: (as the differential's cache is).  Plans are tuples, which nothing
#: mutates.
_PLANS = {}


def delta_graph_cached(g):
    """Memoized differential of a canonical graph (treat as read-only)."""
    hit = _DELTA_CACHE.get(g)
    if hit is None:
        hit = _DELTA_CACHE[g] = delta_graph(g)
    return hit


def _plan(verts, order):
    """What the differential of a graph with vertex tuple ``verts`` and
    white order ``order`` does without reading its edges: per replaced
    vertex v, ``(v, nbase, terms)`` with ``nbase`` v's number of ordered
    base slots and, per rule term, ``(vertices, white order, eps * coeff,
    term)``.  The term's vertices are the kept ones, then its internals;
    its white order splices the internal whites, in rank order, where v
    stood, or ahead of all for a non-white v.  Equal vertex tuples and
    white orders of one plan are one object each."""
    plan = []
    shared = {}
    base = len(verts) - 1  # id of a term's first internal vertex
    order = list(order)
    for v, vv in enumerate(verts):
        if vv.kind == ANCHOR:
            continue
        tpl = rule_for(vv)
        if not tpl.terms:
            continue
        if vv.kind == WHITE:
            at = order.index(v)
            eps = -1 if at & 1 else 1
            kept = order[:at] + order[at + 1:]
        else:
            at, eps, kept = 0, 1, order
        kept = [w if w < v else w - 1 for w in kept]
        kept_verts = verts[:v] + verts[v + 1:]
        terms = []
        for term in tpl.terms:
            tverts = kept_verts + term.internals
            ranked = sorted((r, base + j) for j, r in enumerate(term.ranks)
                            if r is not None)
            whites = tuple(kept[:at] + [w for _, w in ranked] + kept[at:])
            terms.append((shared.setdefault(tverts, tverts),
                          shared.setdefault(whites, whites),
                          eps * term.coeff, term))
        plan.append((v, 2 if vv.kind == CONNECTION else 0, tuple(terms)))
    return tuple(plan)


def delta_graph(g):
    """Differential of a single graph presentation, as a formal sum.

    Each term substitutes a rule term for one vertex ``v``: the term's
    internal vertices take ids from n - 1 on, the edges into ``v`` go to
    the internal slots of their boundary ports, and ``v``'s own out-edge
    leaves from the internal vertex the term marks ``OUT``.  The boundary
    ports of ``v`` are its ordered base slots, then its symmetric inputs by
    source.  What does not depend on the edges comes from the plan of the
    graph's vertex tuple and white order; the ports and every edge away
    from ``v`` are worked out once per vertex, and each term goes to
    :func:`canonicalize` built by ``Graph.from_tuples`` and is added
    straight into the result's ``terms``.
    """
    out = FormalSum()
    terms = out.terms
    verts, gout = g.vertices, g.out
    key = (verts, g.white_order)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _plan(*key)
    base = len(verts) - 1
    for v, nbase, rows in plan:
        port = nbase  # the next symmetric input's boundary port
        fixed = []  # out-edges of the kept vertices, None where one enters v
        into = []  # (index in fixed, boundary port) of the edges entering v
        for i, e in enumerate(gout):
            if e is None:
                if i != v:
                    fixed.append(None)
            elif e[0] != v:
                if i != v:
                    fixed.append((e[0] if e[0] < v else e[0] - 1, e[1]))
            else:
                if e[1] == SYM:
                    p, port = port, port + 1
                else:
                    p = e[1]
                if i == v:
                    loop = p
                else:
                    into.append((len(fixed), p))
                    fixed.append(None)
        dst, slot = gout[v]
        leave = None if dst == v else (dst if dst < v else dst - 1, slot)
        for tverts, whites, c, term in rows:
            ports = term.ports
            edges = fixed[:]
            for k, p in into:
                j, s = ports[p]
                edges[k] = (base + j, s)
            for tgt in term.iout:
                if tgt != OUT:
                    edges.append((base + tgt[0], tgt[1]))
                elif leave is not None:
                    edges.append(leave)
                else:
                    j, s = ports[loop]
                    edges.append((base + j, s))
            cg, sign = canonicalize(Graph.from_tuples(
                tverts, tuple(edges), whites))
            if cg is not ZERO:
                x = terms.get(cg, 0) + sign * c
                if x:
                    terms[cg] = x
                else:
                    terms.pop(cg, None)
    return out


def differential(x, family=None, d=None):
    """Differential of a formal sum; input must be degree-homogeneous."""
    if isinstance(x, Graph):
        x = FormalSum.of(x)
    degrees = {g.degree for g, _ in x}
    if len(degrees) > 1:
        raise ValueError("mixed-degree input to differential")
    if family is not None and d is not None:
        fam = FAMILIES[family] if isinstance(family, str) else family
        for g, _ in x:
            if not member(fam, g, d):
                raise ValueError("graph outside family %s" % fam.name)
    out = FormalSum()
    for g, c in x:
        for cg, coeff in delta_graph_cached(g):
            out.add_canonical(cg, c * coeff)
    return out


D2Report = namedtuple("D2Report", ["family", "d", "checked", "failures"])


def d_squared_zero(family, d, degrees=(0, 1)):
    """Check delta(delta(G)) = 0 on basis graphs of the given degrees."""
    if isinstance(family, str):
        family = FAMILIES[family]
    failures = []
    checked = 0
    for m in degrees:
        for g in enumerate_basis(family, d, m).graphs:
            r = differential(differential(FormalSum({g: 1})))
            checked += 1
            if r:
                failures.append((g, r))
    return D2Report(family.name, d, checked, failures)


def nabla_bigrade_split(g):
    """Split delta(G) by connection count: returns (same, minus_one).

    Raises if any term changes the connection count by another amount.
    """
    k = g.count(CONNECTION)
    same, less = FormalSum(), FormalSum()
    for cg, c in delta_graph(g):
        dk = cg.count(CONNECTION) - k
        if dk == 0:
            same.add_canonical(cg, c)
        elif dk == -1:
            less.add_canonical(cg, c)
        else:
            raise AssertionError("term changes connection count by %d" % dk)
    return same, less
