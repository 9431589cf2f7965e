"""Shared test helpers: canonical small graphs, presentation shuffles, the
reference canonical form, the reference differential, the connection-count
split of the differential, the rule template check, the reference dealer
of wirings with its basis, run keys and connectivity filter, the
reference sparse elimination (the least-column Gauss-Jordan Fraction
elimination natops.linalg replaced), a dense one and the matrix inverse
over Q, the coordinates of a sum in a slice and the exact span test, the
derived connection rules, the realization state sum, the
reference polynomial layer, the composition and identity of coordinate
changes, the reference jet transformation law, the dual-number flow
derivative, the truncated
power series over Q with the EGF of natops.genfun's sequence, the
generating-function cross-checks (the rooted-tree recursion, series
composition and the quadratic-dual identity), the
reference basis-slice encoder and graph keys, the reference operad
insertion and trace, the reference components and cycles of a graph, the
wheel-length block check of the differential, and the reference initial
partition of a vertex tuple."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from natops import homology, io
from natops.canonical import ZERO, canonicalize, key_bytes
from natops.complexes import _arities, _slots, delta_graph
from natops.formal import FormalSum, add_into
from natops.genfun import g_functional
from natops.graphs import (
    ANCHOR,
    CONNECTION,
    EMPTY,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    Vertex,
    anchor,
    as_family,
    connection,
    cycles,
    vector,
)
from natops.jets import (
    CoordinateChange,
    JetData,
    Tensor,
    _clear,
    _exps_of,
    _fact_of_exps,
    jet_order,
)
from natops.linalg import Elimination, rank
from natops.operad import arity
from natops.oracle import derive_connection_rule
from natops.rules import OUT, rule_for


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


# The reference canonical form: colour refinement re-ranking every vertex
# each round, and the search over every discrete refinement with no
# pruning.  natops.canonical.canonicalize is checked against it.


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


def reference_canonicalize(g):
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


def reference_key_bytes(cg):
    """The byte-string key of a canonical graph, formatted afresh for every
    vertex.  natops.canonical.key_bytes, which joins memoized pieces, is
    checked against it."""
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


def reference_start(verts):
    """The initial partition of a vertex tuple, with every vertex's colour
    key ``(kind, order, label or "")`` built afresh.
    natops.canonical.start_of, which keys each distinct vertex once, is
    checked against it."""
    n = len(verts)
    init = [(v.kind, v.order, v.label or "") for v in verts]
    inv = sorted(range(n), key=init.__getitem__)
    colors = [0] * n
    cells = []
    start = 0
    for p in range(1, n + 1):
        if p == n or init[inv[p]] != init[inv[start]]:
            if p - start > 1:
                cells.append(tuple(inv[start:p]))
            for i in inv[start:p]:
                colors[i] = start
            start = p
    colors = tuple(colors)
    cverts = tuple([verts[i] for i in inv])
    if any(verts[i] != verts[cell[0]] for cell in cells for i in cell):
        cverts = None
    return colors, tuple(cells), None if cells else colors, cverts


# --- the reference differential ----------------------------------------
# One Graph per term, canonicalized by FormalSum.add_graph.
# natops.complexes.delta_graph is checked against it.


def _port_map(g, v):
    """Deterministic boundary-port order for the inputs of vertex ``v``."""
    ins = [(src, e[1]) for src, e in enumerate(g.out)
           if e is not None and e[0] == v]
    vv = g.vertices[v]
    if vv.kind == CONNECTION:
        b0 = sorted(e for e in ins if e[1] == 0)
        b1 = sorted(e for e in ins if e[1] == 1)
        syms = sorted(e for e in ins if e[1] == SYM)
        ordered = b0 + b1 + syms
    else:
        ordered = sorted(ins)
    return {e: p for p, e in enumerate(ordered)}


def _instantiate(g, v, term):
    """Substitute a rule term for vertex ``v``; returns (vertices, out, white_ids).

    ``white_ids`` lists the new ids of the term's internal whites by rank.
    The caller supplies the orientation order.
    """
    n = len(g.vertices)
    port_of = _port_map(g, v)

    def newidx(i):
        return i if i < v else i - 1

    def internal_idx(j):
        return n - 1 + j

    def resolve_out():
        dst, slot = g.out[v]
        if dst == v:
            p = port_of[(v, slot)]
            j, s2 = term.ports[p]
            return (internal_idx(j), s2)
        return (newidx(dst), slot)

    verts = tuple(g.vertices[i] for i in range(n) if i != v) + term.internals
    out = []
    for i in range(n):
        if i == v:
            continue
        e = g.out[i]
        if e is None:
            out.append(None)
        elif e[0] == v:
            j, s2 = term.ports[port_of[(i, e[1])]]
            out.append((internal_idx(j), s2))
        else:
            out.append((newidx(e[0]), e[1]))
    for j, tgt in enumerate(term.iout):
        if tgt == OUT:
            out.append(resolve_out())
        else:
            out.append((internal_idx(tgt[0]), tgt[1]))
    ranked = sorted(
        (term.ranks[j], internal_idx(j))
        for j in range(len(term.internals))
        if term.ranks[j] is not None
    )
    return verts, tuple(out), [w for _, w in ranked]


def reference_delta_graph(g):
    """Differential of a single graph presentation, as a formal sum."""
    out = FormalSum()
    order = list(g.white_order)
    for v, vv in enumerate(g.vertices):
        if vv.kind == ANCHOR:
            continue
        tpl = rule_for(vv)
        if not tpl.terms:
            continue
        if vv.kind == WHITE:
            i = order.index(v)
            eps = -1 if i & 1 else 1
            kept = order[:i] + order[i + 1:]
            at = i
        else:
            eps = 1
            kept = order
            at = 0
        for term in tpl.terms:
            verts, outmap, new_whites = _instantiate(g, v, term)

            def nid(x, v=v):
                return x if x < v else x - 1

            spliced = (
                [nid(w) for w in kept[:at]]
                + new_whites
                + [nid(w) for w in kept[at:]]
            )
            out.add_graph(Graph(verts, outmap, spliced), eps * term.coeff)
    return out


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


# --- the template check ------------------------------------------------
# Every rule template a command can build is checked by it in the tests.


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


# --- the reference dealer and connectivity filter ----------------------
# The dealer natops.complexes._assignments replaced: every wiring, with no
# swap of equal vertices left out, pruned by a component-label list copied
# at each merge.  Its cycle bound is checked against the unpruned fill
# followed by the filter below.


def reference_assignments(groups, sources, n, cycles=None):
    """Fill slot groups with distinct sources, one source per slot.

    ``groups`` is a list of (owner, slotcode, size); symmetric groups take
    unordered source subsets.  Yields the out-arrays (length ``n``, None
    where no source sits) of the wirings, as tuples.  With ``cycles`` set,
    only the wirings of connected graphs with that many independent
    cycles: a partial wiring is dropped as soon as its edges close more.
    """
    comp = None if cycles is None else list(range(n))
    yield from _reference_fill(groups, sources, [None] * n, comp, cycles)


def _reference_fill(groups, sources, out, comp, spare):
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
        yield from _reference_fill(rest, remaining, out, sub, left)


def reference_basis(family, d, m):
    """The graphs of ``enumerate_basis(family, d, m)`` as the reference
    dealer builds them: every wiring (every connected one in a connected
    family) canonicalized, deduplicated and sorted by key."""
    family = as_family(family)
    found = {EMPTY} if not family.anchored and d == m == 0 else set()
    for vs, ws, us in _arities(family, d, m):
        verts, sources, groups = _slots(family, d, vs, ws, us)
        cycles = len(sources) - (len(verts) - 1) if family.connected else None
        whites = tuple(i for i, v in enumerate(verts) if v.kind == WHITE)
        for out in reference_assignments(groups, sources, len(verts), cycles):
            found.add(canonicalize(Graph(verts, out, whites))[0])
    found.discard(ZERO)
    return tuple(sorted(found, key=key_bytes))


def run_keys_rise(verts, groups, out):
    """Do the run keys of the wiring ``out`` not decrease?  A run is a
    stretch of equal vertices; a member's key is, per slot group in
    ``groups`` order, the sorted sources dealt into it, each written as
    the first vertex equal to it."""
    first = [verts.index(v) for v in verts]
    keys = {}
    for owner, code, _ in groups:
        dealt = sorted(first[s] for s, e in enumerate(out)
                       if e == (owner, code))
        keys.setdefault(owner, []).append(dealt)
    return all(keys[i - 1] <= keys[i] for i in keys if first[i] != i)


def reference_connected(out):
    """Is the graph of the out-array ``out`` weakly connected?  Union-find
    over its edges; connected when they merge the vertices into one set."""
    parent = list(range(len(out)))
    merged = 0
    for a, e in enumerate(out):
        if e is None:
            continue
        b = e[0]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            merged += 1
    return merged >= len(out) - 1


def _as_dict(row):
    """A {col: value} mapping as a new sparse row without its zeros."""
    return {c: x for c, x in row.items() if x}


class Echelon:
    """Fully reduced sparse pivot rows over Q, keyed by pivot column."""

    def __init__(self, rows=()):
        self.rows = {}
        for row in sorted(map(_as_dict, rows), key=len):
            self.add(row)

    def reduce(self, row):
        """``row`` minus its components along the pivot rows (a new dict)."""
        out = _as_dict(row)
        # pivot rows vanish on every other pivot column, so one pass suffices
        for c in [c for c in out if c in self.rows]:
            add_into(out, self.rows[c], -out[c])
        return out

    def add(self, row):
        """Reduce ``row`` in; it adds a pivot row unless it reduces to 0."""
        r = self.reduce(row)
        if not r:
            return
        lead = min(r)
        inv = 1 / Fraction(r[lead])
        r = {k: v * inv for k, v in r.items()}
        for p in self.rows.values():
            f = p.get(lead)
            if f:
                add_into(p, r, -f)
        self.rows[lead] = r


def reference_nullspace(rows, ncols):
    """Reduced basis of the right kernel of sparse rows over ``ncols``
    columns, read off :class:`Echelon`: one sparse vector {col: Fraction}
    per free column, in column order, holding its nonzeros in column order.

    A pivot row c is zero left of c and on every other pivot column, so
    its entries past c sit on free columns f > c and give the entry -r[f]
    of f's vector at c; walking the columns in order writes each vector's
    pivot entries, then its own 1.
    """
    pivots = Echelon(rows).rows
    basis = {f: {} for f in range(ncols) if f not in pivots}
    for c in range(ncols):
        if c in basis:
            basis[c][c] = Fraction(1)
            continue
        for f, x in pivots[c].items():
            if f != c:
                basis[f][c] = -x
    return list(basis.values())


def assert_same_kernel(got, want):
    """``got`` is the kernel basis ``want`` of :func:`reference_nullspace`
    vector for vector, with its key order and values, each vector on ints
    when all its values are integers and on Fractions otherwise."""
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
    for v, w in zip(got, want):
        kind = int if all(y.denominator == 1 for y in w.values()) else Fraction
        assert all(type(x) is kind for x in v.values())


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
    for r, row in mat.rows.items():
        for c, v in row.items():
            rows[r][c] = Fraction(v)
    return rows


def dense_vector(vec, n):
    """A sparse {index: value} vector as a dense Fraction list."""
    return [Fraction(vec.get(i, 0)) for i in range(n)]


def dense_coordinates(x, basis_slice):
    """Reference coordinates of a formal sum as a dense list over the slice."""
    coeff = dict(x)
    return [Fraction(coeff.get(g, 0)) for g in basis_slice.graphs]


def coordinates(x, basis_slice):
    """Sparse coordinates {index: coeff} of a formal sum in a basis slice."""
    index = {g: i for i, g in enumerate(basis_slice.graphs)}
    vec = {}
    for g, c in x:
        i = index.get(g)
        if i is None:
            raise homology.BasisIncompleteError("term outside slice")
        vec[i] = c
    return vec


def spans(vectors, others):
    """Do ``vectors`` span every vector in ``others`` (exact)?"""
    elimination = Elimination(vectors)
    return not any(elimination.reduce(o) for o in others)


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
        plan.append((arr.data, (edge_of_src[i],) + base, into[SYM]))
    free = [k for k in range(len(edges)) if k != anchor_edge]

    def total(out_index):
        acc = Fraction(0)
        idx = [out_index] * len(edges)
        for assign in itertools.product(range(data.n), repeat=len(free)):
            for k, i in zip(free, assign):
                idx[k] = i
            term = Fraction(1)
            for values, fixed, syms in plan:
                key = (tuple(idx[k] for k in fixed)
                       + tuple(sorted(idx[k] for k in syms)))
                term = term * values.get(key, 0)
                if not term:
                    break
            acc += term
        return acc

    if anchor_edge is None:
        return total(0)
    return [total(a) for a in range(data.n)]


# The reference polynomial layer: dicts {exponent tuple: exact value},
# every coefficient its own Fraction (or dual number).  natops.jets works
# on integer numerators over one denominator and packed exponents, and is
# checked against these.


def p_zero():
    return {}


def p_const(n, c):
    return {(0,) * n: c} if c else {}


def p_var(n, j):
    e = [0] * n
    e[j] = 1
    return {tuple(e): Fraction(1)}


def p_add_into(acc, p, c=1):
    for e, v in p.items():
        w = acc.get(e, 0) + v * c
        if w:
            acc[e] = w
        else:
            acc.pop(e, None)
    return acc


def p_mul(a, b, trunc):
    out = {}
    bitems = sorted(((sum(eb), eb, vb) for eb, vb in b.items()),
                    key=lambda t: t[0])
    for ea, va in a.items():
        room = trunc - sum(ea)
        for db, eb, vb in bitems:
            if db > room:
                break
            e = tuple(x + y for x, y in zip(ea, eb))
            w = out.get(e, 0) + va * vb
            if w:
                out[e] = w
            else:
                out.pop(e, None)
    return out


def p_diff(a, j):
    out = {}
    for e, v in a.items():
        if e[j]:
            e2 = list(e)
            e2[j] -= 1
            out[tuple(e2)] = v * e[j]
    return out


def mat_inv(rows):
    """Inverse of a square matrix over Q, read off the reduced echelon form
    of [A | I] in column order: A is invertible exactly when each of its n
    columns holds a pivot, and pivot row c then ends in row c of A^-1.
    Raises ZeroDivisionError when the matrix is singular.
    """
    n = len(rows)
    pivots = Elimination([{**dict(enumerate(row)), n + i: 1}
                          for i, row in enumerate(rows)], key=int).reduced()
    if any(c not in pivots for c in range(n)):
        raise ZeroDivisionError("singular matrix")
    return [[Fraction(pivots[c].get(n + j, 0), pivots[c][c])
             for j in range(n)] for c in range(n)]


class Substitution:
    """Composition with the map ``comps``, truncated above total degree
    ``trunc``; each monomial comps^e is multiplied up once and cached."""

    def __init__(self, comps, n, trunc):
        self.comps = comps
        self.trunc = trunc
        self.monos = {(0,) * n: p_const(n, 1)}

    def mono(self, e):
        m = self.monos.get(e)
        if m is None:
            j = next(j for j, k in enumerate(e) if k)
            lower = e[:j] + (e[j] - 1,) + e[j + 1:]
            m = self.monos[e] = p_mul(self.mono(lower), self.comps[j], self.trunc)
        return m

    def __call__(self, a):
        out = {}
        for e, v in a.items():
            if sum(e) <= self.trunc:
                p_add_into(out, self.mono(e), v)
        return out


def map_inverse(F, n, trunc):
    """Compositional inverse of a map with invertible linear part."""
    Ainv = mat_inv([[F[a].get(_exps_of((j,), n), 0) for j in range(n)]
                    for a in range(n)])
    lin = [p_zero() for _ in range(n)]
    for a in range(n):
        for j in range(n):
            if Ainv[a][j]:
                p_add_into(lin[a], p_var(n, j), Ainv[a][j])
    high = []
    for a in range(n):
        h = dict(F[a])
        for j in range(n):
            h.pop(_exps_of((j,), n), None)
        high.append(h)
    psi = [dict(p) for p in lin]
    for _ in range(trunc - 1):
        sub = Substitution(psi, n, trunc)
        corr = [sub(h) for h in high]
        nxt = []
        for a in range(n):
            acc = dict(lin[a])
            for j in range(n):
                if Ainv[a][j] and corr[j]:
                    p_add_into(acc, corr[j], -Ainv[a][j])
            nxt.append(acc)
        psi = nxt
    return psi


def packed(comps, pk):
    """Tuple-keyed polynomial maps as ({component: polynomial}, den), the
    form natops.jets works on, packed by ``pk``."""
    return _clear({a: {pk.pack(e): v for e, v in p.items()}
                   for a, p in enumerate(comps)})


def unpacked(p, den, pk):
    """A packed polynomial over ``den`` as a tuple-keyed dict."""
    return {pk.exponents(e): Fraction(v, den) for e, v in p.items() if v}


def components(phi):
    """The tuple-keyed exact components of a coordinate change."""
    return [unpacked(phi.comps[a], phi.den, phi.pk) for a in range(phi.n)]


def identity_change(n, trunc):
    return CoordinateChange(n, trunc, [p_var(n, j) for j in range(n)])


def compose_changes(phi, chi):
    """phi after chi (phi o chi), truncated at the lower of their orders."""
    trunc = min(phi.trunc, chi.trunc)
    sub = Substitution(components(chi), phi.n, trunc)
    return CoordinateChange(phi.n, trunc, [sub(f) for f in components(phi)])


# The reference jet transformation law: fields and connection moved by
# separate code, with one compositional inverse per truncation order and
# the polynomial matrix inverse of Dphi for the connection.
# natops.jets.jet_transform is checked against it.


def _field_polys(arrays, n, trunc):
    polys = [p_zero() for _ in range(n)]
    for v, arr in enumerate(arrays):
        if v > trunc:
            break
        for key, val in arr.data.items():
            e = _exps_of(key[1:], n)
            p_add_into(polys[key[0]], {e: Fraction(val) / _fact_of_exps(e)})
    return polys


def _conn_polys(arrays, n, trunc):
    polys = {}
    for w, arr in enumerate(arrays):
        if w > trunc:
            break
        for key, val in arr.data.items():
            e = _exps_of(key[3:], n)
            p_add_into(polys.setdefault(key[:3], p_zero()),
                       {e: val / _fact_of_exps(e)})
    return polys


def _polys_arrays(polys, n, nfixed, order, tensor):
    """The arrays of orders 0..order, each made by ``tensor(n, nfixed,
    v, values)`` from its entries {key: value}."""
    values = [{} for _ in range(order + 1)]
    for fixed, p in polys.items():
        for e, c in p.items():
            v = sum(e)
            if v > order:
                continue
            sym = tuple(sorted(sum(([i] * k for i, k in enumerate(e)), [])))
            values[v][fixed + sym] = c * _fact_of_exps(e)
    return [tensor(n, nfixed, v, vals) for v, vals in enumerate(values)]


def _poly_mat_inverse(M, n, trunc):
    """Inverse of a polynomial matrix whose constant part is invertible."""
    zero = (0,) * n
    C = [[M[i][j].get(zero, 0) for j in range(n)] for i in range(n)]
    Cinv = mat_inv(C)
    N = [[{e: v for e, v in M[i][j].items() if e != zero} for j in range(n)]
         for i in range(n)]
    # Z = (sum_k (-Cinv N)^k) Cinv
    CN = [[p_zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if Cinv[i][k] and N[k][j]:
                    p_add_into(CN[i][j], N[k][j], -Cinv[i][k])
    term = [[p_const(n, 1) if i == j else p_zero() for j in range(n)]
            for i in range(n)]
    acc = [[dict(term[i][j]) for j in range(n)] for i in range(n)]
    for _ in range(trunc):
        nxt = [[p_zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if term[i][k] and CN[k][j]:
                        p_add_into(nxt[i][j], p_mul(term[i][k], CN[k][j], trunc))
        term = nxt
        if not any(any(t for t in row) for row in term):
            break
        for i in range(n):
            for j in range(n):
                p_add_into(acc[i][j], term[i][j])
    out = [[p_zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if Cinv[k][j] and acc[i][k]:
                    p_add_into(out[i][j], acc[i][k], Cinv[k][j])
    return out


def reference_jet_transform(data, F, tensor=Tensor.from_values):
    """X'(y) = Dphi(x) X(x) and G'(y) = Dphi G(Dphi^-1, Dphi^-1) -
    D2phi(Dphi^-1, Dphi^-1), both at x = phi^-1(y), with Dphi^-1 inverted
    as a polynomial matrix in x before the composition; phi is given by
    its tuple-keyed components F (:func:`components`).  Each moved array
    is ``tensor(n, nfixed, nsym, values)`` of its entries {key: value}."""
    n, K = data.n, data.order
    subK = Substitution(map_inverse(F, n, max(K, 1)), n, K)
    J = [[p_diff(F[a], j) for j in range(n)] for a in range(n)]
    fields = {}
    for lab, arrays in data.fields.items():
        P = _field_polys(arrays, n, K)
        out = {}
        for a in range(n):
            acc = p_zero()
            for j in range(n):
                Jaj = {e: v for e, v in J[a][j].items() if sum(e) <= K}
                if Jaj and P[j]:
                    p_add_into(acc, p_mul(Jaj, P[j], K))
            out[(a,)] = subK(acc)
        fields[lab] = _polys_arrays(out, n, 1, K, tensor)
    conn = None
    if data.conn is not None:
        W = data.conn_order
        subW = Substitution(map_inverse(F, n, max(W, 1)), n, W)
        G = _conn_polys(data.conn, n, W)
        Jw = [[{e: v for e, v in J[a][j].items() if sum(e) <= W}
               for j in range(n)] for a in range(n)]
        Jinv = _poly_mat_inverse(Jw, n, W)
        hess = [[[{e: v for e, v in p_diff(J[a][j], k).items() if sum(e) <= W}
                  for k in range(n)] for j in range(n)] for a in range(n)]
        out = {}
        for a in range(n):
            # B[j][k] = sum_i J[a][i] G[i][j][k] - hess[a][j][k]
            B = [[p_zero() for _ in range(n)] for _ in range(n)]
            for j in range(n):
                for k in range(n):
                    for i in range(n):
                        g = G.get((i, j, k))
                        if g and Jw[a][i]:
                            p_add_into(B[j][k], p_mul(Jw[a][i], g, W))
                    p_add_into(B[j][k], hess[a][j][k], -1)
            # contract both lower slots with Jinv
            for b in range(n):
                Bb = [p_zero() for _ in range(n)]
                for k in range(n):
                    for j in range(n):
                        if B[j][k] and Jinv[j][b]:
                            p_add_into(Bb[k], p_mul(Jinv[j][b], B[j][k], W))
                for c in range(n):
                    acc = p_zero()
                    for k in range(n):
                        if Bb[k] and Jinv[k][c]:
                            p_add_into(acc, p_mul(Jinv[k][c], Bb[k], W))
                    if acc:
                        out[(a, b, c)] = subW(acc)
        conn = _polys_arrays(out, n, 3, W, tensor)
    return JetData(n, K, fields, conn, data.conn_order)


class Dual:
    """Rational dual numbers a + b*eps with eps^2 = 0: sums and products,
    all the reference law needs along a flow whose linear part is the
    identity, since it then divides only the data, never by the flow."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return "Dual(%s, %s)" % (self.a, self.b)


def reference_infinitesimal_action(gens, data):
    """The flow derivative by dual numbers: ``data`` moved by the reference
    law along id + eps * sum_s H_s(x, ..., x)/s!, eps^2 = 0, and read off
    as the eps parts.  The flow's linear part is the plain identity, so no
    pivot is a dual number.  natops.oracle.infinitesimal_action, which
    interpolates ordinary transforms instead, is checked against this."""
    n = data.n
    W = data.conn_order if data.conn is not None else None
    trunc = max([jet_order(data.order, W)] + [g.nsym for g in gens])
    comps = [{_exps_of((a,), n): Fraction(1)} for a in range(n)]
    for gen in gens:
        for key, val in gen.data.items():
            e = _exps_of(key[1:], n)
            p_add_into(comps[key[0]], {e: Dual(0, Fraction(val)
                                               / _fact_of_exps(e))})

    def eps(n, nfixed, nsym, values):
        return Tensor.from_values(n, nfixed, nsym,
                                  {k: v.b for k, v in values.items()
                                   if isinstance(v, Dual)})

    return reference_jet_transform(data, comps, eps)


class Series:
    """Truncated series c0 + c1 t + ... + cN t^N with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is not None:
            coeffs = (coeffs + [Fraction(0)] * (order + 1))[: order + 1]
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order):
        return cls([0], order)

    @classmethod
    def t(cls, order):
        return cls([0, 1], order)

    def __getitem__(self, k):
        return self.coeffs[k] if k <= self.order else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Series([self[k] + other[k] for k in range(n + 1)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Series([self[k] - other[k] for k in range(n + 1)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        return Series([other], self.order)

    def is_zero(self):
        return not any(self.coeffs)

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for k in range(1, n + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += j * self[j] * out[k - j]
            out[k] = s / k
        return Series(out)

    def __repr__(self):
        bits = ["%s t^%d" % (c, k) for k, c in enumerate(self.coeffs) if c]
        return "Series(" + (" + ".join(bits) if bits else "0") + ")"


def g_egf(N):
    """The EGF sum g_d t^d / d! through t^N, from natops.genfun's
    integer recurrence, as a Series for the residual and dual-identity
    checks."""
    return Series([0] + [Fraction(g, factorial(d))
                         for d, g in enumerate(g_functional(N), 1)])


def g_recursion(N):
    """g_1..g_N by the direct recursion (seeded with g_1 = 1), a route to
    the dimension sequence independent of natops.genfun's recurrence for
    the functional equation.

    g_{n+1}/(n+1)! collects rooted-tree contributions: compositions of n
    weighted 1/s!, plus compositions of n+1 weighted (s(s-1)-1)/s! for
    s >= 2, each composition contributing the product of g_i/i! over its
    parts.  The sum over compositions of m into s parts is built up one
    first part at a time and kept, so the whole sequence costs O(N^3)
    products.  Asserts integrality of every term of the sequence.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = {1: Fraction(1)}  # a[i] = g_i / i!
    # comp[s, m]: sum over compositions of m into s parts of prod a[part]
    comp = {(1, 1): a[1]}
    for n in range(1, N):
        m = n + 1
        # parts of m into s >= 2 pieces are at most n, so a[1..n] suffice
        for s in range(2, m + 1):
            comp[s, m] = sum((a[i] * comp[s - 1, m - i]
                              for i in range(1, m - s + 2)), Fraction(0))
        total = sum((comp[s, n] / factorial(s) for s in range(1, n + 1)),
                    Fraction(0))
        total += sum((comp[s, m] * (s * (s - 1) - 1) / factorial(s)
                      for s in range(2, m + 1)), Fraction(0))
        a[m] = comp[1, m] = total
    out = []
    for d in range(1, N + 1):
        g = a[d] * factorial(d)
        if g.denominator != 1:
            raise ArithmeticError("non-integer dimension g_%d = %s" % (d, g))
        out.append(int(g))
    return out


def series_compose(outer, inner):
    """outer(inner(t)) by Horner's rule; inner must kill the constant
    term."""
    if inner.coeffs[0]:
        raise ValueError("composition needs inner constant term zero")
    n = min(outer.order, inner.order)
    acc = Series([outer[n]], n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + Series([outer[k]], n)
    return Series(acc.coeffs, n)


def q_series(N):
    """The quadratic-dual series exp(t) - 1 + t^2."""
    t = Series.t(N)
    return t.exp() - Series([1], N) + t * t


def dual_consistency(g):
    """Check q(-g(t)) + t = 0 through the order of the EGF ``g``
    (:func:`g_egf`); returns True or raises."""
    N = g.order
    t = Series.t(N)
    r = series_compose(q_series(N), -g) + t
    if not r.is_zero():
        raise ArithmeticError("quadratic-dual identity fails: %r" % r)
    return True


def reference_slice_to_obj(bs):
    """The JSON object tree of a whole basis slice, every graph's dict
    built before any is written.  natops.io.slice_to_obj, which io.dump
    writes one graph at a time, is checked against this."""
    return {
        "schema": io.SCHEMA,
        "family": bs.family.name,
        "d": bs.d,
        "degree": bs.m,
        "graphs": [io.graph_to_obj(g) for g in bs.graphs],
        "keys": [reference_key_bytes(g).decode() for g in bs.graphs],
    }


# --- the reference operad rewrites -------------------------------------
# Insertion and the trace rewire their graphs through index maps of their
# own.  natops.operad, which builds both on natops.graphs.splice, is
# checked against them.


def reference_monomial_compose(g1, i, g2):
    """All monomials of g1 composed with g2 in slot i (labels rewritten)."""
    u = arity(g1)
    v = arity(g2)
    slot_vertex = next(
        k for k, vv in enumerate(g1.vertices)
        if vv.kind == VECTOR and vv.label == "X%d" % i
    )
    root2 = next(
        k for k, e in enumerate(g2.out)
        if e is not None and g2.vertices[e[0]].kind == ANCHOR
    )
    anchor2 = g2.out[root2][0]
    receivers = [
        k for k, vv in enumerate(g2.vertices)
        if vv.kind in (VECTOR, CONNECTION)
    ]
    in_edges = [
        (src, e[1]) for src, e in enumerate(g1.out)
        if e is not None and e[0] == slot_vertex
    ]

    # index maps: g1 keeps all vertices but slot_vertex, then g2 minus anchor
    def idx1(k):
        return k if k < slot_vertex else k - 1

    off = len(g1.vertices) - 1

    def idx2(k):
        return off + (k if k < anchor2 else k - 1)

    relabel1 = {}
    for j in range(1, u + 1):
        if j < i:
            relabel1["X%d" % j] = "X%d" % j
        elif j > i:
            relabel1["X%d" % j] = "X%d" % (j + v - 1)
    relabel2 = {"X%d" % k: "X%d" % (i + k - 1) for k in range(1, v + 1)}

    out = []
    for choice in _functions(in_edges, receivers):
        counts = {}
        for e, tgt in choice.items():
            counts[tgt] = counts.get(tgt, 0) + 1
        verts = []
        for k, vv in enumerate(g1.vertices):
            if k == slot_vertex:
                continue
            verts.append(Vertex(vv.kind, relabel1.get(vv.label, vv.label), vv.order))
        for k, vv in enumerate(g2.vertices):
            if k == anchor2:
                continue
            order = vv.order + counts.get(k, 0)
            verts.append(Vertex(vv.kind, relabel2.get(vv.label, vv.label), order))
        outmap = []
        for k, e in enumerate(g1.out):
            if k == slot_vertex:
                continue
            if e is None:
                outmap.append(None)
            elif e[0] == slot_vertex:
                outmap.append((idx2(choice[(k, e[1])]), SYM))
            else:
                outmap.append((idx1(e[0]), e[1]))
        for k, e in enumerate(g2.out):
            if k == anchor2:
                continue
            if k == root2:
                dst, slot = g1.out[slot_vertex]
                if dst == slot_vertex:
                    outmap.append((idx2(choice[(slot_vertex, slot)]), SYM))
                else:
                    outmap.append((idx1(dst), slot))
            else:
                outmap.append((idx2(e[0]), e[1]))
        out.append(Graph(tuple(verts), tuple(outmap)))
    return out


def _functions(domain, codomain):
    if not domain:
        yield {}
        return
    head, rest = domain[0], domain[1:]
    for tail in _functions(rest, codomain):
        for tgt in codomain:
            d = dict(tail)
            d[head] = tgt
            yield d


def reference_trace_map(g):
    """Splice out the anchor and the order-0 vertex labelled X0, closing
    the freed input and output into one edge (a wheel)."""
    x0 = None
    anc = None
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
    dst, slot = g.out[x0]
    removed = sorted((x0, anc))

    def idx(k):
        return k - sum(1 for r in removed if r < k)

    if feeder == x0:
        if dst != anc:
            raise ValueError("malformed trace graph")
        verts = tuple(v for k, v in enumerate(g.vertices) if k not in removed)
        outmap = tuple(
            (idx(e[0]), e[1]) if e is not None else None
            for k, e in enumerate(g.out) if k not in removed
        )
        return Graph(verts, outmap,
                     tuple(idx(w) for w in g.white_order))
    verts = tuple(v for k, v in enumerate(g.vertices) if k not in removed)
    outmap = []
    for k, e in enumerate(g.out):
        if k in removed:
            continue
        if k == feeder:
            outmap.append((idx(dst), slot))
        elif e is None:
            outmap.append(None)
        else:
            outmap.append((idx(e[0]), e[1]))
    return Graph(verts, tuple(outmap), tuple(idx(w) for w in g.white_order))


# The reference components and cycles of a graph: a union-find over the
# edges, a walk from every vertex for the vertices on cycles (quadratic in
# the vertices), and the cycles listed from those.  natops.graphs._walks is
# checked against them.


def reference_component_ids(g):
    n = len(g.vertices)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for src, e in enumerate(g.out):
        if e is not None:
            ra, rb = find(src), find(e[0])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = {}
    ids = []
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        ids.append(roots[r])
    return ids


def reference_wheel_vertices(g):
    """Every vertex lying on some directed cycle."""
    n = len(g.vertices)
    on = set()
    for start in range(n):
        seen = {}
        i = start
        steps = 0
        while i is not None and i not in seen and steps <= n:
            seen[i] = steps
            e = g.out[i]
            i = e[0] if e is not None else None
            steps += 1
        if i is not None and i in seen:
            j = i
            while True:
                on.add(j)
                j = g.out[j][0]
                if j == i:
                    break
    return on


def reference_cycles(g):
    """The directed cycles of g, each listed along its edges from its least
    vertex, in the order of their least vertices."""
    cycles = []
    left = reference_wheel_vertices(g)
    while left:
        cycle = [min(left)]
        while g.out[cycle[-1]][0] != cycle[0]:
            cycle.append(g.out[cycle[-1]][0])
        left -= set(cycle)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def wheel_length(g):
    """Number of vertices on the unique wheel of an anchor-free graph."""
    return sum(map(len, cycles(g)))


def wheel_block_injective(family, d):
    """Check the wheel-length-preserving degree-0 differential blockwise.

    For every wheel length the block of delta keeping that length must
    have full column rank; returns {wheel_length: (rank, ncols)}.  Both
    slices come from ``homology.enumerate_basis``, each enumerated once.
    """
    family = as_family(family)
    if family.anchored:
        raise ValueError("wheel blocks exist in anchor-free families only")
    src = homology.enumerate_basis(family, d, 0)
    tgt = homology.enumerate_basis(family, d, 1)
    mat = homology.delta_matrix(src, tgt)
    src_len = [wheel_length(g) for g in src.graphs]
    tgt_len = [wheel_length(g) for g in tgt.graphs]
    blocks = {wlen: {} for wlen in src_len}
    for i, row in mat.rows.items():
        for j, coeff in row.items():
            if tgt_len[i] == src_len[j]:
                blocks[src_len[j]].setdefault(i, {})[j] = coeff
    report = {}
    for wlen, rows in sorted(blocks.items()):
        r, cols = rank(rows.values()), src_len.count(wlen)
        report[wlen] = (r, cols)
        if r != cols:
            raise AssertionError(
                "wheel-length-%d block of (%s, d=%d) not injective"
                % (wlen, family.name, d))
    return report
