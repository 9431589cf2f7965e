"""Shared test helpers: canonical small graphs, presentation shuffles, the
reference canonical form, the reference differential, the reference
connectivity filter of wirings, a dense reference elimination, the derived
connection rules, the realization state sum, the reference polynomial
layer, the reference jet transformation law, the dual-number flow
derivative, the reference series solver and the reference basis-slice
encoder."""

import itertools
from fractions import Fraction
from functools import lru_cache

from natops import io
from natops.canonical import ZERO, key_bytes
from natops.formal import FormalSum
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
from natops.jets import (
    CoordinateChange,
    JetData,
    Tensor,
    _exps_of,
    _fact_of_exps,
    jet_order,
    map_linear_part,
)
from natops.linalg import mat_inv
from natops.rules import OUT, derive_connection_rule, rule_for
from natops.series import Series


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


# --- the reference connectivity filter ---------------------------------
# natops.complexes._assignments with a cycle bound is checked against the
# unpruned fill followed by this filter.


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
    Ainv = mat_inv(map_linear_part(F, n))
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


def _polys_arrays(polys, n, nfixed, order):
    arrays = [Tensor(n, nfixed, v) for v in range(order + 1)]
    for fixed, p in polys.items():
        for e, c in p.items():
            v = sum(e)
            if v > order:
                continue
            sym = tuple(sorted(sum(([i] * k for i, k in enumerate(e)), [])))
            arrays[v].set(fixed, sym, c * _fact_of_exps(e))
    return arrays


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


def reference_jet_transform(data, phi):
    """X'(y) = Dphi(x) X(x) and G'(y) = Dphi G(Dphi^-1, Dphi^-1) -
    D2phi(Dphi^-1, Dphi^-1), both at x = phi^-1(y), with Dphi^-1 inverted
    as a polynomial matrix in x before the composition."""
    n, K = data.n, data.order
    F = phi.comps
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
        fields[lab] = _polys_arrays(out, n, 1, K)
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
        conn = _polys_arrays(out, n, 3, W)
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
    pivot is a dual number.  natops.jets.infinitesimal_action, which
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
    moved = reference_jet_transform(data, CoordinateChange(n, trunc, comps))

    def eps(t):
        return Tensor(t.n, t.nfixed, t.nsym,
                      {k: v.b for k, v in t.data.items()
                       if isinstance(v, Dual) and v.b})

    return JetData(n, data.order,
                   {lab: [eps(t) for t in arrs]
                    for lab, arrs in moved.fields.items()},
                   None if moved.conn is None else [eps(t) for t in moved.conn],
                   data.conn_order)


def reference_solve_fixed_coefficients(residual_fn, order):
    """The series solver evaluating the full-order residual at every step;
    natops.series.solve_fixed_coefficients is checked against it."""
    f = Series.zero(order)
    for k in range(1, order + 1):
        r = residual_fn(f)
        coeffs = list(f.coeffs)
        coeffs[k] += r[k]
        f = Series(coeffs)
    r = residual_fn(f)
    if not r.is_zero():
        raise ArithmeticError("functional equation residual is nonzero")
    return f


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
        "keys": [key_bytes(g).decode() for g in bs.graphs],
    }
