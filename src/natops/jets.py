"""Analytic oracle: tensor realization of graphs and jet transformations.

Degree-0 graphs realize as concrete multilinear contractions of jet arrays
on R^n (anchored graphs produce a vector, wheel graphs a scalar).  Jet data
transforms under polynomial coordinate changes fixing the origin; a formal
sum is *natural* when realization commutes with every such change.  All
arithmetic is exact: rationals, or rationals with a nilpotent dual part
when linearizing along a flow.

Both steps run in polynomial time.  A graph contracts bottom-up along its
trees and wheels (:func:`realize_graph`), never summing over all n^edges
index assignments.  A coordinate change is applied through one
:class:`Substitution` per map, which multiplies each monomial up once and
serves every field label and component the change moves.

Conventions (fixed by the integer-coefficient replacement rules, which
:func:`natops.rules.derive_connection_rule` rederives from
:func:`infinitesimal_action` through :func:`realize`):

* vector-field jets are plain partial-derivative arrays X^a_(s1..sv);
* connection jets are classical Christoffel arrays transforming as
  G' = Dphi . G(Dphi^-1, Dphi^-1) - D2phi(Dphi^-1, Dphi^-1), pulled back
  through phi^-1 (active transformation of jets at the origin);
* a white vertex of arity s realizes the generator array H of the flow
  phi_eps = id + (eps/s!) H(x, ..., x).
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from math import factorial

from .graphs import ANCHOR, CONNECTION, SYM, VECTOR, WHITE, wheel_vertices
from .linalg import mat_inv


class Dual:
    """Rational dual numbers a + b*eps with eps^2 = 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    def __add__(self, o):
        if type(o) is Dual:
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Dual:
            return Dual(self.a - o.a, self.b - o.b)
        return Dual(self.a - o, self.b)

    def __rsub__(self, o):
        return _dual(o) - self

    def __mul__(self, o):
        if type(o) is Dual:
            a, b = o.a, o.b
            return Dual(self.a * a, self.a * b + self.b * a if (b or self.b) else 0)
        return Dual(self.a * o, self.b * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _dual(o)
        if not o.a:
            raise ZeroDivisionError("dual number with zero real part")
        inv = 1 / o.a
        return Dual(self.a * inv, (self.b - self.a * o.b * inv) * inv)

    def __rtruediv__(self, o):
        return _dual(o) / self

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __eq__(self, o):
        o = _dual(o)
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return "Dual(%s, %s)" % (self.a, self.b)


def _dual(x):
    return x if isinstance(x, Dual) else Dual(x)


EPS = Dual(0, 1)


# ---------------------------------------------------------------------------
# Truncated multivariate polynomials: dict {exponent tuple: coefficient}
# ---------------------------------------------------------------------------


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
    """Composition with one fixed map ``comps`` (its components fix the
    origin), truncated above total degree ``trunc``.

    Build one per map and call it on every polynomial to compose: each
    monomial comps^e is multiplied up once, as comps^(e - e_j) * comps_j
    for the first variable j of e, and cached, so a composition is a sum
    of cached monomials.  Monomials of degree above ``trunc`` vanish.
    """

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


def map_linear_part(F, n):
    A = []
    for a in range(n):
        row = []
        for j in range(n):
            e = [0] * n
            e[j] = 1
            row.append(F[a].get(tuple(e), 0))
        A.append(row)
    return A


def _unit(x):
    if isinstance(x, Dual):
        return bool(x.a)
    return bool(x)


def map_inverse(F, n, trunc):
    """Compositional inverse of a map with invertible linear part."""
    A = map_linear_part(F, n)
    Ainv = mat_inv(A, unit=_unit)
    lin = [p_zero() for _ in range(n)]
    for a in range(n):
        for j in range(n):
            if Ainv[a][j]:
                p_add_into(lin[a], p_var(n, j), Ainv[a][j])
    high = []
    for a in range(n):
        h = dict(F[a])
        for j in range(n):
            e = [0] * n
            e[j] = 1
            h.pop(tuple(e), None)
        high.append(h)
    psi = [dict(l) for l in lin]
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


# ---------------------------------------------------------------------------
# Jet arrays
# ---------------------------------------------------------------------------


class Tensor:
    """Array with some leading fixed indices and a trailing symmetric block.

    Entries are stored under sorted symmetric indices only.
    """

    __slots__ = ("n", "nfixed", "nsym", "data")

    def __init__(self, n, nfixed, nsym, data=None):
        self.n = n
        self.nfixed = nfixed
        self.nsym = nsym
        self.data = data if data is not None else {}

    def get(self, fixed, sym=()):
        key = tuple(fixed) + tuple(sorted(sym))
        return self.data.get(key, 0)

    def set(self, fixed, sym, value):
        key = tuple(fixed) + tuple(sorted(sym))
        if value:
            self.data[key] = value
        else:
            self.data.pop(key, None)

    def keys(self):
        return self.data.keys()

    def map_values(self, fn):
        return Tensor(self.n, self.nfixed, self.nsym,
                      {k: fn(v) for k, v in self.data.items()})

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if (self.n, self.nfixed, self.nsym) != (other.n, other.nfixed, other.nsym):
            return False
        keys = set(self.data) | set(other.data)
        return all(self.data.get(k, 0) == other.data.get(k, 0) for k in keys)

    def __repr__(self):
        return "Tensor(n=%d, fixed=%d, sym=%d, %d entries)" % (
            self.n, self.nfixed, self.nsym, len(self.data))


def random_tensor(rng, n, nfixed, nsym):
    t = Tensor(n, nfixed, nsym)
    for fixed in itertools.product(range(n), repeat=nfixed):
        for sym in itertools.combinations_with_replacement(range(n), nsym):
            t.data[fixed + sym] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return t


def random_sparse_tensor(rng, n, nfixed, nsym, entries):
    """Array with at most ``entries`` random nonzero entries."""
    t = Tensor(n, nfixed, nsym)
    for _ in range(entries):
        fixed = tuple(rng.randrange(n) for _ in range(nfixed))
        sym = tuple(sorted(rng.randrange(n) for _ in range(nsym)))
        t.set(fixed, sym, Fraction(rng.randint(1, 4), rng.randint(1, 2)))
    return t


JetData = namedtuple("JetData", ["n", "order", "fields", "conn", "conn_order"])
JetData.__doc__ = """Truncated jets at the origin.

fields: {label: [Tensor_order0, ..., Tensor_orderK]}; each order-v array has
one fixed (output) index and v symmetric derivative indices.  conn: list of
connection arrays, order-w entries with three fixed indices (out, base0,
base1) and w symmetric derivative indices; None when no connection is used.
"""


def random_jet_data(rng, n, labels, order, with_conn=False, conn_order=None):
    fields = {
        lab: [random_tensor(rng, n, 1, v) for v in range(order + 1)]
        for lab in labels
    }
    conn = None
    if with_conn:
        if conn_order is None:
            conn_order = order
        conn = [random_tensor(rng, n, 3, w) for w in range(conn_order + 1)]
    return JetData(n, order, fields, conn, conn_order if with_conn else None)


class CoordinateChange:
    """Polynomial coordinate change fixing the origin, with invertible
    linear part (checked exactly)."""

    def __init__(self, n, trunc, comps):
        self.n = n
        self.trunc = trunc
        self.comps = [dict(c) for c in comps]
        zero = (0,) * n
        for c in self.comps:
            if c.get(zero):
                raise ValueError("coordinate change must fix the origin")
        mat_inv(map_linear_part(self.comps, n), unit=_unit)  # singular -> raise

    @classmethod
    def identity(cls, n, trunc):
        return cls(n, trunc, [p_var(n, j) for j in range(n)])

    @classmethod
    def random(cls, rng, n, trunc):
        while True:
            comps = []
            for _ in range(n):
                p = {}
                for deg in range(1, trunc + 1):
                    for mono in itertools.combinations_with_replacement(
                            range(n), deg):
                        v = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                        if v:
                            p[_exps_of(mono, n)] = v
                comps.append(p)
            try:
                return cls(n, trunc, comps)
            except ZeroDivisionError:
                continue

    def compose(self, other):
        """self after other (self o other), truncated at min order."""
        trunc = min(self.trunc, other.trunc)
        sub = Substitution(other.comps, self.n, trunc)
        return CoordinateChange(self.n, trunc, [sub(f) for f in self.comps])

    def linear_part(self):
        return map_linear_part(self.comps, self.n)


# --- conversion between jet arrays and Taylor polynomials ------------------


def _exps_of(idx, n):
    e = [0] * n
    for i in idx:
        e[i] += 1
    return tuple(e)


def _fact_of_exps(e):
    f = 1
    for k in e:
        f *= factorial(k)
    return f


def _field_polys(arrays, n, trunc):
    polys = [p_zero() for _ in range(n)]
    for v, arr in enumerate(arrays):
        if v > trunc:
            break
        for key, val in arr.data.items():
            a, sym = key[0], key[1:]
            e = _exps_of(sym, n)
            coeff = Fraction(val) / _fact_of_exps(e) if not isinstance(val, Dual) \
                else val / _fact_of_exps(e)
            p_add_into(polys[a], {e: coeff})
    return polys


def _polys_field(polys, n, order):
    arrays = [Tensor(n, 1, v) for v in range(order + 1)]
    for a in range(n):
        for e, c in polys[a].items():
            v = sum(e)
            if v > order:
                continue
            sym = tuple(sorted(sum(([i] * k for i, k in enumerate(e)), [])))
            arrays[v].set((a,), sym, c * _fact_of_exps(e))
    return arrays


def _conn_polys(arrays, n, trunc):
    polys = {}
    for w, arr in enumerate(arrays):
        if w > trunc:
            break
        for key, val in arr.data.items():
            a, b, c, sym = key[0], key[1], key[2], key[3:]
            e = _exps_of(sym, n)
            coeff = val / _fact_of_exps(e)
            p_add_into(polys.setdefault((a, b, c), p_zero()), {e: coeff})
    return polys


def _polys_conn(polys, n, order):
    arrays = [Tensor(n, 3, w) for w in range(order + 1)]
    for (a, b, c), p in polys.items():
        for e, coeff in p.items():
            w = sum(e)
            if w > order:
                continue
            sym = tuple(sorted(sum(([i] * k for i, k in enumerate(e)), [])))
            arrays[w].set((a, b, c), sym, coeff * _fact_of_exps(e))
    return arrays


def _poly_mat_inverse(M, n, trunc):
    """Inverse of a polynomial matrix whose constant part is invertible."""
    zero = (0,) * n
    C = [[M[i][j].get(zero, 0) for j in range(n)] for i in range(n)]
    Cinv = mat_inv(C, unit=_unit)
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


def jet_transform(data, phi):
    """Transform jets through a coordinate change, exactly.

    Vector fields push forward: X'(y) = Dphi(x) X(x) at x = phi^{-1}(y);
    the connection follows the classical Christoffel law (see module
    docstring).  phi must carry enough orders: order+1 for the fields,
    conn_order+2 for the connection.
    """
    n = data.n
    need = data.order + 1
    if data.conn is not None:
        need = max(need, data.conn_order + 2)
    if phi.trunc < need:
        raise ValueError("coordinate change truncated below jet order + 1")
    F = phi.comps
    K = data.order
    subK = Substitution(map_inverse(F, n, K) if K else map_inverse(F, n, 1),
                        n, K)
    J = [[p_diff(F[a], j) for j in range(n)] for a in range(n)]
    fields = {}
    for lab, arrays in data.fields.items():
        P = _field_polys(arrays, n, K)
        out = []
        for a in range(n):
            acc = p_zero()
            for j in range(n):
                Jaj = {e: v for e, v in J[a][j].items() if sum(e) <= K}
                if Jaj and P[j]:
                    p_add_into(acc, p_mul(Jaj, P[j], K))
            out.append(subK(acc))
        fields[lab] = _polys_field(out, n, K)
    conn = None
    if data.conn is not None:
        W = data.conn_order
        subW = Substitution(map_inverse(F, n, W) if W else map_inverse(F, n, 1),
                            n, W)
        G = _conn_polys(data.conn, n, W)
        Jw = [[{e: v for e, v in J[a][j].items() if sum(e) <= W}
               for j in range(n)] for a in range(n)]
        Jinv = _poly_mat_inverse(Jw, n, W)
        hess = [[[{e: v for e, v in p_diff(J[a][j], k).items() if sum(e) <= W}
                  for k in range(n)] for j in range(n)] for a in range(n)]
        # B[a][j][k] = sum_i J[a][i] G[i][j][k]  -  hess[a][j][k]
        out = {}
        for a in range(n):
            B = [[p_zero() for _ in range(n)] for _ in range(n)]
            for j in range(n):
                for k in range(n):
                    acc = B[j][k]
                    for i in range(n):
                        g = G.get((i, j, k))
                        if g and Jw[a][i]:
                            p_add_into(acc, p_mul(Jw[a][i], g, W))
                    p_add_into(acc, hess[a][j][k], -1)
            # contract both lower slots with Jinv
            for b in range(n):
                Bb = [p_zero() for _ in range(n)]
                for k in range(n):
                    acc = Bb[k]
                    for j in range(n):
                        if B[j][k] and Jinv[j][b]:
                            p_add_into(acc, p_mul(Jinv[j][b], B[j][k], W))
                for c in range(n):
                    acc = p_zero()
                    for k in range(n):
                        if Bb[k] and Jinv[k][c]:
                            p_add_into(acc, p_mul(Jinv[k][c], Bb[k], W))
                    if acc:
                        out[(a, b, c)] = subW(acc)
        conn = _polys_conn(out, n, W)
    return JetData(n, K, fields, conn, data.conn_order)


# ---------------------------------------------------------------------------
# Realization (contraction along trees and wheels)
# ---------------------------------------------------------------------------


def _vertex_arrays(g, data, gens):
    """Jet array per vertex (None for the anchor), checking the data."""
    arrays = []
    for v in g.vertices:
        if v.kind == VECTOR:
            if v.order > data.order:
                raise ValueError("jet data truncated below graph order")
            arrays.append(data.fields[v.label][v.order])
        elif v.kind == CONNECTION:
            if data.conn is None or v.order > data.conn_order:
                raise ValueError("connection jets missing or truncated")
            arrays.append(data.conn[v.order])
        elif v.kind == WHITE:
            if gens is None or v.order not in gens:
                raise ValueError("realization is defined on degree-0 sums only")
            arrays.append(gens[v.order])
        else:
            arrays.append(None)
    return arrays


def _cycles(g):
    """The directed cycles of g, each listed along its edges."""
    cycles = []
    left = wheel_vertices(g)
    while left:
        cycle = [min(left)]
        while g.out[cycle[-1]][0] != cycle[0]:
            cycle.append(g.out[cycle[-1]][0])
        left -= set(cycle)
        cycles.append(cycle)
    return cycles


def _contract(arr, n, inputs):
    """Contract one vertex array against its inputs.

    ``inputs`` lists (slot, entries) per in-edge, entries being the nonzero
    (index, value) pairs of the vector the edge carries, or None for the
    open in-edge of a cycle vertex.  Returns the length-n vector over the
    out index, or with an open in-edge the matrix out[i][j] over the out
    index i and the open index j.  Each in-edge multiplies the n lookups
    per input combination by its number of entries, at most n.
    """
    nbase = arr.nfixed - 1
    lists = [entries if entries is not None else [(j, None) for j in range(n)]
             for _, entries in inputs]
    slots = [slot for slot, _ in inputs]
    opened = any(entries is None for _, entries in inputs)
    zero = Fraction(0)
    out = [[zero] * n for _ in range(n)] if opened else [zero] * n
    table = arr.data
    for combo in itertools.product(*lists):
        weight = 1
        base = [0, 0]
        sym = []
        col = 0
        for slot, (idx, val) in zip(slots, combo):
            if val is None:
                col = idx
            else:
                weight = weight * val
            if slot == SYM:
                sym.append(idx)
            else:
                base[slot] = idx
        sym.sort()
        tail = tuple(base[:nbase]) + tuple(sym)
        for i in range(n):
            x = table.get((i,) + tail)
            if x:
                if opened:
                    out[i][col] = out[i][col] + x * weight
                else:
                    out[i] = out[i] + x * weight
    return out


def realize_graph(g, data, gens=None):
    """Contract one graph against jet data: a length-n list when anchored,
    a scalar otherwise.  With ``gens`` (a map arity -> generator array),
    white vertices contract against the generators; without it they are an
    error, realization being defined on degree-0 sums.

    Every non-anchor vertex has exactly one out-edge, so each component is
    a tree into the anchor or one cycle (a wheel; a self-loop is a cycle of
    length 1) with trees hanging off it.  The contraction runs bottom-up: a
    tree vertex becomes a length-n vector over its out-edge, at a cost of
    n^(1 + in-degree) array lookups; a cycle vertex becomes an n x n matrix
    over its out-edge and its in-edge from the cycle, at n^(2 + in-degree
    off the cycle), and the cycle closes as the trace of the product of its
    matrices.  Scalar components multiply.
    """
    n = data.n
    arrays = _vertex_arrays(g, data, gens)
    ins = g.in_edges()

    def entries(src):
        return [(i, x) for i, x in enumerate(vector(src)) if x]

    def vector(v):
        return _contract(arrays[v], n, [(slot, entries(src))
                                        for src, slot in ins[v]])

    cycles = _cycles(g)
    scalar = Fraction(1)
    for cycle in cycles:
        # walking against the edges, each matrix takes the previous one's
        # output index as its open input
        prod = None
        for pos, v in enumerate(cycle):
            pred = cycle[pos - 1]
            m = _contract(arrays[v], n, [
                (slot, None if src == pred else entries(src))
                for src, slot in ins[v]])
            prod = m if prod is None else _mat_mul(m, prod, n)
        scalar = scalar * sum((prod[i][i] for i in range(n)), Fraction(0))
    for i, v in enumerate(g.vertices):
        if v.kind == ANCHOR:
            vec = vector(ins[i][0][0])
            return [x * scalar for x in vec] if cycles else vec
    return scalar


def _mat_mul(a, b, n):
    zero = Fraction(0)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] = oi[j] + x * bk[j]
    return out


def realize(x, data, gens=None):
    """Realize a formal sum; exact and linear in the sum.

    Without ``gens`` the sum must have degree 0.  With ``gens`` (a map
    arity -> generator array) white vertices hold the generators; together
    with :func:`infinitesimal_action` this expresses the bottom chain-map
    identity: realizing the differential of a degree-0 sum against
    generators equals the flow derivative of its realization.
    """
    from .formal import FormalSum
    from .graphs import Graph

    if isinstance(x, Graph):
        x = FormalSum.of(x)
    anchored = None
    for g, _ in x:
        a = g.has_anchor()
        if anchored is None:
            anchored = a
        elif anchored != a:
            raise ValueError("mixed anchored/scalar sum")
    if anchored is None:
        anchored = False
    acc = [Fraction(0)] * data.n if anchored else Fraction(0)
    for g, c in x:
        val = realize_graph(g, data, gens=gens)
        if anchored:
            acc = [s + c * v for s, v in zip(acc, val)]
        else:
            acc = acc + c * val
    return acc


def lift_with_variation(data, delta):
    """Dual-number jet data: value parts from ``data``, eps parts ``delta``."""
    def both(a, b):
        out = Tensor(a.n, a.nfixed, a.nsym)
        for k in set(a.data) | set(b.data):
            out.data[k] = Dual(a.data.get(k, 0), b.data.get(k, 0))
        return out

    fields = {
        lab: [both(t, delta.fields[lab][v]) for v, t in enumerate(arrs)]
        for lab, arrs in data.fields.items()
    }
    conn = None
    if data.conn is not None:
        conn = [both(t, delta.conn[w]) for w, t in enumerate(data.conn)]
    return JetData(data.n, data.order, fields, conn, data.conn_order)


def apply_linear(A, vec):
    return [sum((Fraction(A[a][j]) * vec[j] for j in range(len(vec))), Fraction(0))
            for a in range(len(vec))]


Counterexample = namedtuple("Counterexample", ["trial", "lhs", "rhs"])


def data_requirements(x):
    """Labels, max vector order, and connection order needed to realize x."""
    labels = set()
    order = 0
    conn_order = None
    for g, _ in x:
        for v in g.vertices:
            if v.kind == VECTOR:
                labels.add(v.label)
                order = max(order, v.order)
            elif v.kind == CONNECTION:
                conn_order = max(conn_order or 0, v.order)
    return sorted(labels), order, conn_order


def naturality_check(x, n, trials=20, seed=0):
    """Seeded exact test that realization commutes with coordinate changes.

    Returns None on pass, else the first counterexample.
    """
    from .formal import FormalSum
    from .graphs import Graph

    if n < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if isinstance(x, Graph):
        x = FormalSum.of(x)
    labels, order, conn_order = data_requirements(x)
    anchored = any(g.has_anchor() for g, _ in x)
    trunc = max(order + 1, (conn_order + 2) if conn_order is not None else 0, 2)
    for t in range(trials):
        rng = random.Random(repr(("natcheck", seed, t)))
        data = random_jet_data(rng, n, labels, order,
                               with_conn=conn_order is not None,
                               conn_order=conn_order)
        phi = CoordinateChange.random(rng, n, trunc)
        lhs = realize(x, jet_transform(data, phi))
        base = realize(x, data)
        rhs = apply_linear(phi.linear_part(), base) if anchored else base
        if lhs != rhs:
            return Counterexample(t, lhs, rhs)
    return None


# ---------------------------------------------------------------------------
# Infinitesimal action
# ---------------------------------------------------------------------------


def generator_flow(gens, n, trunc):
    """Coordinate change id + eps * sum_s H_s(x,..,x)/s! for generator
    arrays H_s."""
    comps = []
    for a in range(n):
        p = p_var(n, a)
        p = {e: Dual(v) for e, v in p.items()}
        for gen in gens:
            for key, val in gen.data.items():
                if key[0] != a:
                    continue
                e = _exps_of(key[1:], n)
                p_add_into(p, {e: Dual(0, Fraction(val) / _fact_of_exps(e))})
        comps.append(p)
    return CoordinateChange(n, trunc, comps)


def _lift_dual(data):
    fields = {lab: [t.map_values(lambda v: Dual(v)) for t in arrs]
              for lab, arrs in data.fields.items()}
    conn = None
    if data.conn is not None:
        conn = [t.map_values(lambda v: Dual(v)) for t in data.conn]
    return JetData(data.n, data.order, fields, conn, data.conn_order)


def _eps_part(data):
    def eps(t):
        out = Tensor(t.n, t.nfixed, t.nsym)
        for k, v in t.data.items():
            b = v.b if isinstance(v, Dual) else 0
            if b:
                out.data[k] = b
        return out

    fields = {lab: [eps(t) for t in arrs] for lab, arrs in data.fields.items()}
    conn = [eps(t) for t in data.conn] if data.conn is not None else None
    return JetData(data.n, data.order, fields, conn, data.conn_order)


def infinitesimal_action(gens, data):
    """Derivative of jet_transform along the flow of one or several
    generators at the identity, computed with first-order dual arithmetic.
    Returns jet data holding the variation of every coordinate; the
    variation is additive in the generators."""
    if isinstance(gens, Tensor):
        gens = [gens]
    n = data.n
    trunc = max([data.order + 1,
                 (data.conn_order + 2) if data.conn is not None else 0, 2]
                + [g.nsym for g in gens])
    phi = generator_flow(gens, n, trunc)
    moved = jet_transform(_lift_dual(data), phi)
    return _eps_part(moved)
