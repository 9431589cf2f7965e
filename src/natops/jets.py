"""Analytic oracle: tensor realization of graphs and jet transformations.

Degree-0 graphs realize as concrete multilinear contractions of jet arrays
on R^n (anchored graphs produce a vector, wheel graphs a scalar).  Jet data
transforms under polynomial coordinate changes fixing the origin; a formal
sum is *natural* when realization commutes with every such change.  All
arithmetic is exact, over ints and Fractions only.

Both steps run in polynomial time.  A graph contracts bottom-up along its
trees and wheels (:func:`realize_graph`), never summing over all n^edges
index assignments.  A coordinate change phi is applied through one inverse
map psi = phi^-1 per change and one :class:`Substitution` per truncation
order, which multiplies each monomial of psi up once and serves every
field label and component the change moves.

The truncated polynomials under the law hold integer numerators over one
integer denominator per family of polynomials, and key their monomials by
packed exponents, e -> |e| B^n + sum_i e_i B^i (:class:`Packing`), so a
monomial product is one int addition and a truncation test one
comparison.  B = 2^bits exceeds the largest degree entering a call, so no
exponent digit of a kept monomial can carry into the next.

Realization is on integers too.  A jet array holds its entries once, as
integer numerators over one denominator (:class:`Tensor`), the form the
law writes and realization reads; a coordinate change keeps its
components and the inverse of its linear part the same way
(:class:`CoordinateChange`).  A graph contracts its arrays by int
multiply-adds and divides each entry of its value by the product of their
denominators once, at the end.  So Fractions appear only where arrays are
built from or read back as rationals, where a coordinate change is made
from exact components, and where a realized value is written.

Conventions (fixed by the integer-coefficient replacement rules, which
:func:`natops.oracle.derive_connection_rule` rederives from the flow
derivative of :func:`jet_transform` through :func:`realize`):

* vector-field jets are plain partial-derivative arrays X^a_(s1..sv);
* connection jets are classical Christoffel arrays transforming as
  G' = Dphi . G(Dphi^-1, Dphi^-1) - D2phi(Dphi^-1, Dphi^-1), pulled back
  through phi^-1 (active transformation of jets at the origin; Kolar,
  Michor and Slovak, *Natural Operations in Differential Geometry*, 1993,
  ch. IV);
* a white vertex of arity s realizes the generator array H of the flow
  phi_eps = id + (eps/s!) H(x, ..., x).

Fields and connection follow one pull-back (:func:`jet_transform`): push
the upper index through Dphi, subtract D2phi for the connection, compose
with psi, and contract each lower index with Dpsi.  Dphi^-1 at x = psi(y)
is exactly Dpsi(y), so no polynomial matrix is ever inverted.
"""

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .formal import add_into, as_sum
from .graphs import ANCHOR, CONNECTION, SYM, VECTOR, WHITE, cycles
from .linalg import Elimination


# ---------------------------------------------------------------------------
# Truncated multivariate polynomials: integer numerators, packed exponents
# ---------------------------------------------------------------------------


class Packing:
    """Packed exponents of the monomials in n variables.

    The exponent e packs to the int |e| B^n + sum_i e_i B^i, B = 2^bits, so
    multiplying two monomials adds their packed ints, and a monomial has
    total degree at most t exactly when it packs below ``limit(t)``.  B
    exceeds every degree entering the computation, truncation orders
    included, and no carry can pass a kept monomial off as another: a
    product of degree at most t < B has every e_i <= t, so no digit
    carries; in one of higher degree the top digit, |e| plus any carry
    from below, exceeds t, and the product is dropped.
    """

    __slots__ = ("n", "bits", "mask", "one", "var")

    def __init__(self, n, max_degree):
        self.n = n
        self.bits = max(max_degree, 1).bit_length()
        self.mask = (1 << self.bits) - 1
        self.one = 1 << (n * self.bits)  # the unit of the degree digit
        self.var = [(1 << (i * self.bits)) + self.one for i in range(n)]

    def limit(self, trunc):
        return (trunc + 1) * self.one

    def pack(self, e):
        return sum(k * x for k, x in zip(e, self.var))

    def exponents(self, e):
        bits, mask = self.bits, self.mask
        return tuple((e >> (i * bits)) & mask for i in range(self.n))

    def first_variable(self, e):
        bits, mask = self.bits, self.mask
        return next(i for i in range(self.n) if (e >> (i * bits)) & mask)


# A polynomial is a dict {packed exponent: numerator}; the numerators are
# ints over a denominator kept beside them, one for a whole family of
# polynomials.


def _clear(polys):
    """Dicts {key: exact value} as numerators over one denominator:
    returns ({name: {key: numerator}}, den) for ``polys`` {name: dict}."""
    den = 1
    for p in polys.values():
        for v in p.values():
            den = lcm(den, v.denominator)
    return {name: {k: v.numerator * (den // v.denominator)
                   for k, v in p.items() if v}
            for name, p in polys.items()}, den


def _reduce(polys, den):
    """The polynomials {name: polynomial} over ``den`` with the gcd of all
    their numerators and ``den`` divided out, so the integers stay small."""
    g = den
    for p in polys.values():
        for v in p.values():
            g = gcd(g, v)
            if g == 1:
                return polys, den
    return ({name: {e: v // g for e, v in p.items()}
             for name, p in polys.items()}, den // g)


def _mul_into(out, a, bitems, limit):
    """``out += a * b`` below ``limit``, b given as its items sorted by
    packed exponent, hence by degree.  Terms that cancel stay, as zeros."""
    get = out.get
    for ea, va in a.items():
        room = limit - ea
        for eb, vb in bitems:
            if eb >= room:
                break
            e = ea + eb
            out[e] = get(e, 0) + va * vb
    return out


def p_diff(a, j, pk):
    """The derivative of ``a`` in variable j."""
    shift, mask, step = j * pk.bits, pk.mask, pk.var[j]
    out = {}
    for e, v in a.items():
        k = (e >> shift) & mask
        if k:
            out[e - step] = v * k
    return out


def _truncate(p, limit):
    return {e: v for e, v in p.items() if e < limit}


class Substitution:
    """Composition with one fixed map, truncated above total degree
    ``trunc``; the map's components ``comps`` {j: polynomial} fix the
    origin and are numerators over ``den``.

    Build one per map and call it on every polynomial to compose: each
    monomial comps^e, numerators over den^|e|, is multiplied up once, as
    comps^(e - x_j) * comps_j for the first variable j of e, and cached
    scaled by den^(trunc - |e|).  A composition is then a sum of cached
    integer monomials over den^trunc, the ``scale`` it multiplies the
    composed polynomial's denominator by.  Monomials of degree above
    ``trunc`` vanish.
    """

    def __init__(self, comps, den, pk, trunc):
        self.comps = comps
        self.den = den
        self.pk = pk
        self.trunc = trunc
        self.limit = pk.limit(trunc)
        self.scale = den ** trunc
        self.monos = {0: {0: 1}}
        self.scaled = {}

    def mono(self, e):
        m = self.monos.get(e)
        if m is None:
            j = self.pk.first_variable(e)
            m = self.monos[e] = _mul_into({}, self.mono(e - self.pk.var[j]),
                                          sorted(self.comps[j].items()),
                                          self.limit)
        return m

    def __call__(self, a):
        out = {}
        for e, v in a.items():
            if e < self.limit:
                m = self.scaled.get(e)
                if m is None:
                    f = self.den ** (self.trunc - e // self.pk.one)
                    m = self.scaled[e] = {k: x * f
                                          for k, x in self.mono(e).items()}
                add_into(out, m, v)
        return out


def map_inverse(phi, trunc):
    """Compositional inverse to degree ``trunc`` of the coordinate change
    phi, packed by ``phi.pk``.  Returns (psi, its denominator).

    psi is the fixed point of psi = A^-1 (x - H o psi), A the linear part
    of phi and H the rest; each round fixes one more degree.  A^-1 is the
    one phi keeps.
    """
    F, den, pk = phi.comps, phi.den, phi.pk
    n, var = pk.n, pk.var
    Ainv, dA = phi.inverse, phi.inverse_den
    lin = {a: {var[j]: x for j, x in row.items()} for a, row in Ainv.items()}
    linear = set(var)
    high = [{e: v for e, v in F[a].items() if e not in linear}
            for a in range(n)]
    psi, dpsi = lin, dA
    for _ in range(trunc - 1):
        sub = Substitution(psi, dpsi, pk, trunc)
        corr = [sub(h) for h in high]  # over den * sub.scale
        s = den * sub.scale
        nxt = {}
        for a in range(n):
            acc = nxt[a] = {e: v * s for e, v in lin[a].items()}
            for j, x in Ainv[a].items():
                add_into(acc, corr[j], -x)
        psi, dpsi = _reduce(nxt, dA * s)
    return psi, dpsi


# ---------------------------------------------------------------------------
# Jet arrays
# ---------------------------------------------------------------------------


class Tensor:
    """Array with some leading fixed indices and a trailing symmetric block,
    built whole from ``entries`` {key: numerator} over ``den`` (or by
    :meth:`from_values`) and not changed after.

    The nonzero entries, keyed by sorted symmetric indices, are held once:
    ``rows`` {indices after the first: [(first index, numerator), ...]}
    over ``den``, with their common factor divided out.  :meth:`get` and
    ``data`` read entries back as rationals.
    """

    __slots__ = ("n", "nfixed", "nsym", "rows", "den")

    def __init__(self, n, nfixed, nsym, entries=None, den=1):
        self.n = n
        self.nfixed = nfixed
        self.nsym = nsym
        entries = entries or {}
        g = gcd(den, *entries.values())
        self.rows = rows = {}
        for key, c in entries.items():
            if c:
                rows.setdefault(key[1:], []).append((key[0], c // g))
        self.den = den // g

    @classmethod
    def from_values(cls, n, nfixed, nsym, values):
        """The array of the exact entries ``values`` {key: value}."""
        nums, den = _clear({0: values})
        return cls(n, nfixed, nsym, nums[0], den)

    def get(self, fixed, sym=()):
        key = tuple(fixed) + tuple(sorted(sym))
        for first, c in self.rows.get(key[1:], ()):
            if first == key[0]:
                return Fraction(c, self.den)
        return 0

    @property
    def data(self):
        """The nonzero entries as a fresh dict {key: Fraction}."""
        return {(first,) + rest: Fraction(c, self.den)
                for rest, row in self.rows.items() for first, c in row}

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return ((self.n, self.nfixed, self.nsym, self.data)
                == (other.n, other.nfixed, other.nsym, other.data))

    def __repr__(self):
        return "Tensor(n=%d, fixed=%d, sym=%d, den=%d)" % (
            self.n, self.nfixed, self.nsym, self.den)


def random_tensor(rng, n, nfixed, nsym):
    """Entries a/b, a in -4..4 drawn before b in 1..3, as a * 6/b over 6."""
    entries = {}
    for fixed in itertools.product(range(n), repeat=nfixed):
        for sym in itertools.combinations_with_replacement(range(n), nsym):
            entries[fixed + sym] = rng.randint(-4, 4) * (6 // rng.randint(1, 3))
    return Tensor(n, nfixed, nsym, entries, 6)


JetData = namedtuple("JetData", ["n", "order", "fields", "conn", "conn_order"])
JetData.__doc__ = """Truncated jets at the origin.

fields: {label: [Tensor_order0, ..., Tensor_orderK]}; each order-v array has
one fixed (output) index and v symmetric derivative indices.  conn: list of
connection arrays, order-w entries with three fixed indices (out, base0,
base1) and w symmetric derivative indices; None when no connection is used.
"""


def random_jet_data(rng, n, labels, order, conn_order=None):
    """Random jets of the labelled fields to ``order``, and of a connection
    to ``conn_order`` unless that is None."""
    fields = {
        lab: [random_tensor(rng, n, 1, v) for v in range(order + 1)]
        for lab in labels
    }
    conn = None
    if conn_order is not None:
        conn = [random_tensor(rng, n, 3, w) for w in range(conn_order + 1)]
    return JetData(n, order, fields, conn, conn_order)


class CoordinateChange:
    """Polynomial coordinate change fixing the origin, of degree at most
    ``trunc``, with invertible linear part.

    It is given as n tuple-keyed components {exponents: exact value} and
    kept in the one form the law reads: ``comps`` {a: polynomial}, packed
    by ``pk = Packing(n, trunc)``, as integer numerators over one ``den``.
    The inverse of the linear part is kept as ``inverse`` {a: {j:
    numerator}} over one ``inverse_den``.  A nonzero constant term or a
    monomial above ``trunc`` raises ValueError; a singular linear part
    raises ZeroDivisionError.
    """

    def __init__(self, n, trunc, comps):
        self.n = n
        self.trunc = trunc
        self.pk = pk = Packing(n, trunc)
        packed = {}
        for a, c in enumerate(comps):
            if any(v and not 0 < sum(e) <= trunc for e, v in c.items()):
                raise ValueError("a coordinate change fixes the origin and"
                                 " has degree at most its trunc")
            packed[a] = {pk.pack(e): v for e, v in c.items() if v}
        self.comps, self.den = _clear(packed)
        # [A | I] reduced in column order, A the linear part's numerators:
        # row c ends in pivot c times row c of A^-1, unless A is singular
        back = Elimination([{**{j: p[pk.var[j]] for j in range(n)
                                if pk.var[j] in p}, n + a: 1}
                            for a, p in self.comps.items()], key=int).reduced()
        if any(c >= n for c in back):
            raise ZeroDivisionError("singular linear part")
        m = lcm(*(back[c][c] for c in range(n)))
        self.inverse, self.inverse_den = _reduce(
            {c: {j - n: x * (m // back[c][c]) * self.den
                 for j, x in back[c].items() if j >= n} for c in range(n)}, m)

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


def _to_polys(arrays, pk, trunc):
    """Taylor polynomials of jet arrays up to order ``trunc``, keyed by
    their fixed indices, as numerators over one denominator: the entry at
    sorted derivative indices s is the coefficient of x^e times e!, e the
    exponents of s.  Returns (polynomials, den)."""
    arrays = arrays[:trunc + 1]
    # e! divides v! for the order-v array
    den = lcm(*(arr.den * factorial(arr.nsym) for arr in arrays))
    polys = {}
    seen = {}  # derivative indices -> (packed exponent, e!)
    for arr in arrays:
        scale = den // arr.den
        nfixed = arr.nfixed
        for rest, row in arr.rows.items():
            sym = rest[nfixed - 1:]
            ef = seen.get(sym)
            if ef is None:
                ef = seen[sym] = (sum(pk.var[i] for i in sym),
                                  _fact_of_exps(_exps_of(sym, pk.n)))
            e, m = ef[0], scale // ef[1]
            for first, c in row:
                polys.setdefault((first,) + rest[:nfixed - 1], {})[e] = c * m
    return polys, den


def _to_arrays(polys, den, pk, nfixed, order):
    """The jet arrays of orders 0..order of fixed-index-keyed polynomials
    over ``den``: the entry of x^e is its coefficient times e!."""
    entries = [{} for _ in range(order + 1)]
    limit = pk.limit(order)
    seen = {}  # packed exponent -> (order's entries, derivative indices, e!)
    for fixed, p in polys.items():
        for e, c in p.items():
            if c and e < limit:
                got = seen.get(e)
                if got is None:
                    exps = pk.exponents(e)
                    sym = tuple(i for i, k in enumerate(exps) for _ in range(k))
                    got = seen[e] = (entries[len(sym)], sym,
                                     _fact_of_exps(exps))
                table, sym, f = got
                table[fixed + sym] = c * f
    return [Tensor(pk.n, nfixed, v, table, den)
            for v, table in enumerate(entries)]


def _contract_index(polys, pos, M, n, limit):
    """Contract fixed index ``pos`` of every polynomial with the polynomial
    matrix M: out[.., b, ..] = sum_j M[j][b] polys[.., j, ..] when pos > 0,
    out[b, ..] = sum_j M[b][j] polys[j, ..] when pos = 0.  The result is
    over the product of the two denominators."""
    out = {}
    for key, p in polys.items():
        j = key[pos]
        pitems = sorted(p.items())
        for b in range(n):
            m = M[j][b] if pos else M[b][j]
            if m:
                _mul_into(out.setdefault(key[:pos] + (b,) + key[pos + 1:], {}),
                          m, pitems, limit)
    return out


def jet_order(order, conn_order=None):
    """Orders a coordinate change must carry to move jets exactly: the law
    differentiates phi once for a field of order ``order`` and twice for a
    connection of order ``conn_order``; at least 2, so that a random change
    is never only linear."""
    return max(order + 1, 2 if conn_order is None else conn_order + 2)


def jet_transform(data, phi):
    """Transform jets through a coordinate change, exactly.

    One law moves every array, with psi = phi^-1 computed once.  The upper
    index is pushed through J = Dphi, the connection also loses D2phi, the
    result is composed with psi, and each lower index (none for a field,
    two for the connection) is contracted with Dpsi: at x = psi(y),
    Dphi^-1(x) is exactly Dpsi(y).  Dpsi is exact to order W only when psi
    is carried to W + 1, so psi is computed to max(K, W + 1), K and W the
    field and connection orders.  phi must carry ``jet_order(K, W)`` orders.

    The arithmetic is on integers, in the form the arrays and phi hold
    (:class:`Tensor`, :class:`CoordinateChange`): each family of
    polynomials (phi, psi, the arrays of one field or of the connection)
    is integer numerators over one denominator, and every stage
    multiplies the denominators and divides the gcd back out.  Exponents
    are packed by ``phi.pk`` (:class:`Packing`), whose base depends only
    on n and ``phi.trunc``; that bounds every degree entering the call,
    phi's own monomials included, so no exponent digit of a kept monomial
    can carry.
    """
    return _to_jets(data, *_pull_back(data, phi), phi.pk)


def _pull_back(data, phi):
    """The law of :func:`jet_transform` short of writing the arrays: the
    moved fields {label: (polynomials, den)} and the moved connection
    (polynomials, den), or None, keyed by their fixed indices, packed by
    ``phi.pk``."""
    n, K = data.n, data.order
    W = data.conn_order if data.conn is not None else None
    if phi.trunc < jet_order(K, W):
        raise ValueError("coordinate change truncated below jet_order")
    T = max(K, 1 if W is None else W + 1)
    F, dF, pk = phi.comps, phi.den, phi.pk
    psi, dpsi = map_inverse(phi, T)
    J = [[p_diff(F[a], j, pk) for j in range(n)] for a in range(n)]
    at = {}  # trunc -> (J truncated, composition with psi), shared by labels

    def pull_back(arrays, nfixed, trunc, shift=None):
        limit = pk.limit(trunc)
        if trunc not in at:
            at[trunc] = ([[_truncate(p, limit) for p in row] for row in J],
                         Substitution(psi, dpsi, pk, trunc))
        Jt, sub = at[trunc]
        polys, den = _to_polys(arrays, pk, trunc)
        polys = _contract_index(polys, 0, Jt, n, limit)
        for key, p in (shift or {}).items():  # shift is over dF
            add_into(polys.setdefault(key, {}), p, -den)
        polys, den = _reduce(polys, den * dF)
        polys, den = _reduce({key: sub(p) for key, p in polys.items()},
                             den * sub.scale)
        if nfixed > 1:
            Dpsi = [[_truncate(p_diff(psi[j], b, pk), limit) for b in range(n)]
                    for j in range(n)]
            for pos in range(1, nfixed):
                polys, den = _reduce(_contract_index(polys, pos, Dpsi, n, limit),
                                     den * dpsi)
        return polys, den

    fields = {lab: pull_back(arrays, 1, K) for lab, arrays in data.fields.items()}
    conn = None
    if W is not None:
        limit = pk.limit(W)
        hess = {(a, j, k): _truncate(p_diff(J[a][j], k, pk), limit)
                for a in range(n) for j in range(n) for k in range(n)}
        conn = pull_back(data.conn, 3, W, hess)
    return fields, conn


def _to_jets(data, fields, conn, pk):
    """Jet data of the orders of ``data`` from the fields {label:
    (polynomials, den)} and connection (polynomials, den), or None, that
    :func:`_pull_back` returns."""
    K, W = data.order, data.conn_order
    return JetData(data.n, K,
                   {lab: _to_arrays(polys, den, pk, 1, K)
                    for lab, (polys, den) in fields.items()},
                   None if conn is None else _to_arrays(*conn, pk, 3, W), W)


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


#: The realization plan of every graph realized so far, keyed by the graph
#: and kept for the life of the process: ``(ins, cycles, anchor)``, the
#: in-edges of each vertex (sources ascending), the directed cycles and the
#: anchor's id (None for a scalar graph), all tuples.
_PLANS = {}


def _plan(g):
    """The realization plan of ``g``, worked out on its first realization."""
    plan = _PLANS.get(g)
    if plan is None:
        anchor = next((i for i, v in enumerate(g.vertices)
                       if v.kind == ANCHOR), None)
        plan = _PLANS[g] = (g.in_edges(), cycles(g), anchor)
    return plan


def _contract(rows, n, inputs):
    """Contract one vertex array's rows against its inputs, in integers.

    ``inputs`` lists (slot, entries) per in-edge, entries being the nonzero
    (index, numerator) pairs of the vector the edge carries, or None for
    the open in-edge of a cycle vertex.  Returns the length-n vector of
    numerators over the out index, or with an open in-edge the matrix
    out[i][j] over the out index i and the open index j.  Each in-edge
    multiplies the row lookups per input combination by its number of
    entries, at most n; a row holds at most n entries.
    """
    lists = [entries if entries is not None else [(j, None) for j in range(n)]
             for _, entries in inputs]
    slots = [slot for slot, _ in inputs]
    nbase = sum(slot != SYM for slot in slots)
    opened = any(entries is None for _, entries in inputs)
    out = [[0] * n for _ in range(n)] if opened else [0] * n
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
        row = rows.get(tuple(base[:nbase]) + tuple(sym))
        if row:
            if opened:
                for i, x in row:
                    out[i][col] = out[i][col] + x * weight
            else:
                for i, x in row:
                    out[i] = out[i] + x * weight
    return out


def realize_graph(g, data, gens=None):
    """Contract one graph against jet data: a length-n list when anchored,
    a scalar otherwise, equal to the sum over all index assignments of the
    product of the vertex arrays.  With ``gens`` (a map arity ->
    generator array), white vertices contract against the generators;
    without it they are an error, realization being defined on degree-0
    sums.

    Every non-anchor vertex has exactly one out-edge, so each component is
    a tree into the anchor or one cycle (a wheel; a self-loop is a cycle of
    length 1) with trees hanging off it.  The contraction runs bottom-up: a
    tree vertex becomes a length-n vector over its out-edge, at a cost of
    n^(1 + in-degree) array lookups; a cycle vertex becomes an n x n matrix
    over its out-edge and its in-edge from the cycle, at n^(2 + in-degree
    off the cycle), and the cycle closes as the trace of the product of its
    matrices.  Scalar components multiply.  A leaf, an order-0 field, is
    not contracted: its nonzero entries are read off its array.  The
    in-edges, cycles and anchor (the graph's plan) are worked out on its
    first realization and kept (:func:`_plan`).

    The arithmetic is on integers.  Each array is read in the form it
    holds, integer numerators over its own denominator (:class:`Tensor`).
    The value is multilinear in the arrays, so every multiply-add stays in
    ints, and the graph's denominator, the product of those of the arrays
    it reads, is divided out once per entry of the result.
    """
    n = data.n
    arrays = _vertex_arrays(g, data, gens)
    rows = [None if arr is None else arr.rows for arr in arrays]
    den = prod(arr.den for arr in arrays if arr is not None)
    ins, cycles, anchor = _plan(g)

    def entries(src):
        if not ins[src]:
            # a leaf is an order-0 field: its entries are its array's
            return rows[src].get((), [])
        return [(i, x) for i, x in enumerate(vector(src)) if x]

    def vector(v):
        return _contract(rows[v], n, [(slot, entries(src))
                                      for src, slot in ins[v]])

    scalar = 1
    for cycle in cycles:
        # walking against the edges, each matrix takes the previous one's
        # output index as its open input
        mat = None
        for pos, v in enumerate(cycle):
            pred = cycle[pos - 1]
            m = _contract(rows[v], n, [
                (slot, None if src == pred else entries(src))
                for src, slot in ins[v]])
            mat = m if mat is None else _mat_mul(m, mat, n)
        scalar = scalar * sum(mat[i][i] for i in range(n))
    if anchor is not None:
        zero = Fraction(0)
        return [Fraction(x * scalar, den) if x else zero
                for x in vector(ins[anchor][0][0])]
    return Fraction(scalar, den)


def _mat_mul(a, b, n):
    out = [[0] * n for _ in range(n)]
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
    with :func:`natops.oracle.infinitesimal_action` this expresses the
    bottom chain-map identity: realizing the differential of a degree-0
    sum against generators equals the flow derivative of its realization.
    """
    x = as_sum(x)
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
            acc = [s + c * v if v else s for s, v in zip(acc, val)]
        elif val:
            acc = acc + c * val
    return acc


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
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x = as_sum(x)
    labels, order, conn_order = data_requirements(x)
    anchored = any(g.has_anchor() for g, _ in x)
    trunc = jet_order(order, conn_order)
    for t in range(trials):
        rng = random.Random(repr(("natcheck", seed, t)))
        data = random_jet_data(rng, n, labels, order, conn_order)
        phi = CoordinateChange.random(rng, n, trunc)
        lhs = realize(x, jet_transform(data, phi))
        rhs = realize(x, data)
        if anchored:  # moved by the linear part of phi
            F, var = phi.comps, phi.pk.var
            rhs = [sum(F[a].get(var[j], 0) * v for j, v in enumerate(rhs))
                   / phi.den for a in range(n)]
        if lhs != rhs:
            return Counterexample(t, lhs, rhs)
    return None


def predicted_work(x, n, trial=True):
    """Multiply-adds predicted for realizing the sum ``x`` on jets drawn at
    dimension n, or with ``trial`` for one trial of
    :func:`naturality_check`, which also moves the jets through a
    coordinate change and realizes twice.

    The jets have L n M(n, K) field entries, for L labels of order K, and
    n^3 M(n, W) connection entries for a connection of order W, where
    M(n, t) = C(n + t, t) counts the monomials of degree at most t in n
    variables.  A graph contracts at n^(1 + in-degree) per vertex with
    in-edges, and n^3 more per cycle vertex (:func:`realize_graph`).  The
    coordinate change composes each jet entry with a monomial of psi of up
    to M(n, T) terms, T = jet_order(K, W) (:func:`jet_transform`).  One
    unit took 0.2-0.8 microseconds on a 2-core host in the cases measured,
    fields of order up to 6 and connections of order up to 4 at n = 4-10.
    """
    labels, order, conn_order = data_requirements(x)
    entries = len(labels) * n * comb(n + order, order)
    if conn_order is not None:
        entries += n ** 3 * comb(n + conn_order, conn_order)
    contract = 0
    for g, _ in x:
        ins, cycles, _ = _plan(g)
        contract += sum(n ** (1 + len(edges)) for edges in ins if edges)
        contract += sum(n ** 3 * len(cycle) for cycle in cycles)
    if not trial:
        return entries + contract
    trunc = jet_order(order, conn_order)
    return entries * comb(n + trunc, trunc) + 2 * contract
