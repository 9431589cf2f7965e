"""The rule oracle: connection rules derived from the jet action.

The replacement rule of a connection vertex is a closed form
(:func:`natops.rules.replace_connection`).  This module derives it
independently, as a cross-check: :func:`derive_connection_rule` realizes
every candidate degree-1 graph on the fields of :func:`connection_probe`
with the jet oracle's :func:`natops.jets.realize` and matches the
candidates against the first-order action of a flow on connection jets
(:func:`infinitesimal_action`).  The tests compare the two, and no command
imports this module, so no command compiles or loads it.
"""

import itertools
import random
from fractions import Fraction
from math import comb, lcm

from .canonical import canonicalize
from .complexes import _wirings
from .formal import FormalSum, add_into
from .graphs import (
    FAMILIES,
    SYM,
    Graph,
    anchor,
    connection,
    relabel,
    vector,
)
from .jets import (
    CoordinateChange,
    JetData,
    Packing,
    Tensor,
    _exps_of,
    _fact_of_exps,
    _pull_back,
    _to_jets,
    _to_polys,
    jet_order,
    random_jet_data,
    random_tensor,
    realize,
)
from .linalg import Elimination


def random_sparse_tensor(rng, n, nfixed, nsym, entries):
    """Array with at most ``entries`` random nonzero entries, each a/b, a
    in 1..4 and b in 1..2 drawn in that order, stored as a * 2/b over 2;
    a later draw at the same indices replaces an earlier one."""
    values = {}
    for _ in range(entries):
        fixed = tuple(rng.randrange(n) for _ in range(nfixed))
        sym = tuple(sorted(rng.randrange(n) for _ in range(nsym)))
        values[fixed + sym] = rng.randint(1, 4) * (2 // rng.randint(1, 2))
    return Tensor(n, nfixed, nsym, values, 2)


def infinitesimal_action(gens, data):
    """Derivative of :func:`natops.jets.jet_transform` along the flow of
    one or several generators at the identity.  Returns jet data holding
    the variation of every coordinate; the variation is additive in the
    generators.

    Generator arrays H_s of arity s >= 2 move points along the flow
    phi_eps = id + eps * sum_s H_s(x, ..., x)/s!, which fixes the origin
    and has the identity as its linear part; an arity below 2 would move
    the origin or the linear part, and is refused.  Give each monomial
    x^e eps^k the weight |e| - k, which adds under products and does not
    drop under composition with a map of weight >= 1.  Then phi_eps and
    psi_eps = phi_eps^-1 have weight >= 1, Dphi_eps and Dpsi_eps weight
    >= 0, and D2phi_eps weight >= -1.  A moved field entry of order v is
    the coefficient of a y^e with |e| = v in a polynomial of weight >= 0,
    so it is a polynomial in eps of degree at most v; a connection entry
    of order v, through the D2phi term, one of degree at most v + 1.  So
    with K and W the field and connection orders, every entry is a
    polynomial f of degree at most D = max(K, W + 1), and Lagrange
    interpolation at eps = 0, 1, ..., D gives its slope exactly:

        f'(0) = sum_(k=1..D) (-1)^(k+1) C(D, k)/k (f(k) - f(0)).

    f(0) is ``data`` itself, so this takes D ordinary pull-backs.  They
    are combined as integer numerators (:func:`natops.jets._pull_back`),
    over the least common multiple of their denominators, and every entry
    is divided once, as the arrays are written.
    """
    if isinstance(gens, Tensor):
        gens = [gens]
    for gen in gens:
        if gen.nsym < 2:
            raise ValueError(
                "generator of arity %d: the flow must fix the origin and its"
                " linear part, so every arity is at least 2" % gen.nsym)
    n, K = data.n, data.order
    W = data.conn_order if data.conn is not None else None
    D = max(K, -1 if W is None else W + 1)
    trunc = max([jet_order(K, W)] + [gen.nsym for gen in gens])
    H = [{} for _ in range(n)]  # sum_s H_s(x, ..., x)/s!
    for gen in gens:
        for key, val in gen.data.items():
            e = _exps_of(key[1:], n)
            p = H[key[0]]
            p[e] = p.get(e, 0) + Fraction(val) / _fact_of_exps(e)
    pk = Packing(n, trunc)  # the packing of every flow

    def flow(eps):
        comps = [{e: eps * v for e, v in p.items()} for p in H]
        for a in range(n):
            comps[a][_exps_of((a,), n)] = 1
        return CoordinateChange(n, trunc, comps)

    stages = [({lab: _to_polys(arrays, pk, K)
                for lab, arrays in data.fields.items()},
               None if W is None else _to_polys(data.conn, pk, W))]
    stages += [_pull_back(data, flow(eps)) for eps in range(1, D + 1)]
    # f'(0) = sum_k weight[k] f(k) / L, the weights integers
    L = lcm(*range(1, D + 1))
    weight = [(-1) ** (k + 1) * comb(D, k) * (L // k) for k in range(1, D + 1)]
    weight.insert(0, -sum(weight))

    def slope(values):
        den = lcm(*(d for _, d in values))
        out = {}
        for w, (polys, d) in zip(weight, values):
            for key, p in polys.items():
                add_into(out.setdefault(key, {}), p, w * (den // d))
        return out, den * L

    fields = {lab: slope([moved[lab] for moved, _ in stages])
              for lab in data.fields}
    conn = None if W is None else slope([conn for _, conn in stages])
    return _to_jets(data, fields, conn, pk)


def connection_probe(w):
    """The order-``w`` connection vertex fed from order-0 fields X1..X(w+2),
    X1 and X2 in the base slots, and anchored.  The fields name the boundary
    ports, so its differential is the connection rule written as a sum of
    graphs."""
    fields = tuple(vector("X%d" % (i + 1)) for i in range(w + 2))
    c = w + 2
    return Graph(fields + (connection(w), anchor),
                 ((c, 0), (c, 1)) + ((c, SYM),) * w + ((c + 1, SYM), None))


def _unit_fields(n, ports, conn, w):
    """Jet data whose field Xk is the unit vector at index ``ports[k-1]``."""
    fields = {"X%d" % (k + 1): [Tensor(n, 1, 0, {(i,): 1})]
              for k, i in enumerate(ports)}
    return JetData(n, 0, fields, conn, w)


def derive_connection_rule(w, n):
    """Derive the order-``w`` connection rule in probe dimension ``n``.

    The candidates are the degree-1 graphs on the fields of
    :func:`connection_probe`, with one coefficient per orbit under
    permutations of the derivative ports.  Each sample draws sparse
    generators of every arity and sparse connection jets at dimension
    ``n``, denser from one sample to the next, and asks the candidates,
    realized at unit-vector fields on boundary indices where the action is
    nonzero, to reproduce the exact first-order action of the generators on
    the order-``w`` connection jet.  The match must be unique, which the
    stable-range bound n >= 2w + 4 guarantees, and is then verified at
    every boundary index of a small dimension with dense fresh data.
    Returns the rule as a formal sum, which the closed form must reproduce
    as ``differential(connection_probe(w))``.
    """
    if n < 2 * w + 4:
        raise ValueError("probe dimension below stable bound 2w+4")
    arities = range(2, w + 3)
    # merging the derivative labels into one names a graph's orbit
    merged = {"X%d" % k: "D" for k in range(3, w + 3)}
    orbits = {}
    for s in arities:
        ws = (w + 1 - s,) if s <= w + 1 else ()
        for g in _wirings(FAMILIES["bullet-nabla-1"], w + 2, (0,) * (w + 2),
                          ws, (s,)):
            orbits.setdefault(canonicalize(relabel(g, merged))[0], {})[g] = 1
    orbits = [FormalSum(orbit) for orbit in orbits.values()]
    norb = len(orbits)

    def action(dim, gens, conn):
        data = JetData(dim, 0, {}, conn, w)
        return infinitesimal_action(list(gens.values()), data).conn[w]

    # one row per output index a: the orbit realizations, then the action
    # in the augmented column norb, which turns pivot when no rule matches
    # (the pivots go in column order, and norb is the last)
    rng = random.Random(repr(("connrule", w, n)))
    echelon = Elimination(key=int)
    for k in range(40):
        if len(echelon.pivots) == norb or norb in echelon.cols:
            break
        # sparse draws pin few orbits, and acting on a draw costs more than
        # realizing the orbits at one pick: read each at norb/2 + 1 picks
        density = 2 + 4 * k
        gens = {s: random_sparse_tensor(rng, n, 1, s, density)
                for s in arities}
        conn = [random_sparse_tensor(rng, n, 3, v, 3 * density)
                for v in range(w + 1)]
        delta = action(n, gens, conn)
        picks = sorted({key[1:3] + tuple(sorted(key[3:]))
                        for key in delta.data})
        rng.shuffle(picks)
        for ports in picks[:norb // 2 + 1]:
            data = _unit_fields(n, ports, conn, w)
            cols = [realize(orbit, data, gens) for orbit in orbits]
            for a in range(n):
                row = {j: col[a] for j, col in enumerate(cols) if col[a]}
                row[norb] = delta.get((a,) + ports[:2], ports[2:])
                echelon.add(row)
    if norb in echelon.cols:
        raise ArithmeticError(
            "no order-%d connection rule matches the jet action" % w)
    if len(echelon.pivots) < norb:
        raise ArithmeticError(
            "singular rule-matching system for w=%d (rule-basis bug)" % w)
    solution = echelon.reduced()
    rule = FormalSum()
    for j, orbit in enumerate(orbits):
        coeff = Fraction(solution[j].get(norb, 0), solution[j][j])
        if coeff.denominator != 1:
            raise ArithmeticError(
                "non-integer connection-rule coefficient %s" % (coeff,))
        add_into(rule.terms, orbit.terms, coeff)
    nv = min(n, max(w + 2, 3), 5)
    rng = random.Random(repr(("connrule-verify", w, n)))
    gens = {s: random_tensor(rng, nv, 1, s) for s in arities}
    conn = random_jet_data(rng, nv, [], w, conn_order=w).conn
    delta = action(nv, gens, conn)
    for b, c in itertools.product(range(nv), repeat=2):
        for ds in itertools.combinations_with_replacement(range(nv), w):
            data = _unit_fields(nv, (b, c) + ds, conn, w)
            if realize(rule, data, gens) != [
                    delta.get((a, b, c), ds) for a in range(nv)]:
                raise ArithmeticError(
                    "derived rule fails verification at w=%d" % w)
    return rule
