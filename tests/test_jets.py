"""Tensor realization, jet transformation laws, naturality oracle."""

import random
from fractions import Fraction
from math import comb

import pytest

from natops import jets
from natops.complexes import enumerate_basis
from natops.formal import FormalSum, combine
from natops.graphs import CONNECTION, SYM, VECTOR, WHITE, cycles
from natops.io import exact
from natops.jets import (
    CoordinateChange,
    JetData,
    Tensor,
    jet_order,
    jet_transform,
    naturality_check,
    random_jet_data,
    random_tensor,
    realize,
    realize_graph,
)
from natops.linalg import rank
from natops.oracle import infinitesimal_action

from .helpers import (
    chain_xy,
    chain_yx,
    components,
    compose_changes,
    coordinates,
    identity_change,
    mat_inv,
    nabla_xy,
    p_add_into,
    p_mul,
    p_var,
    packed,
    reference_infinitesimal_action,
    reference_jet_transform,
    spans,
    state_sum,
    trace_pair,
    unit,
    unpacked,
)


def test_realize_unit_returns_field_value():
    rng = random.Random(0)
    data = random_jet_data(rng, 3, ["X1"], 0)
    got = realize(FormalSum.of(unit()), data)
    assert got == [data.fields["X1"][0].get((a,)) for a in range(3)]


def test_realize_bracket_on_linear_fields_is_commutator():
    n = 3
    rng = random.Random(1)
    A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    B = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    y0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]

    def lin_field(A, v0):
        return [Tensor.from_values(n, 1, 0, {(a,): v0[a] for a in range(n)}),
                Tensor.from_values(n, 1, 1, {(a, b): A[a][b] for a in range(n)
                                             for b in range(n)})]

    data = JetData(n, 1, {"X1": lin_field(A, x0), "X2": lin_field(B, y0)}, None, None)
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    got = realize(b, data)
    # [X,Y]^a = X^j Y^a_j - Y^j X^a_j with X = A x + x0 at the origin
    want = [
        sum(B[a][j] * x0[j] - A[a][j] * y0[j] for j in range(n))
        for a in range(n)
    ]
    assert got == want


def test_realize_is_linear():
    rng = random.Random(2)
    data = random_jet_data(rng, 2, ["X1", "X2"], 1)
    x = FormalSum.of(chain_xy())
    y = FormalSum.of(chain_yx())
    for al, be in [(1, 1), (2, -3), (Fraction(1, 2), Fraction(5, 3))]:
        lv = realize(combine(x, y, al, be), data)
        rx, ry = realize(x, data), realize(y, data)
        assert lv == [al * a + be * b for a, b in zip(rx, ry)]


#: Slices whose degree-0 and degree-1 graphs the contraction is checked on.
STATE_SUM_SLICES = [("bullet", 1), ("bullet", 2), ("bullet", 3),
                    ("bullet-wheel", 0), ("bullet-wheel", 1),
                    ("bullet-wheel", 2), ("bullet-wheel", 3),
                    ("bullet-nabla-1", 1), ("bullet-nabla-1", 2),
                    ("bullet-nabla-wheel", 3), ("bullet-nabla-trace", 2)]


def _slice_graphs(family, d):
    return [g for m in (0, 1) for g in enumerate_basis(family, d, m).graphs]


def _state_sum_data(kind, rng, n, labels, order, conn_order):
    """Random jets, as drawn ("fractions"), moved by a random coordinate
    change ("transformed": large denominators), or rounded to integers
    read the way ``eval --data`` reads them ("integers")."""
    data = random_jet_data(rng, n, labels, order, conn_order)
    if kind == "transformed":
        phi = CoordinateChange.random(rng, n, jet_order(order, conn_order))
        data = jet_transform(data, phi)
    elif kind == "integers":
        def whole(t):
            return Tensor.from_values(
                t.n, t.nfixed, t.nsym,
                {k: exact(v.numerator) for k, v in t.data.items()})

        data = JetData(n, order,
                       {lab: [whole(t) for t in arrs]
                        for lab, arrs in data.fields.items()},
                       None if data.conn is None else
                       [whole(t) for t in data.conn], conn_order)
    return data


@pytest.mark.parametrize("family,d", STATE_SUM_SLICES)
@pytest.mark.parametrize("n,kind", [(2, "fractions"), (3, "fractions"),
                                    (2, "transformed"), (2, "integers")],
                         ids=["2", "3", "2-transformed", "2-integers"])
def test_realize_graph_matches_state_sum(family, d, n, kind):
    """The integer tree-and-wheel contraction equals the n^edges state
    sum, graph by graph, with generators for the white vertices, on jets
    of every kind of exact value the oracle meets."""
    graphs = _slice_graphs(family, d)
    verts = [v for g in graphs for v in g.vertices]
    labels = sorted({v.label for v in verts if v.kind == VECTOR})
    order = max([v.order for v in verts if v.kind == VECTOR], default=0)
    conn_order = max([v.order for v in verts if v.kind == CONNECTION],
                     default=None)
    rng = random.Random(repr(("state-sum", family, d, n)))
    data = _state_sum_data(kind, rng, n, labels, order, conn_order)
    gens = {s: random_tensor(rng, n, 1, s)
            for s in {v.order for v in verts if v.kind == WHITE}}
    for g in graphs:
        assert realize_graph(g, data, gens=gens) == state_sum(g, data, gens), g


def test_an_array_is_not_changed_through_its_data():
    """``data`` is a fresh dict: changing it after a realization changes
    neither the array's entries nor a second realization."""
    rng = random.Random(3)
    data = random_jet_data(rng, 2, ["X1", "X2"], 1)
    g = chain_xy()
    before = realize_graph(g, data)
    assert before == state_sum(g, data)
    arr = data.fields["X2"][1]
    entry = arr.get((0,), (1,))
    arr.data[(0, 1)] = entry + 7
    arr.data.clear()
    assert arr.get((0,), (1,)) == entry and arr.data
    assert realize_graph(g, data) == before


def test_state_sum_slices_cover_wheels_loops_and_base_slots():
    """The graphs above hold self-loops, longer wheels, wheels through
    either connection base slot, wheels beside an anchor, and whites."""
    seen = set()
    for family, d in STATE_SUM_SLICES:
        for g in _slice_graphs(family, d):
            wheel = {v for cycle in cycles(g) for v in cycle}
            for src, e in enumerate(g.out):
                if e is None:
                    continue
                if e[0] == src:
                    seen.add("self-loop")
                elif src in wheel and e[0] in wheel:
                    seen.add("wheel edge into slot %s"
                             % ("sym" if e[1] == SYM else e[1]))
            if wheel and g.has_anchor():
                seen.add("wheel beside anchor")
            if len(wheel) >= 3:
                seen.add("wheel of length >= 3")
            if g.count(WHITE):
                seen.add("white")
    assert seen == {"self-loop", "wheel edge into slot sym",
                    "wheel edge into slot 0", "wheel edge into slot 1",
                    "wheel beside anchor", "wheel of length >= 3", "white"}


def test_stability_boundary_trace_pair():
    g1, g2 = trace_pair()
    d1 = random_jet_data(random.Random(5), 1, ["X1", "X2"], 1)
    d2 = random_jet_data(random.Random(5), 2, ["X1", "X2"], 1)
    assert realize(FormalSum.of(g1), d1) == realize(FormalSum.of(g2), d1)
    assert realize(FormalSum.of(g1), d2) != realize(FormalSum.of(g2), d2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stable_injectivity_of_realization(d):
    n = d
    slice0 = enumerate_basis("bullet", d, 0)
    rng = random.Random(17)
    samples = len(slice0.graphs) // n + 3
    vectors = [[] for _ in slice0.graphs]
    for _ in range(samples):
        data = random_jet_data(rng, n, ["X%d" % i for i in range(1, d + 1)], d)
        for j, g in enumerate(slice0.graphs):
            vectors[j].extend(realize(FormalSum.of(g), data))
    assert rank([dict(enumerate(v)) for v in vectors]) == len(slice0.graphs)


def _random_coeff(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_poly(rng, n, lo, hi):
    """Random polynomial with monomials of total degree lo..hi."""
    p = {}
    for deg in range(lo, hi + 1):
        for _ in range(3):
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            p_add_into(p, {tuple(e): _random_coeff(rng)})
    return p


def _naive_compose(a, comps, n, trunc):
    """Reference: every monomial of ``a`` multiplied up from scratch."""
    out = {}
    for e, v in a.items():
        term = {(0,) * n: Fraction(1)}
        for j, k in enumerate(e):
            for _ in range(k):
                term = p_mul(term, comps[j], trunc)
        p_add_into(out, term, v)
    return out


@pytest.mark.parametrize("dual", [False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_substitution_matches_naive_composition(n, dual):
    """The packed integer Substitution composes as the tuple-keyed
    reference does when it multiplies every monomial up from scratch."""
    rng = random.Random(repr(("substitution", n, dual)))
    for trunc in (1, 2, 3, 4):
        comps = [_random_poly(rng, n, 1, trunc) for _ in range(n)]
        for _ in range(4):
            # degrees above trunc too: they must vanish
            a = _random_poly(rng, n, 0, trunc + 1)
            pk = jets.Packing(n, trunc + 1)
            inner, den = packed(comps, pk)
            sub = jets.Substitution(inner, den, pk, trunc)
            outer, dout = packed([a], pk)
            got = unpacked(sub(outer[0]), dout * sub.scale, pk)
            assert got == _naive_compose(a, comps, n, trunc)


@pytest.mark.parametrize("dual", [False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_map_inverse_composes_to_identity(n, dual):
    rng = random.Random(repr(("map-inverse", n, dual)))
    for trunc in (1, 2, 3, 4):
        phi = CoordinateChange.random(rng, n, trunc)
        F, dF, pk = phi.comps, phi.den, phi.pk
        psi, dpsi = jets.map_inverse(phi, trunc)
        ident = [p_var(n, a) for a in range(n)]
        for inner, din, outer, dout in ((psi, dpsi, F, dF), (F, dF, psi, dpsi)):
            sub = jets.Substitution(inner, din, pk, trunc)
            assert [unpacked(sub(outer[a]), dout * sub.scale, pk)
                    for a in range(n)] == ident


@pytest.mark.parametrize("dual", [False])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jet_transform_matches_reference_law(n, dual):
    """The one pull-back law on integer numerators and packed exponents
    equals the reference law, which keeps a Fraction per tuple-keyed
    coefficient, inverts Dphi as a polynomial matrix and inverts phi once
    per truncation order.  The fields and connections are random, of
    orders up to 3, beside an all-zero field; phi carries up to three
    orders more than the law needs, so its top monomials pack with the
    largest exponents the packing base must hold."""
    rng = random.Random(repr(("jet-law", n, dual)))
    # the reference law takes about 10 s at connection order 3 and n = 4,
    # and 5 s more at n = 5 for connection order 2 over order 1
    for order, conn_order in [(0, None), (3, None), (0, 0), (1, 2), (2, 1),
                              (3, {4: 2, 5: 1}.get(n, 3))]:
        data = random_jet_data(rng, n, ["X1", "X2"], order, conn_order)
        phi = CoordinateChange.random(rng, n, jet_order(order, conn_order)
                                      + rng.randint(0, 3))
        data.fields["X0"] = [Tensor(n, 1, v) for v in range(order + 1)]
        got = jet_transform(data, phi)
        want = reference_jet_transform(data, components(phi))
        assert got.fields == want.fields
        assert got.conn == want.conn


def test_identity_transform_fixes_jets():
    rng = random.Random(3)
    data = random_jet_data(rng, 2, ["X1"], 2, conn_order=2)
    ident = identity_change(2, 4)
    moved = jet_transform(data, ident)
    for v in range(3):
        assert moved.fields["X1"][v] == data.fields["X1"][v]
        assert moved.conn[v] == data.conn[v]


def _linear_parts(phi):
    """The linear part of phi and its inverse, read as rational matrices
    from their integer forms."""
    n, var = phi.n, phi.pk.var
    return ([[Fraction(phi.comps[a].get(var[j], 0), phi.den)
              for j in range(n)] for a in range(n)],
            [[Fraction(phi.inverse[a].get(j, 0), phi.inverse_den)
              for j in range(n)] for a in range(n)])


def test_coordinate_change_keeps_its_components():
    """A coordinate change packs its components once, exactly: they unpack
    to the ones it was given, and its linear part and that part's inverse
    read back as the exact matrices."""
    rng = random.Random(11)
    for n, trunc in ((1, 2), (2, 4), (3, 3)):
        comps = [_random_poly(rng, n, 1, trunc) for _ in range(n)]
        for a in range(n):
            p_add_into(comps[a], p_var(n, a), 5)  # invertible linear part
        phi = CoordinateChange(n, trunc, comps)
        assert components(phi) == comps
        lin = [[comps[a].get(tuple(int(i == j) for i in range(n)), 0)
                for j in range(n)] for a in range(n)]
        assert _linear_parts(phi) == (lin, mat_inv(lin))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_linear_part_times_its_inverse_is_the_identity(n):
    """The integer inverse a coordinate change keeps is exact: times the
    linear part it gives the identity matrix, both ways round."""
    rng = random.Random(repr(("linear-inverse", n)))
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    for trunc in (1, 2, 3):
        lin, inv = _linear_parts(CoordinateChange.random(rng, n, trunc))
        for a, b in ((lin, inv), (inv, lin)):
            assert [[sum(a[i][k] * b[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)] == ident


def test_coordinate_change_refuses_bad_components():
    x, y = (1, 0), (0, 1)
    with pytest.raises(ValueError):
        CoordinateChange(2, 2, [{(0, 0): Fraction(1), x: 1}, {y: 1}])
    with pytest.raises(ValueError):
        CoordinateChange(2, 2, [{x: 1, (2, 1): Fraction(1, 2)}, {y: 1}])
    with pytest.raises(ZeroDivisionError):
        CoordinateChange(2, 2, [{x: 1, y: 2}, {x: 2, y: 4, (1, 1): 3}])
    with pytest.raises(ZeroDivisionError):
        CoordinateChange(3, 2, [{(1, 0, 0): 1, (0, 1, 0): Fraction(1, 2)},
                                {(0, 0, 1): 3},
                                {(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): 3}])
    # a zero coefficient is no monomial
    phi = CoordinateChange(2, 2, [{x: 1, (0, 0): 0, (3, 0): 0}, {y: 1}])
    assert components(phi) == [{x: 1}, {y: 1}]


def test_linear_transform_of_connection():
    n = 2
    rng = random.Random(4)
    data = random_jet_data(rng, n, [], 0, conn_order=0)
    A = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)]]
    Ainv = mat_inv(A)
    comps = [
        {(1, 0): A[0][0], (0, 1): A[0][1]},
        {(1, 0): A[1][0], (0, 1): A[1][1]},
    ]
    phi = CoordinateChange(n, 3, comps)
    moved = jet_transform(data, phi)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                want = sum(
                    A[a][i] * data.conn[0].get((i, j, k)) * Ainv[j][b] * Ainv[k][c]
                    for i in range(n)
                    for j in range(n)
                    for k in range(n)
                )
                assert moved.conn[0].get((a, b, c)) == want


def test_quadratic_transform_shifts_connection_by_hessian():
    n = 2
    rng = random.Random(6)
    data = random_jet_data(rng, n, [], 0, conn_order=0)
    Q = random_tensor(rng, n, 1, 2)
    comps = []
    for a in range(n):
        p = {tuple(1 if k == a else 0 for k in range(n)): Fraction(1)}
        for key, val in Q.data.items():
            if key[0] != a:
                continue
            e = [0] * n
            for i in key[1:]:
                e[i] += 1
            mult = 2 if key[1] != key[2] else 1
            p[tuple(e)] = p.get(tuple(e), 0) + val * mult
        comps.append(p)
    phi = CoordinateChange(n, 3, comps)
    moved = jet_transform(data, phi)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                want = data.conn[0].get((a, b, c)) - 2 * Q.get((a,), (b, c))
                assert moved.conn[0].get((a, b, c)) == want


def test_transform_is_group_action():
    rng = random.Random(8)
    data = random_jet_data(rng, 2, ["X1"], 1, conn_order=1)
    phi = CoordinateChange.random(rng, 2, 4)
    psi = CoordinateChange.random(rng, 2, 4)
    lhs = jet_transform(data, compose_changes(phi, psi))
    rhs = jet_transform(jet_transform(data, psi), phi)
    for v in range(2):
        assert lhs.fields["X1"][v] == rhs.fields["X1"][v]
        assert lhs.conn[v] == rhs.conn[v]


def test_naturality_of_bracket_and_covariant_derivative():
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    assert naturality_check(b, 3, trials=20, seed=0) is None
    covar = combine(FormalSum.of(nabla_xy()), FormalSum.of(chain_xy()), 1, 1)
    assert naturality_check(covar, 3, trials=20, seed=0) is None


def test_naturality_counterexamples():
    assert naturality_check(FormalSum.of(chain_xy()), 2, trials=20, seed=7) is not None
    assert naturality_check(FormalSum.of(nabla_xy()), 2, trials=20, seed=7) is not None


def test_trilinear_connection_kernel_sample_is_natural():
    # naturality holds in every dimension for true invariant formulas;
    # spot-check a sample of the 26-dimensional kernel at n = 3
    from natops.homology import kernel_basis

    basis = kernel_basis("bullet-nabla-1", 3)
    assert len(basis) == 26
    for x in basis[:6]:
        assert naturality_check(x, 3, trials=5, seed=13) is None


def test_kernel_elements_are_natural_nonkernel_fail():
    from natops.homology import kernel_basis

    for x in kernel_basis("bullet", 2):
        assert naturality_check(x, 2, trials=20, seed=1) is None
    src = enumerate_basis("bullet", 2, 0)
    kernel_vecs = [coordinates(x, src) for x in kernel_basis("bullet", 2)]
    for g in src.graphs:
        x = FormalSum.of(g)
        if spans(kernel_vecs, [coordinates(x, src)]):
            continue
        assert naturality_check(x, 2, trials=20, seed=1) is not None
    srcn = enumerate_basis("bullet-nabla-1", 2, 0)
    kerneln = [coordinates(x, srcn) for x in kernel_basis("bullet-nabla-1", 2)]
    for g in srcn.graphs:
        x = FormalSum.of(g)
        if spans(kerneln, [coordinates(x, srcn)]):
            continue
        assert naturality_check(x, 3, trials=20, seed=1) is not None


def test_infinitesimal_action_matches_rules():
    """The flow derivative realizes the replacement rules: zero on order-0
    field coordinates, the single-term rule on order-1, minus the generator
    on the connection."""
    rng = random.Random(9)
    n = 3
    data = random_jet_data(rng, n, ["X1"], 1, conn_order=0)
    H = random_tensor(rng, n, 1, 2)
    delta = infinitesimal_action(H, data)
    assert not delta.fields["X1"][0].data
    X0 = data.fields["X1"][0]
    for a in range(n):
        for b in range(n):
            want = sum(H.get((a,), (i, b)) * X0.get((i,)) for i in range(n))
            assert delta.fields["X1"][1].get((a,), (b,)) == want
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert delta.conn[0].get((a, b, c)) == -H.get((a,), (b, c))


#: (n, field order, connection order, generator arities) for the flow
#: derivative against the dual-number reference: D = max(K, W + 1) set by
#: the fields, by the connection and by both.
ACTION_CASES = [(1, 0, None, (2,)), (1, 3, None, (2, 3)), (1, 1, 2, (3, 4)),
                (2, 0, 0, (2,)), (2, 2, None, (2, 4)), (2, 0, 2, (2, 3, 4)),
                (2, 3, 1, (3,)), (3, 1, None, (2, 3)), (3, 0, 1, (4,)),
                (3, 2, 0, (2, 3, 4)), (3, 1, 2, (2,)), (3, 3, None, (3, 4))]


@pytest.mark.parametrize("n,order,conn_order,arities", ACTION_CASES,
                         ids=["n%d-K%d-W%s-%s" % (n, K, W, "".join(map(str, s)))
                              for n, K, W, s in ACTION_CASES])
def test_infinitesimal_action_matches_dual_reference(n, order, conn_order,
                                                     arities):
    """The exact interpolation of ordinary transforms equals the flow
    derivative taken with dual numbers through the reference law."""
    rng = random.Random(repr(("action", n, order, conn_order, arities)))
    data = random_jet_data(rng, n, ["X1", "X2"], order, conn_order)
    gens = [random_tensor(rng, n, 1, s) for s in arities]
    got = infinitesimal_action(gens, data)
    want = reference_infinitesimal_action(gens, data)
    assert got.fields == want.fields
    assert got.conn == want.conn


def test_infinitesimal_action_refuses_arity_below_two():
    """A generator of arity 0 or 1 moves the origin or the linear part, so
    the moved jets are not polynomials in the flow time; arities 2 and up
    are accepted."""
    rng = random.Random(11)
    data = random_jet_data(rng, 2, ["X1"], 1, conn_order=1)
    for s in (0, 1):
        with pytest.raises(ValueError, match="arity %d" % s):
            infinitesimal_action(random_tensor(rng, 2, 1, s), data)
    for s in range(2, 6):
        gen = random_tensor(rng, 2, 1, s)
        got = infinitesimal_action(gen, data)
        want = reference_infinitesimal_action([gen], data)
        assert got.fields == want.fields and got.conn == want.conn


def _along(data, delta, eps):
    """The jet data ``data + eps * delta``."""
    def add(t, d):
        values = t.data
        for k, v in d.data.items():
            values[k] = values.get(k, 0) + eps * v
        return Tensor.from_values(t.n, t.nfixed, t.nsym, values)

    conn = None
    if data.conn is not None:
        conn = [add(t, d) for t, d in zip(data.conn, delta.conn)]
    return JetData(data.n, data.order,
                   {lab: [add(t, d) for t, d in zip(arrs, delta.fields[lab])]
                    for lab, arrs in data.fields.items()},
                   conn, data.conn_order)


@pytest.mark.parametrize(
    "family,d,with_conn",
    [
        ("bullet", 2, False),
        ("bullet", 3, False),
        ("bullet-nabla-1", 2, True),
        ("bullet-nabla-1", 3, True),
    ],
)
def test_differential_realizes_as_flow_derivative(family, d, with_conn):
    """Bottom chain-map identity: realizing delta(G) against generators
    equals the first-order variation of realizing G along their flow.

    Realization is multilinear in the arrays, so along data + eps * Delta
    it is a polynomial in eps of degree at most D, the number of arrays a
    graph reads, and its slope at 0 is the Lagrange slope through
    eps = 0, 1, ..., D."""
    from natops.complexes import differential, enumerate_basis

    rng = random.Random(repr((family, d)))
    n = 3
    labels = ["X%d" % i for i in range(1, d + 1)]
    data = random_jet_data(rng, n, labels, d, (d - 1) if with_conn else None)
    gens = {s: random_tensor(rng, n, 1, s) for s in range(2, d + 2)}
    delta = infinitesimal_action(list(gens.values()), data)
    graphs = enumerate_basis(family, d, 0).graphs
    D = max(sum(v.kind in (VECTOR, CONNECTION) for v in g.vertices)
            for g in graphs)
    points = [_along(data, delta, eps) for eps in range(D + 1)]
    for g in graphs:
        lhs = realize(differential(FormalSum.of(g)), data, gens=gens)
        f = [realize(FormalSum.of(g), p) for p in points]
        rhs = [sum(Fraction((-1) ** (k + 1) * comb(D, k), k)
                   * (f[k][a] - f[0][a]) for k in range(1, D + 1))
               for a in range(n)]
        assert lhs == rhs


def test_transformed_vector_value_is_linear_part():
    rng = random.Random(10)
    data = random_jet_data(rng, 2, ["X1"], 1)
    phi = CoordinateChange.random(rng, 2, 3)
    moved = jet_transform(data, phi)
    base = [data.fields["X1"][0].get((a,)) for a in range(2)]
    lin, _ = _linear_parts(phi)
    want = [sum(x * v for x, v in zip(row, base)) for row in lin]
    assert [moved.fields["X1"][0].get((a,)) for a in range(2)] == want
