"""Family bases and the differential: counts, worked examples, d-squared."""

import json
import random
import sys

import pytest

from natops import cli, complexes, rules
from natops.canonical import canonicalize
from natops.complexes import (
    _arities,
    _assignments,
    _slots,
    d_squared_zero,
    delta_graph,
    differential,
    enumerate_basis,
    member,
    wiring_count,
)
from natops.formal import FormalSum, combine
from natops.graphs import (
    CONNECTION,
    EMPTY,
    FAMILIES,
    WHITE,
    Graph,
    disjoint_union,
    is_connected,
)
from natops.homology import h0_dimension, kernel_basis

from .helpers import (
    chain_xy,
    chain_yx,
    nabla_bigrade_split,
    reference_assignments,
    reference_basis,
    reference_connected,
    reference_delta_graph,
    run_keys_rise,
    shuffle_presentation,
    unit,
)
from .test_canonical import SLICES, basis_graphs


@pytest.mark.parametrize(
    "family,d,m,count",
    [
        ("bullet", 2, 0, 4),
        ("bullet", 1, 0, 1),
        ("bullet-nabla-1", 2, 0, 4),
        ("bullet-nabla-1", 2, 1, 1),
        ("bullet-connected", 2, 0, 2),
        ("bullet-wheel", 0, 0, 1),  # the empty graph, the scalar unit
    ],
)
def test_basis_counts(family, d, m, count):
    assert len(enumerate_basis(family, d, m).graphs) == count


def test_basis_is_deterministic_and_memberwise_valid():
    a = enumerate_basis("bullet-nabla-1", 3, 1)
    b = enumerate_basis("bullet-nabla-1", 3, 1)
    assert a.graphs == b.graphs
    fam = FAMILIES["bullet-nabla-1"]
    for g in a.graphs:
        assert member(fam, g, 3, 1)


def test_port_balance_holds_on_members():
    for g in enumerate_basis("bullet-nabla-1", 3, 1).graphs:
        sv = sum(v.order for v in g.vertices if v.kind == "vector")
        sw = sum(v.order for v in g.vertices if v.kind == CONNECTION)
        k = g.count(CONNECTION)
        su = sum(v.order - 1 for v in g.vertices if v.kind == "white")
        assert sv + sw + k + su == 3 - 1


def test_differential_of_chain_is_single_white_graph():
    d = differential(FormalSum.of(chain_xy()))
    assert len(d) == 1
    ((g, c),) = list(d)
    assert c == 1
    assert g.degree == 1
    w = [v for v in g.vertices if v.kind == "white"]
    assert len(w) == 1 and w[0].order == 2


def test_differential_of_unit_and_bracket_vanish():
    assert not differential(FormalSum.of(unit()))
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    assert not differential(b)


def test_differential_rejects_mixed_degree():
    x = FormalSum.of(chain_xy())
    y = differential(x)
    mixed = x + y
    with pytest.raises(ValueError):
        differential(mixed)


def test_degree_raises_by_one():
    for g in enumerate_basis("bullet-nabla-1", 2, 1).graphs:
        for t, _ in delta_graph(g):
            assert t.degree == 2


def test_connectivity_preserved_on_connected_families():
    for g in enumerate_basis("bullet-nabla-1", 3, 0).graphs:
        for t, _ in delta_graph(g):
            assert is_connected(t)


def _shift_labels(g, offset):
    from natops.graphs import relabel

    mapping = {}
    for v in g.vertices:
        if v.kind == "vector":
            mapping[v.label] = "X%d" % (int(v.label[1:]) + offset)
    return relabel(g, mapping)


def test_component_rule_on_disjoint_unions():
    """delta(G1 u G2) = delta(G1) u G2 + (-1)^{deg G1} G1 u delta(G2)."""
    rng = random.Random(2)
    anchored = list(enumerate_basis("bullet", 2, 0).graphs) + list(
        enumerate_basis("bullet", 2, 1).graphs
    )
    wheels = list(enumerate_basis("bullet-wheel", 2, 0).graphs) + list(
        enumerate_basis("bullet-wheel", 2, 1).graphs
    )
    for _ in range(25):
        g1 = rng.choice(anchored)
        g2 = _shift_labels(rng.choice(wheels), 2)
        both = disjoint_union(g1, g2)
        lhs = differential(FormalSum.of(both))
        rhs = FormalSum()
        for t, c in delta_graph(g1):
            rhs.add_graph(disjoint_union(t, g2), c)
        sign = (-1) ** g1.degree
        for t, c in delta_graph(g2):
            rhs.add_graph(disjoint_union(g1, t), sign * c)
        assert lhs == rhs


@pytest.mark.parametrize(
    "family,d",
    [
        ("bullet", 2),
        ("bullet", 3),
        ("bullet-wheel", 2),
        ("bullet-wheel", 3),
        ("bullet-nabla-1", 2),
        ("bullet-nabla-1", 3),
        ("bullet-nabla-wheel", 2),
        ("bullet-nabla-wheel", 3),
        ("bullet-nabla-trace", 1),
        ("bullet-nabla", 2),
        ("bullet-connected", 3),
    ],
)
def test_d_squared_zero_small(family, d):
    rep = d_squared_zero(family, d)
    assert rep.failures == []
    assert rep.checked > 0


def test_d2check_finds_a_broken_rule(monkeypatch, tmp_path):
    """One white-rule term with a wrong coefficient breaks delta^2 = 0:
    d_squared_zero reports each basis graph whose delta(delta g), worked
    out by the reference differential under the same rule, is nonzero,
    with that residue, and d2check exits 1."""
    replace_white = rules.replace_white
    good = replace_white(3)
    bad = good._replace(terms=(good.terms[0]._replace(coeff=2),)
                        + good.terms[1:])
    monkeypatch.setattr(
        rules, "replace_white", lambda u: bad if u == 3 else replace_white(u))
    monkeypatch.setattr(complexes, "_PLANS", {})
    want = {}
    for m in (0, 1):
        for g in enumerate_basis("bullet", 3, m).graphs:
            r = FormalSum()
            for h, c in reference_delta_graph(g):
                for k, e in reference_delta_graph(h):
                    r.add_canonical(k, c * e)
            if r:
                want[g] = r
    rep = d_squared_zero("bullet", 3)
    assert want and dict(rep.failures) == want
    assert len(rep.failures) == len(want)
    out = tmp_path / "d2.json"
    assert cli.run(["d2check", "--family", "bullet", "--d", "3",
                    "--out", str(out)]) == 1
    assert len(json.loads(out.read_text())["failures"]) == len(want)


def test_no_module_keeps_differentials():
    """The differential is kept only where it is read back, in the memo
    of one d_squared_zero or kernel_basis call: after h0 and kernel bases
    no natops module holds a table of formal sums."""
    h0_dimension("bullet", 4)
    kernel_basis("bullet", 3)
    for name, module in list(sys.modules.items()):
        if name != "natops" and not name.startswith("natops."):
            continue
        for attr, value in vars(module).items():
            assert not (isinstance(value, dict) and any(
                isinstance(v, FormalSum) for v in value.values())), (
                "%s.%s holds formal sums" % (name, attr))


def test_bigrade_split():
    for g in enumerate_basis("bullet-nabla-1", 3, 0).graphs:
        same, less = nabla_bigrade_split(g)  # raises on any other jump
        total = differential(FormalSum.of(g))
        assert same + less == total


def _split_reference(g):
    k = g.count(CONNECTION)
    parts = {0: FormalSum(), -1: FormalSum()}
    for cg, c in reference_delta_graph(g):
        parts[cg.count(CONNECTION) - k].add_canonical(cg, c)
    return parts[0], parts[-1]


def test_empty_graph_is_scalar_unit_slice():
    bs = enumerate_basis("bullet-wheel", 0, 0)
    assert bs.graphs == (EMPTY,)
    assert not differential(FormalSum.of(EMPTY))


@pytest.mark.parametrize("family,d", [("bullet", 3), ("bullet-wheel", 3),
                                      ("bullet-nabla-1", 3),
                                      ("bullet-nabla-trace", 2)])
def test_wiring_count_counts_the_wirings_built(family, d):
    fam = FAMILIES[family]
    for m in (0, 1, 2):
        built = 0
        for vs, ws, us in _arities(fam, d, m):
            verts, sources, groups = _slots(fam, d, vs, ws, us)
            assert sum(size for _, _, size in groups) == len(sources)
            built += sum(1 for _ in reference_assignments(groups, sources,
                                                          len(verts)))
        assert wiring_count(fam, d, m) == built
        if built:
            half = built // 2
            assert half < wiring_count(fam, d, m, limit=half) <= built


def _presentations(g, rng):
    """``g``, a shuffle of it, and the shuffle with its white order
    reversed: two presentations with one vertex tuple and, from two
    whites on, two white orders."""
    h, _ = shuffle_presentation(g, rng)
    return g, h, Graph(h.vertices, h.out, h.white_order[::-1])


@pytest.mark.parametrize("family,dmax", SLICES)
def test_delta_matches_reference(family, dmax):
    # one Graph per term through FormalSum.add_graph, against the
    # presentations delta_graph hands to canonicalize
    rng = random.Random(family)
    for g in basis_graphs(family, dmax):
        for h in _presentations(g, rng):
            got = delta_graph(h)
            assert got == reference_delta_graph(h)
            assert all(type(c) is int for _, c in got)
            if family in ("bullet-nabla", "bullet-nabla-1"):
                assert nabla_bigrade_split(h) == _split_reference(h)


@pytest.mark.parametrize("family,d", [("bullet-connected", 4),
                                      ("bullet-wheel", 4),
                                      ("bullet-nabla-1", 3)])
def test_raw_connectivity_matches_is_connected(family, d):
    fam = FAMILIES[family]
    seen = {True: 0, False: 0}
    for m in range(d + 1):
        for vs, ws, us in _arities(fam, d, m):
            verts, sources, groups = _slots(fam, d, vs, ws, us)
            for out in reference_assignments(groups, sources, len(verts)):
                want = is_connected(Graph(verts, out))
                assert reference_connected(out) == want
                seen[want] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("family,dmax", [("bullet-connected", 5),
                                         ("bullet-wheel", 4),
                                         ("bullet-nabla-1", 4),
                                         ("bullet-nabla-wheel", 3),
                                         ("bullet-nabla-trace", 2)])
def test_pruned_fill_deals_the_connected_wirings(family, dmax):
    # the fill that drops a partial wiring once it closes too many cycles,
    # against every wiring dealt and then filtered by the reference
    fam = FAMILIES[family]
    kept = dropped = 0
    for d in range(dmax + 1):
        for m in range(d + 1):
            for vs, ws, us in _arities(fam, d, m):
                verts, sources, groups = _slots(fam, d, vs, ws, us)
                if sum(size for _, _, size in groups) != len(sources):
                    continue
                n = len(verts)
                every = set(reference_assignments(groups, sources, n))
                want = {out for out in every if reference_connected(out)}
                cycles = len(sources) - (n - 1)
                got = list(reference_assignments(groups, sources, n, cycles))
                assert len(got) == len(set(got))
                assert set(got) == want
                kept += len(want)
                dropped += len(every) - len(want)
    assert kept and dropped


def _dealings(fam, d, m):
    """Per arity multiset of the slice: its vertices, sources, slot
    groups and the cycle bound of a connected family."""
    for vs, ws, us in _arities(fam, d, m):
        verts, sources, groups = _slots(fam, d, vs, ws, us)
        cycles = len(sources) - (len(verts) - 1) if fam.connected else None
        yield tuple(verts), sources, groups, cycles


# the slices some test of the suite enumerates in-process besides those
# of SLICES at degrees 0-2, as (d, degree)
BEYOND = {"bullet": [(3, 3), (4, 3), (4, 4), (5, 0), (5, 1)],
          "bullet-connected": [(5, 0)],
          "bullet-wheel": [(3, 3), (4, 3), (4, 4), (5, 0)],
          "bullet-nabla": [(4, 0), (4, 1)],
          "bullet-nabla-1": [(4, 0), (4, 1)],
          "bullet-nabla-wheel": [(3, 3), (4, 0), (4, 1)],
          "bullet-nabla-trace": [(4, 0), (4, 1)]}


@pytest.mark.parametrize("family,dmax", SLICES)
def test_basis_matches_reference_dealer(family, dmax):
    # every slice the suite enumerates, against every wiring of the
    # reference dealer canonicalized, deduplicated and sorted by key
    slices = [(d, m) for d in range(dmax + 1) for m in (0, 1, 2)]
    for d, m in slices + BEYOND[family]:
        want = reference_basis(family, d, m)
        assert enumerate_basis(family, d, m).graphs == want, (d, m)


@pytest.mark.parametrize("family,dmax", SLICES)
def test_dealer_keeps_the_wirings_whose_run_keys_rise(family, dmax):
    # of the reference dealer's wirings, each once, exactly those whose
    # run keys do not decrease, and between them every canonical graph
    fam = FAMILIES[family]
    kept = dropped = 0
    for d in range(dmax + 1):
        for m in (0, 1, 2):
            for verts, sources, groups, cycles in _dealings(fam, d, m):
                every = set(reference_assignments(groups, sources,
                                                  len(verts), cycles))
                got = list(_assignments(groups, sources, verts, cycles))
                assert len(got) == len(set(got))
                assert set(got) == {out for out in every
                                    if run_keys_rise(verts, groups, out)}
                whites = tuple(i for i, v in enumerate(verts)
                               if v.kind == WHITE)
                graphs = [{canonicalize(Graph(verts, out, whites))[0]
                           for out in outs} for outs in (got, every)]
                assert graphs[0] == graphs[1]
                kept += len(got)
                dropped += len(every) - len(got)
    assert kept and dropped


@pytest.mark.parametrize("family,dealt,every", [("bullet-nabla-1", 844, 1684),
                                                ("bullet-nabla", 4756, 10396)])
def test_dealt_wiring_counts(family, dealt, every):
    # degree 0 at d = 4: the dealer against the reference, which deals
    # each swap of two equal connections or whites again
    got = want = 0
    for verts, sources, groups, cycles in _dealings(FAMILIES[family], 4, 0):
        got += sum(1 for _ in _assignments(groups, sources, verts, cycles))
        want += sum(1 for _ in reference_assignments(groups, sources,
                                                     len(verts), cycles))
    assert (got, want) == (dealt, every)
