"""The fast canonical form against the reference search, bit for bit, and
the sharing of canonical graphs and their edge pairs."""

import random
import time

import pytest

from natops import canonical, complexes
from natops.canonical import ZERO, canonicalize, key_bytes, start_of
from natops.complexes import delta_graph, delta_graph_cached, enumerate_basis
from natops.graphs import (
    FAMILIES,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    Vertex,
    anchor,
    connection,
    relabel,
    validate,
    vector,
    white,
)

from .helpers import (
    reference_assignments,
    reference_canonicalize,
    reference_key_bytes,
    reference_start,
    shuffle_presentation,
)

# every slice some other test of the suite enumerates, to degree 2
SLICES = [("bullet", 4), ("bullet-connected", 4), ("bullet-wheel", 4),
          ("bullet-nabla", 3), ("bullet-nabla-1", 3),
          ("bullet-nabla-wheel", 3), ("bullet-nabla-trace", 2)]

# raw presentations delta_graph hands to canonicalize from the basis
# graphs of degrees 0 and 1 of each slice: 10 515 in all, and with the
# basis graphs, shuffled and relabelled, 58 148 compared presentations
RAW_TERMS = {"bullet": 2878, "bullet-connected": 648, "bullet-wheel": 3744,
             "bullet-nabla": 550, "bullet-nabla-1": 136,
             "bullet-nabla-wheel": 2451, "bullet-nabla-trace": 108}
COMPARED = {"bullet": 16836, "bullet-connected": 3684, "bullet-wheel": 19656,
            "bullet-nabla": 3448, "bullet-nabla-1": 848,
            "bullet-nabla-wheel": 13000, "bullet-nabla-trace": 676}
assert sum(RAW_TERMS.values()) == 10515 and sum(COMPARED.values()) == 58148


def basis_graphs(family, dmax):
    """The basis graphs of ``family`` for d <= dmax, degrees 0..2."""
    return [g for d in range(dmax + 1) for m in (0, 1, 2)
            for g in enumerate_basis(family, d, m).graphs]


def _raw_terms(monkeypatch, graphs):
    """The raw presentation of every term delta_graph hands to
    canonicalize from ``graphs``; the plan's start is passed on."""
    raw = []

    def record(g, start=None):
        raw.append(g)
        return canonicalize(g, start)

    monkeypatch.setattr(complexes, "canonicalize", record)
    for g in graphs:
        delta_graph(g)
    monkeypatch.undo()
    return raw


def _presentations(monkeypatch, family, dmax):
    """Basis graphs of degrees 0..2 and the raw presentation of every term
    delta_graph hands to canonicalize from those of degrees 0 and 1."""
    graphs = basis_graphs(family, dmax)
    raw = _raw_terms(monkeypatch, [g for g in graphs if g.degree < 2])
    assert len(raw) == RAW_TERMS[family]
    return graphs, raw


def _matches_reference(basis, gs):
    """Does every presentation in ``gs`` give the reference's canonical
    form and sign, as the one shared object of its graph, a basis graph
    being its own?"""
    shared = {g: g for g in basis}
    for g in gs:
        want = reference_canonicalize(g)
        got = canonicalize(g)
        if want[0] is ZERO:
            assert got == (ZERO, 1)
        else:
            assert got == want
            assert shared.setdefault(got[0], got[0]) is got[0]
    assert all(_shared_edges(cg) for cg in shared)


def _shared_edges(g):
    """Is every edge of ``g`` the shared pair for its position and slot?"""
    return all(e is None or e is canonical._PAIRS[e[0]][e[1]] for e in g.out)


def _all_x(g):
    return relabel(g, {v.label: "X" for v in g.vertices if v.kind == VECTOR})


@pytest.mark.parametrize("family,dmax", SLICES)
def test_canonicalize_matches_reference(monkeypatch, family, dmax):
    rng = random.Random(family)
    basis, raw = _presentations(monkeypatch, family, dmax)
    gs = basis + raw
    gs += [shuffle_presentation(g, rng)[0] for g in gs]
    gs += [_all_x(g) for g in gs]
    assert len(gs) == COMPARED[family]
    _matches_reference(basis, gs)


# the d = 5 degree-0 slices of the families without connections, and the
# raw presentations of their differentials' terms: 47 604 presentations
D5_BASIS = {"bullet": 3125, "bullet-connected": 625, "bullet-wheel": 1569}
D5_RAW_TERMS = {"bullet": 21050, "bullet-connected": 4210,
                "bullet-wheel": 17025}


@pytest.mark.parametrize("family", sorted(D5_BASIS))
def test_canonicalize_matches_reference_at_d5(monkeypatch, family):
    basis = enumerate_basis(family, 5, 0).graphs
    raw = _raw_terms(monkeypatch, basis)
    assert (len(basis), len(raw)) == (D5_BASIS[family], D5_RAW_TERMS[family])
    _matches_reference(basis, list(basis) + raw)


def _fan(k):
    """k copies of X1 feeding one white(k), anchored: k! discrete leaves
    without twin pruning."""
    return Graph([vector("X1")] * k + [white(k), anchor],
                 [(k, SYM)] * k + [(k + 1, SYM), None])


@pytest.mark.parametrize("k", range(2, 8))
def test_twin_fan_matches_reference(k):
    assert canonicalize(_fan(k)) == reference_canonicalize(_fan(k))


def test_twin_fan_of_twelve_is_fast():
    start = time.perf_counter()
    cg, sign = canonicalize(_fan(12))
    assert time.perf_counter() - start < 1
    assert sign == 1 and len(cg.vertices) == 14


def _self_loops(k):
    """k order-1 X1 fields, each on its own self-loop: one tied cell that
    refinement never splits, so the search reaches k! leaves."""
    return Graph([vector("X1", 1)] * k, [(i, SYM) for i in range(k)])


def test_search_at_the_leaf_budget_matches_reference():
    assert canonical.MAX_LEAVES == 5040  # 7!
    assert canonicalize(_self_loops(7)) == reference_canonicalize(_self_loops(7))


def test_search_past_the_leaf_budget_is_refused():
    with pytest.raises(canonical.SearchBudgetError):
        canonicalize(_self_loops(8))


def _white_subtrees():
    # two white(2) fed by twin X1 pairs into a third white
    x, w = vector("X1"), white(2)
    return Graph([x, x, x, x, w, w, w, anchor],
                 [(4, SYM), (4, SYM), (5, SYM), (5, SYM),
                  (6, SYM), (6, SYM), (7, SYM), None])


def _connection_subtrees():
    # two tied connections sharing an out-edge, each over a white: they
    # are the first tied cell, and they are not twins
    x, w, c = vector("X"), white(2), connection(0)
    return Graph([x, x, x, x, x, x, w, w, c, c, w, anchor],
                 [(6, SYM), (6, SYM), (7, SYM), (7, SYM), (8, 1), (9, 1),
                  (8, 0), (9, 0), (10, SYM), (10, SYM), (11, SYM), None])


@pytest.mark.parametrize("build", [_white_subtrees, _connection_subtrees])
def test_subtrees_swapping_whites_give_zero(build):
    # swapping the two subtrees is an odd permutation of the whites
    g = build()
    assert validate(g) == []
    assert reference_canonicalize(g) == (ZERO, 1)
    assert canonicalize(g) == (ZERO, 1)


def _white_chain():
    # the vertex tuple of _white_subtrees wired as a chain of whites: no
    # two whites to swap, so no ZERO
    x, w = vector("X1"), white(2)
    return Graph([x, x, x, x, w, w, w, anchor],
                 [(4, SYM), (4, SYM), (5, SYM), (6, SYM),
                  (5, SYM), (6, SYM), (7, SYM), None])


def _ties_survive(g):
    """Does a tie survive the refinement of ``g``'s initial partition, so
    that canonicalize goes on from the first round into the search?"""
    colors, cells, pos, _, _ = canonical._start(g.vertices)
    return pos is None and canonical._refine(g.out, list(colors), cells)[1]


@pytest.mark.parametrize("build", [_white_subtrees, _connection_subtrees,
                                   lambda: _fan(2), lambda: _fan(5)],
                         ids=["white", "connection", "fan2", "fan5"])
def test_ties_after_the_first_round_match_reference(monkeypatch, build):
    monkeypatch.setattr(canonical, "_STARTS", {})
    g = build()
    assert _ties_survive(g)
    # the first call fills the table's entry, the second reads it, and a
    # shuffled presentation has an entry of its own
    for h in (g, g, shuffle_presentation(g, random.Random(0))[0]):
        assert canonicalize(h) == reference_canonicalize(h)


def test_unequal_vertices_of_one_cell_match_reference():
    # an unlabelled and an empty-labelled field share their initial cell,
    # and the refinement puts them in the order their presentation does
    # not: the canonical vertex tuple comes from the leaf, not the table
    blank, empty = Vertex(VECTOR, None, 0), Vertex(VECTOR, "", 0)
    for a, b in [(3, 4), (4, 3)]:
        g = Graph([blank, empty, vector("Y"), white(2), white(2), anchor],
                  [(a, SYM), (b, SYM), (3, SYM), (4, SYM), (5, SYM), None])
        assert canonicalize(g) == reference_canonicalize(g)


def _same_vertices():
    """Groups of graphs that share their vertex tuple and differ in their
    edges: the two wirings of _white_subtrees' vertices, and the wirings
    of the bullet d = 4 degree-1 arity multiset with the most of them."""
    groups = [[_white_subtrees(), _white_chain()]]
    family = FAMILIES["bullet"]
    best = []
    for vs, ws, us in complexes._arities(family, 4, 1):
        verts, sources, slot_groups = complexes._slots(family, 4, vs, ws, us)
        verts = tuple(verts)
        whites = tuple(i for i, v in enumerate(verts) if v.kind == WHITE)
        wired = [Graph.from_tuples(verts, out, whites) for out in
                 reference_assignments(slot_groups, sources, len(verts))]
        best = max(best, wired, key=len)
    groups.append(best)
    return groups


@pytest.mark.parametrize("reverse", [False, True])
def test_shared_vertex_tuples_match_reference(monkeypatch, reverse):
    # the table of initial partitions starts empty, so the first graph of
    # each group fills the entry every later one reads
    starts = {}
    monkeypatch.setattr(canonical, "_STARTS", starts)
    groups = _same_vertices()
    assert [len(gs) for gs in groups] == [2, 60]
    # some graphs of a group are discrete after the first round, some go
    # on into the search
    assert {bool(_ties_survive(g)) for gs in groups for g in gs} \
        == {False, True}
    for gs in groups:
        assert len({g.vertices for g in gs}) == 1
        assert len({g.out for g in gs}) == len(gs)
        for g in gs[::-1] if reverse else gs:
            want = reference_canonicalize(g)
            assert canonicalize(g) == (want if want[0] is not ZERO
                                       else (ZERO, 1))
    # every entry equals a freshly computed one and is made of tuples
    assert len(starts) == len(groups)
    for verts, entry in starts.items():
        assert entry == canonical._start(verts)
        colors, cells, pos, cverts, sid = entry
        assert all(type(c) is tuple for c in (colors, cells, cverts, *cells))
        assert pos is None or pos is colors
        assert sid == canonical._SIDS[cverts]


def test_delta_cache_holds_one_object_per_graph(monkeypatch):
    # a memory guard on object counts, not on RSS: every key and term of
    # the memo d_squared_zero fills, reached through the module global
    # complexes.delta_graph_cached, is the one shared object of its graph.
    # The memo keeps only what is read again: no degree-0 graph ever goes
    # in, and on return only the degree-2 terms are left
    memos = []
    degrees = set()

    def recording(g, memo):
        if not any(memo is m for m in memos):
            memos.append(memo)
        degrees.add(g.degree)
        return delta_graph_cached(g, memo)

    monkeypatch.setattr(complexes, "delta_graph_cached", recording)
    assert complexes.d_squared_zero("bullet-connected", 4).failures == []
    assert len(memos) == 1
    assert degrees == {1, 2}
    memo = memos[0]
    assert {g.degree for g in memo} == {2}
    graphs = []
    for g, dg in memo.items():
        graphs.append(g)
        graphs.extend(cg for cg, _ in dg)
    assert len(graphs) > len(memo) > 0
    assert len({id(g) for g in graphs}) == len(set(graphs))
    assert all(_shared_edges(g) for g in graphs)


def test_graphs_of_one_vertex_tuple_and_white_set_share_one_entry(
        monkeypatch):
    # a memory guard on object counts, not on RSS: with the table of
    # canonical graphs started empty, the bullet d = 4 bases of degrees 0-2
    # fill one entry per canonical vertex tuple and white set, and every
    # graph of the entry holds its one white order object
    shared = {}
    monkeypatch.setattr(canonical, "_SHARED", shared)
    classes = {}
    for m in (0, 1, 2):
        for g in enumerate_basis("bullet", 4, m).graphs:
            classes.setdefault((g.vertices, g.white_order), []).append(g)
    assert {len(g.white_order) for gs in classes.values() for g in gs} \
        == {0, 1, 2}
    assert max(map(len, classes.values())) > 1
    for gs in classes.values():
        assert len({id(g.white_order) for g in gs}) == 1
    assert len(shared) == len(classes)
    assert sum(len(graphs) for _, graphs in shared.values()) \
        == sum(map(len, classes.values()))


@pytest.mark.parametrize("family,dmax", SLICES)
def test_key_bytes_matches_reference(family, dmax):
    graphs = basis_graphs(family, dmax)
    assert graphs
    for g in graphs + [ZERO]:
        assert key_bytes(g) == reference_key_bytes(g)


def test_start_of_matches_reference(monkeypatch):
    # fresh starts and plans, so that every entry is made here:
    # the vertex tuples of every basis graph of SLICES at degrees 0-2, and
    # those of the plan rows of their differentials
    monkeypatch.setattr(complexes, "_PLANS", {})
    monkeypatch.setattr(canonical, "_STARTS", {})
    tuples = set()
    for family, dmax in SLICES:
        for g in basis_graphs(family, dmax):
            tuples.add(g.vertices)
            delta_graph(g)
    rows = {row[0] for plan in complexes._PLANS.values()
            for _, _, rows in plan for row in rows}
    assert len(rows - tuples) > 100
    # and a cell of unequal vertices, an unlabelled and an empty-labelled
    # field, whose canonical vertex tuple only the leaf decides
    blank, empty = Vertex(VECTOR, None, 0), Vertex(VECTOR, "", 0)
    odd = {(blank, empty, white(2), anchor), (empty, blank, white(2), anchor)}
    every = tuples | rows | odd
    for verts in every:
        assert start_of(verts)[:4] == reference_start(verts)
    # every canonical vertex tuple has one id, whatever order it was
    # presented in, and no two have the same; a leaf-decided start has none
    shown = {}
    for verts in every:
        _, _, _, cverts, sid = start_of(verts)
        assert (cverts is None) == (sid is None) == (verts in odd)
        if cverts is not None:
            shown.setdefault(cverts, set()).add((verts, sid))
    assert max(map(len, shown.values())) > 1
    ids = {sid for pairs in shown.values() for _, sid in pairs}
    assert all(len({sid for _, sid in pairs}) == 1
               for pairs in shown.values())
    assert len(ids) == len(shown)


def test_plan_rows_hold_the_start_of_their_vertex_tuple(monkeypatch):
    # fresh plans and starts, so that every row is made and checked here
    monkeypatch.setattr(complexes, "_PLANS", {})
    monkeypatch.setattr(canonical, "_STARTS", {})
    for family, dmax in SLICES:
        for g in basis_graphs(family, dmax):
            delta_graph(g)
    rows = [row for plan in complexes._PLANS.values()
            for _, _, rows in plan for row in rows]
    assert len(rows) > 1000
    for tverts, whites, _, ports, own, start in rows:
        assert start == canonical._start(tverts)
        assert start is canonical._STARTS[tverts]
        # every edge a row holds enters a vertex of the term
        assert all(0 <= i < len(tverts) for i, _ in ports + own)
