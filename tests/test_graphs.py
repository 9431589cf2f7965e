"""Graph core: validation, canonical forms, orientation signs, sums."""

import random
from fractions import Fraction

import pytest

from natops.canonical import ZERO, canonicalize, key_bytes
from natops.complexes import delta_graph, enumerate_basis
from natops.formal import FormalSum, combine
from natops.graphs import (
    EMPTY,
    SYM,
    Graph,
    anchor,
    component_ids,
    components,
    cycles,
    disjoint_union,
    is_connected,
    validate,
    vector,
    white,
)

from .helpers import (
    chain_xy,
    chain_yx,
    reference_component_ids,
    reference_cycles,
    reference_wheel_vertices,
    shuffle_presentation,
    unit,
    wheel_length,
)


def test_unit_graph_is_legal():
    assert validate(unit()) == []


def test_white_arity_bound():
    g = Graph((vector("X1"), white(1), anchor), ((1, SYM), (2, SYM), None))
    assert any("white arity" in v for v in validate(g))


def test_open_connection_slot_detected():
    from natops.graphs import connection

    # base slot 1 of the connection never filled
    g = Graph(
        (vector("X1"), connection(0), anchor),
        ((1, 0), (2, SYM), None),
    )
    assert any("open input slot" in v for v in validate(g))


def test_relabeled_presentations_share_key():
    rng = random.Random(7)
    g = chain_xy()
    base, s0 = canonicalize(g)
    assert s0 == 1
    for _ in range(10):
        h, _ = shuffle_presentation(g, rng)
        cg, sign = canonicalize(h)
        assert cg == base
        assert sign == 1  # no whites, no sign


def test_bracket_monomials_have_distinct_keys():
    assert key_bytes(canonicalize(chain_xy())[0]) != key_bytes(
        canonicalize(chain_yx())[0]
    )


def test_odd_automorphism_gives_zero():
    w = white(2)
    g = Graph(
        (vector("Y", 0), vector("Y", 0), w, w),
        ((2, SYM), (3, SYM), (3, SYM), (2, SYM)),
        (2, 3),
    )
    assert validate(g) == []
    cg, _ = canonicalize(g)
    assert cg is ZERO


def test_components_of_trace_graph():
    g = Graph(
        (vector("X1", 0), vector("X2", 1), anchor),
        ((2, SYM), (1, SYM), None),
    )
    comps = components(g)
    assert len(comps) == 2
    assert len(components(unit())) == 1
    assert components(EMPTY) == []
    rebuilt = comps[0]
    for c in comps[1:]:
        rebuilt = disjoint_union(rebuilt, c)
    assert canonicalize(rebuilt)[0] == canonicalize(g)[0]


def test_combine_basics():
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    assert len(b) == 2
    assert not combine(b, b, 1, -1)
    g = FormalSum.of(unit())
    half = combine(g, g, Fraction(1, 2), Fraction(1, 2))
    assert half == g


def test_combine_bilinear_assoc_comm():
    rng = random.Random(5)
    pool = [FormalSum.of(g) for g in enumerate_basis("bullet", 3, 0).graphs[:6]]
    for _ in range(25):
        a, b, c = (rng.choice(pool) for _ in range(3))
        al, be = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
        assert combine(a, b, al, be) == combine(b, a, be, al)
        assert (a + b) + c == a + (b + c)
        assert combine(a, b, al, al) == (a + b).scale(al)


@pytest.mark.parametrize("family,d", [("bullet", 3), ("bullet-nabla-1", 3)])
def test_edge_count_law_anchored(family, d):
    for m in (0, 1):
        for g in enumerate_basis(family, d, m).graphs:
            for comp in components(g):
                e = sum(1 for x in comp.out if x is not None)
                v = len(comp.vertices)
                if comp.has_anchor():
                    assert e == v - 1
                else:
                    assert e == v
                    assert wheel_length(comp) >= 1


def test_edge_count_law_wheel():
    for g in enumerate_basis("bullet-wheel", 3, 1).graphs:
        assert is_connected(g)
        assert sum(1 for x in g.out if x is not None) == len(g.vertices)
        assert wheel_length(g) >= 1


def _assert_walk_matches_references(g):
    assert component_ids(g) == reference_component_ids(g), g
    assert is_connected(g) == (max(reference_component_ids(g), default=0) == 0)
    assert cycles(g) == reference_cycles(g), g
    assert wheel_length(g) == len(reference_wheel_vertices(g)), g


@pytest.mark.parametrize("family,d", [
    ("bullet", 1), ("bullet", 2), ("bullet", 3), ("bullet", 4),
    ("bullet-wheel", 1), ("bullet-wheel", 2), ("bullet-wheel", 3),
    ("bullet-wheel", 4), ("bullet-nabla-wheel", 1),
    ("bullet-nabla-wheel", 2), ("bullet-nabla-wheel", 3)])
def test_walk_matches_union_find_and_cycle_finder(family, d):
    """One walk along out-edges gives the components and cycles the
    union-find and the quadratic cycle finder give, on every basis graph
    and delta term of the slices and on a shuffled presentation of each."""
    rng = random.Random(repr(("walks", family, d)))
    seen = 0
    for m in range(d + 1):
        for g in enumerate_basis(family, d, m).graphs:
            for h in [g] + [t for t, _ in delta_graph(g)]:
                _assert_walk_matches_references(h)
                _assert_walk_matches_references(shuffle_presentation(h, rng)[0])
                seen += 1
    assert seen


def test_walk_on_several_cycles_and_trees():
    """Components whose least vertices order them differently from their
    cycles, a vertex without an out-edge that is no anchor, and a tree
    hanging off a cycle."""
    x = vector("X1", 1)
    g = Graph((x, x, x, x, x, x, anchor, vector("X2")),
              ((5, SYM), (2, SYM), (3, SYM), (2, SYM), (4, SYM), (4, SYM),
               None, None))
    _assert_walk_matches_references(g)
    assert component_ids(g) == [0, 1, 1, 1, 0, 0, 2, 3]
    assert cycles(g) == ((2, 3), (4,))
    assert not is_connected(g) and is_connected(EMPTY)


def test_canonical_stability_random_graphs():
    """1000 legal graphs, 10 presentations each: identical keys, coherent
    signs per the white-order parity."""
    rng = random.Random(11)
    pool = []
    for fam, dmax in [("bullet", 4), ("bullet-wheel", 4), ("bullet-nabla-1", 3)]:
        for d in range(1, dmax + 1):
            for m in (0, 1, 2):
                pool.extend(enumerate_basis(fam, d, m).graphs)
            if len(pool) > 1400:
                break
    rng.shuffle(pool)
    pool = pool[:1000]
    assert len(pool) == 1000
    for g in pool:
        key, sign0 = canonicalize(g)
        for _ in range(10):
            h, flip = shuffle_presentation(g, rng)
            cg, sign = canonicalize(h)
            assert cg == key
            assert sign == sign0 * flip


def test_graphs_from_tuples_hash_on_first_use():
    for g in enumerate_basis("bullet-wheel", 3, 1).graphs + (chain_xy(),):
        fields = (g.vertices, g.out, g.white_order)
        assert {Graph(*fields): 1}[Graph.from_tuples(*fields)] == 1
        assert {Graph.from_tuples(*fields): 1}[Graph(*fields)] == 1
        made, taken = Graph(*fields), Graph.from_tuples(*fields)
        assert taken == made and made == taken
        assert hash(taken) == hash(made) == hash(g)
