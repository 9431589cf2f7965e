"""Operad structure: insertions, symmetric actions, bracket words, trace."""

import json
import os
import random
from collections import Counter

import pytest

from natops import operad
from natops.canonical import canonicalize, key_bytes
from natops.cli import MAX_COMPOSE_MONOMIALS, MAX_WORD_LEAVES
from natops.complexes import differential, enumerate_basis
from natops.formal import FormalSum, combine
from natops.graphs import SYM, Graph, anchor, vector
from natops.homology import kernel_basis
from natops.operad import (
    arity,
    bracket_element,
    compose,
    covariant_element,
    lie_expand,
    monomial_count,
    p_graph,
    parse_word,
    sigma_action,
    trace_map,
    trace_sum,
    unit_graph,
)

from .helpers import (
    coordinates,
    reference_monomial_compose,
    reference_trace_map,
    spans,
    wheel_length,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def chain3():
    return Graph(
        (vector("X1", 1), vector("X2", 1), vector("X3", 0), anchor),
        ((3, SYM), (0, SYM), (1, SYM), None),
    )


def branch3():
    return Graph(
        (vector("X1", 2), vector("X2", 0), vector("X3", 0), anchor),
        ((3, SYM), (0, SYM), (0, SYM), None),
    )


def test_p_compositions_match_displays():
    p = FormalSum.of(p_graph())
    assert compose(p, 1, p) == combine(
        FormalSum.of(chain3()), FormalSum.of(branch3()), 1, 1
    )
    assert compose(p, 2, p) == FormalSum.of(chain3())


def test_monomial_count_is_blacks_to_inputs():
    # X1 of p has one input, the inserted p has two blacks: 2^1 monomials
    from natops.operad import _monomial_compose

    assert len(_monomial_compose(p_graph(), 1, p_graph())) == 2
    assert len(_monomial_compose(p_graph(), 2, p_graph())) == 1


def test_monomial_count_random_pairs():
    from natops.operad import _monomial_compose

    rng = random.Random(8)
    pool = [
        g
        for d in (1, 2)
        for g in enumerate_basis("bullet", d, 0).graphs
    ]
    for _ in range(30):
        g1 = rng.choice(pool)
        g2 = rng.choice(pool)
        i = rng.randint(1, len(g1.labels()))
        inserted = next(
            v for v in g1.vertices
            if v.kind == "vector" and v.label == "X%d" % i
        )
        blacks = sum(1 for v in g2.vertices if v.kind == "vector")
        assert len(_monomial_compose(g1, i, g2)) == blacks ** inserted.order


def test_monomial_count_is_what_compose_builds():
    """The budget of ``natops compose`` counts, without building one, the
    monomials of every pair of terms."""
    from natops.operad import _monomial_compose

    rng = random.Random(5)
    pools = {d: enumerate_basis("bullet-nabla-1", d, 0).graphs
             for d in (1, 2, 3)}
    for _ in range(20):
        a, b = FormalSum(), FormalSum()
        da, db = rng.choice((2, 3)), rng.choice((1, 2))
        for x, d in ((a, da), (b, db)):
            for g in rng.sample(pools[d], min(2, len(pools[d]))):
                x.add_graph(g, rng.randint(1, 3))
        i = rng.randint(1, da)
        assert monomial_count(a, i, b) == sum(
            len(_monomial_compose(g1, i, g2)) for g1, _ in a for g2, _ in b)


def test_compose_budget_admits_every_compose_of_the_suite(monkeypatch):
    """``natops compose`` refuses more than MAX_COMPOSE_MONOMIALS
    monomials; every compose the tests run stays below it.  lie_expand of
    the words the tests expand is counted as it runs, the largest at the
    leaf cap.  Every pair of the reference pools is counted.  The operad
    laws pair bullet elements up to d = 3 with one another and with their
    compositions; a count grows with the receivers of the inserted element
    and the inputs of the slot, so the widest inserted element and the
    slot of most inputs bound the compositions on either side."""
    counts = []
    real = operad.compose

    def counted(a, i, b):
        counts.append(monomial_count(a, i, b))
        return real(a, i, b)

    monkeypatch.setattr(operad, "compose", counted)
    word = "X%d" % MAX_WORD_LEAVES
    for k in range(MAX_WORD_LEAVES - 1, 0, -1):
        word = "(b X%d %s)" % (k, word)
    lie_expand(word)
    for d in (2, 3, 4):
        for w in _all_words(d):
            lie_expand(w)
    # the right-nested 7-leaf word ends in a compose of 5040 monomials
    assert max(counts) == 5040
    for family, dmax in (("bullet", 3), ("bullet-nabla-1", 2)):
        pool = [g for d in range(1, dmax + 1)
                for g in enumerate_basis(family, d, 0).graphs]
        counts += [monomial_count(a, i, b) for a in pool
                   for i in range(1, arity(a) + 1) for b in pool]
    pool = _pool(None)
    slots = [(a, i) for a in pool for i in range(1, arity(a) + 1)]
    widest = max(pool, key=lambda c: monomial_count(p_graph(), 1, c))
    deepest = max(slots, key=lambda s: monomial_count(*s, p_graph()))
    for a, i in slots:
        for b in pool:
            ab = real(a, i, b)
            counts += [monomial_count(ab, j, widest)
                       for j in range(1, arity(ab) + 1)]
            counts.append(monomial_count(*deepest, ab))
    assert len(counts) > 10_000
    assert max(counts) <= MAX_COMPOSE_MONOMIALS


def test_ten_fields_compose_with_the_unit():
    # labels sort as strings, X1, X10, X2, ...; arity once compared them
    # with X1..X10 in numeric order and refused every such element
    x = FormalSum.of(Graph(
        (vector("X1", 9),) + tuple(vector("X%d" % k) for k in range(2, 11))
        + (anchor,), ((10, SYM),) + ((0, SYM),) * 9 + (None,)))
    assert arity(x) == 10
    for i in range(1, 11):
        assert compose(x, i, unit_graph()) == x
    assert compose(unit_graph(), 1, x) == x
    sigma = (10,) + tuple(range(1, 10))
    back = tuple(range(2, 11)) + (1,)
    assert sigma_action(sigma_action(x, sigma), back) == x


@pytest.mark.parametrize("family", ["bullet", "bullet-nabla-1"])
def test_compose_matches_the_reference(family):
    from natops.operad import _monomial_compose

    pool = [g for d in (1, 2) for g in enumerate_basis(family, d, 0).graphs]
    for g1 in pool:
        for i in range(1, arity(g1) + 1):
            for g2 in pool:
                want = reference_monomial_compose(g1, i, g2)
                assert Counter(_monomial_compose(g1, i, g2)) == Counter(want)
                ref = FormalSum()
                for g in want:
                    ref.add_graph(g)
                assert compose(g1, i, g2) == ref


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [0, 1])
def test_trace_matches_the_reference(d, m):
    for g in enumerate_basis("bullet-nabla-trace", d, m).graphs:
        assert trace_map(g) == reference_trace_map(g)
        assert trace_sum(g) == FormalSum.of(reference_trace_map(g))


def test_pre_lie_associator_symmetry():
    p = FormalSum.of(p_graph())
    ass = combine(compose(p, 1, p), compose(p, 2, p), 1, -1)
    assert ass == sigma_action(ass, (1, 3, 2))


def test_antisymmetrized_p_is_bracket():
    p = FormalSum.of(p_graph())
    ptau = sigma_action(p, (2, 1))
    assert combine(ptau, p, 1, -1) == bracket_element()
    assert len(combine(p, ptau, 1, -1)) == 2


def test_unit_laws_random():
    rng = random.Random(4)
    u = FormalSum.of(unit_graph())
    pool = [
        FormalSum.of(g)
        for d in (1, 2, 3)
        for g in enumerate_basis("bullet", d, 0).graphs
    ]
    for _ in range(30):
        x = rng.choice(pool)
        assert compose(u, 1, x) == x
        for i in range(1, arity(x) + 1):
            assert compose(x, i, u) == x


def _pool(rng):
    pool = []
    for d in (1, 2, 3):
        for g in enumerate_basis("bullet", d, 0).graphs:
            pool.append(FormalSum.of(g))
    return pool


def _block_perm(sigma, i, v):
    """Permutation tau with (a.sigma) o_i b == (a o_{sigma^{-1}(i)} b).tau."""
    u = len(sigma)
    inv = {sigma[k - 1]: k for k in range(1, u + 1)}
    j = inv[i]

    def c(k):
        return k if k < i else k + v - 1

    tau = [c(sigma[m - 1]) for m in range(1, j)]
    tau += [i + t for t in range(v)]
    tau += [c(sigma[m - 1]) for m in range(j + 1, u + 1)]
    return tuple(tau)


def test_operad_axioms_and_equivariance_suite():
    """200 seeded random instances of the composition and action axioms."""
    rng = random.Random(99)
    pool = _pool(rng)
    checked = 0
    while checked < 200:
        a = rng.choice(pool)
        b = rng.choice(pool)
        c = rng.choice(pool)
        da, db, dc = arity(a), arity(b), arity(c)
        # sequential
        i = rng.randint(1, da)
        j = rng.randint(1, db)
        assert compose(compose(a, i, b), i - 1 + j, c) == compose(
            a, i, compose(b, j, c)
        )
        # parallel
        if da >= 2:
            i2, j2 = sorted(rng.sample(range(1, da + 1), 2))
            assert compose(compose(a, j2, c), i2, b) == compose(
                compose(a, i2, b), j2 + db - 1, c
            )
        # outer equivariance
        sigma = list(range(1, da + 1))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        inv = {sigma[k - 1]: k for k in range(1, da + 1)}
        lhs = compose(sigma_action(a, sigma), i, b)
        rhs = sigma_action(
            compose(a, inv[i], b), _block_perm(sigma, i, db)
        )
        assert lhs == rhs
        # inner equivariance
        tau = list(range(1, db + 1))
        rng.shuffle(tau)
        tau = tuple(tau)
        shifted = (
            tuple(range(1, i))
            + tuple(i - 1 + t for t in tau)
            + tuple(range(i + db, da + db))
        )
        assert compose(a, i, sigma_action(b, tau)) == sigma_action(
            compose(a, i, b), shifted
        )
        checked += 1


def test_action_composition_law():
    rng = random.Random(12)
    pool = [x for x in _pool(rng) if arity(x) == 3]
    for _ in range(20):
        x = rng.choice(pool)
        s = list(range(1, 4))
        t = list(range(1, 4))
        rng.shuffle(s)
        rng.shuffle(t)
        st = tuple(t[s[k] - 1] for k in range(3))
        assert sigma_action(sigma_action(x, tuple(s)), tuple(t)) == sigma_action(
            x, st
        )
        assert sigma_action(x, (1, 2, 3)) == x


def test_lie_expand_base_cases():
    assert lie_expand("(b X1 X2)") == bracket_element()
    assert lie_expand("(c X1 X2)") == covariant_element()
    with pytest.raises(ValueError):
        lie_expand("(b X1 X1)")
    with pytest.raises(ValueError):
        parse_word("(b X1")


def test_jacobi_expands_to_zero():
    jac = combine(
        combine(
            lie_expand("(b (b X1 X2) X3)"),
            lie_expand("(b (b X2 X3) X1)"),
            1,
            1,
        ),
        lie_expand("(b (b X3 X1) X2)"),
        1,
        1,
    )
    assert not jac


def test_left_nested_bracket_golden():
    got = lie_expand("(b (b X1 X2) X3)")
    with open(os.path.join(GOLDEN, "bracket_word_bb.json")) as fh:
        want = json.load(fh)
    rendered = sorted(
        [str(c), key_bytes(g).decode()] for g, c in got.sorted_terms()
    )
    assert rendered == sorted(want["terms"])


def _all_words(d):
    """Every bracket/star word on X1..Xd in standard leaf order."""

    def trees(lo, hi):
        if lo == hi:
            yield lo
            return
        for mid in range(lo, hi):
            for left in trees(lo, mid):
                for right in trees(mid + 1, hi):
                    for op in ("b", "c"):
                        yield (op, left, right)

    return trees(1, d)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_expanded_word_is_a_cocycle(d):
    count = 0
    for word in _all_words(d):
        assert not differential(lie_expand(word)), word
        count += 1
    assert count == {2: 2, 3: 8, 4: 40}[d]


def test_trace_degenerate_splice_gives_unit():
    # X0 feeding the anchor directly: the trace removes everything
    from natops.graphs import EMPTY, anchor as anc

    g = Graph((vector("X0", 0), anc), ((1, SYM), None))
    assert trace_map(g) == EMPTY


def test_trace_basic_splice():
    g = Graph(
        (vector("X0", 0), vector("X1", 1), anchor),
        ((1, SYM), (2, SYM), None),
    )
    t = trace_map(g)
    cg, _ = canonicalize(t)
    assert key_bytes(cg) == b"v:X1:1>0.2"


def test_trace_through_connection_slot():
    from natops.graphs import connection

    g = Graph(
        (vector("X0"), vector("X1"), connection(0), anchor),
        ((2, 0), (2, 1), (3, SYM), None),
    )
    t = trace_map(g)
    assert t.count("connection") == 1
    assert not t.has_anchor()
    assert wheel_length(t) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_trace_surjective_on_wheel_basis(d):
    wheel = set(enumerate_basis("bullet-nabla-wheel", d, 0).graphs)
    image = set()
    for g in enumerate_basis("bullet-nabla-trace", d, 0).graphs:
        cg, _ = canonicalize(trace_map(g))
        image.add(cg)
    assert wheel <= image


@pytest.mark.parametrize("d", [1, 2])
def test_trace_chain_map(d):
    for g in enumerate_basis("bullet-nabla-trace", d, 0).graphs:
        lhs = trace_sum(differential(FormalSum.of(g)))
        rhs = differential(trace_sum(FormalSum.of(g)))
        assert lhs == rhs


@pytest.mark.parametrize("d", [1, 2])
def test_trace_h0_epimorphism(d):
    wheel_src = enumerate_basis("bullet-nabla-wheel", d, 0)
    wheel_kernel = kernel_basis("bullet-nabla-wheel", d)
    traced = [trace_sum(x) for x in kernel_basis("bullet-nabla-trace", d)]
    vecs = [coordinates(x, wheel_src) for x in traced]
    targets = [coordinates(x, wheel_src) for x in wheel_kernel]
    assert spans(vecs, targets)
