"""Hypothesis property tests over randomly drawn graphs and sums."""

import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from natops.canonical import canonicalize
from natops.complexes import delta_graph, differential, enumerate_basis
from natops.formal import FormalSum, combine
from natops.graphs import is_connected

from .helpers import shuffle_presentation

_POOL = []
for _fam, _dmax in [("bullet", 3), ("bullet-wheel", 3), ("bullet-nabla-1", 2)]:
    for _d in range(1, _dmax + 1):
        for _m in (0, 1, 2):
            _POOL.extend(enumerate_basis(_fam, _d, _m).graphs)

graphs = st.sampled_from(_POOL)
_BY_DEGREE = {}
for _g in _POOL:
    _BY_DEGREE.setdefault(_g.degree, []).append(_g)
same_degree_pairs = graphs.flatmap(
    lambda g: st.tuples(st.just(g), st.sampled_from(_BY_DEGREE[g.degree])))
# a graph with a nonzero differential, for sums whose terms all cancel
_LIVE = next(g for g in _POOL if delta_graph(g))
rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


@given(graphs, st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_canonical_form_presentation_invariant(g, seed):
    rng = random.Random(seed)
    cg, sign = canonicalize(g)
    h, flip = shuffle_presentation(g, rng)
    ch, sh = canonicalize(h)
    assert ch == cg
    assert sh == sign * flip


@given(graphs, graphs, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_combine_is_bilinear(g1, g2, a, b):
    x, y = FormalSum.of(g1), FormalSum.of(g2)
    lhs = combine(x, y, a, b)
    rhs = combine(x.scale(a), y.scale(b), 1, 1)
    assert lhs == rhs
    assert combine(x, y, a, b) == combine(y, x, b, a)


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_differential_raises_degree_and_keeps_components(g):
    for t, _ in delta_graph(g):
        assert t.degree == g.degree + 1
        if is_connected(g):
            assert is_connected(t)


@given(same_degree_pairs, rationals, rationals)
@example((_LIVE, _LIVE), Fraction(3, 2), Fraction(-3, 2))
@settings(max_examples=100, deadline=None)
def test_differential_is_linear_over_sums_that_cancel(pair, a, b):
    x, y = (FormalSum.of(g) for g in pair)
    lhs = differential(combine(x, y, a, b))
    rhs = combine(differential(x), differential(y), a, b)
    assert lhs == rhs
    assert all(c for _, c in lhs) and all(c for _, c in rhs)
