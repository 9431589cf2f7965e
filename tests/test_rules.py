"""Replacement-rule templates: counts, shapes, and the derivation that
the closed-form connection rules must reproduce."""

import itertools
from math import comb

import pytest

from natops import cli, oracle
from natops.complexes import differential
from natops.graphs import CONNECTION, WHITE
from natops.jets import Tensor
from natops.oracle import connection_probe, derive_connection_rule
from natops.rules import (
    OUT,
    replace_connection,
    replace_vectorfield,
    replace_white,
)

from .helpers import check_template, derived_rule


@pytest.mark.parametrize("order", range(cli.MAX_RULE_ORDER + 1))
def test_every_buildable_template_passes_the_check(order):
    # every white, vector and connection template a command can build
    if order >= 2:
        check_template(replace_white(order))
    check_template(replace_vectorfield(order))
    check_template(replace_connection(order))


def test_white_rule_small_cases():
    assert replace_white(2).terms == ()
    assert len(replace_white(3).terms) == 3
    terms4 = replace_white(4).terms
    assert len(terms4) == 10
    # 4 terms with child arity 3, 6 with child arity 2
    child_arities = sorted(t.internals[1].order for t in terms4)
    assert child_arities == [2] * 6 + [3] * 4


@pytest.mark.parametrize("u", range(2, 9))
def test_white_rule_term_count(u):
    want = sum(comb(u, t) for t in range(2, u) if u + 1 - t >= 2)
    assert len(replace_white(u).terms) == want


def test_vector_rule_small_cases():
    assert replace_vectorfield(0).terms == ()
    assert len(replace_vectorfield(1).terms) == 1
    assert len(replace_vectorfield(2).terms) == 4


@pytest.mark.parametrize("v", range(0, 7))
def test_vector_rule_term_count(v):
    want = 0
    for s in range(2, v + 2):
        u2 = v + 1 - s
        want += comb(v, u2)
        if u2 >= 1:
            want += comb(v, s)
    assert len(replace_vectorfield(v).terms) == want


@pytest.mark.parametrize("w", range(0, 9))
def test_connection_rule_term_count(w):
    want = 1
    for s in range(2, w + 2):
        want += 3 * comb(w, s - 1)
        if s <= w:
            want += comb(w, s)
    terms = replace_connection(w).terms
    assert len(terms) == want
    # on distinct fields no two terms collapse into one graph
    rule = differential(connection_probe(w))
    assert sorted(c for _, c in rule) == sorted(t.coeff for t in terms)


def test_all_coefficients_integral():
    for u in range(2, 7):
        assert all(isinstance(t.coeff, int) for t in replace_white(u).terms)
    for v in range(0, 5):
        assert all(
            isinstance(t.coeff, int) for t in replace_vectorfield(v).terms
        )
    for w in (0, 1, 2):
        assert all(
            float(t.coeff).is_integer() for t in replace_connection(w).terms
        )


def test_boundary_ports_used_exactly_once():
    for tpl in [replace_white(5), replace_vectorfield(3), replace_connection(1)]:
        nports = tpl.order + (2 if tpl.kind == CONNECTION else 0)
        for term in tpl.terms:
            assert len(term.ports) == nports
            assert sum(1 for t in term.iout if t == OUT) == 1


def test_connection_rule_w0():
    tpl = replace_connection(0)
    assert len(tpl.terms) == 1
    t = tpl.terms[0]
    assert t.coeff == -1
    assert [v.order for v in t.internals] == [2]
    assert t.internals[0].kind == WHITE


def test_connection_rule_w1():
    tpl = replace_connection(1)
    assert len(tpl.terms) == 4
    coeffs = sorted(t.coeff for t in tpl.terms)
    assert coeffs == [-1, -1, -1, 1]
    lone = [t for t in tpl.terms if len(t.internals) == 1]
    assert len(lone) == 1 and lone[0].internals[0].order == 3
    assert lone[0].coeff == -1


@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_derivation_matches_closed_form(w):
    # w = 3 derives for about 40 s; no other test derives that order
    assert derived_rule(w, 2 * w + 4) == differential(connection_probe(w))


@pytest.mark.parametrize("w,n1,n2", [(0, 4, 5), (1, 6, 7), (2, 8, 9)])
def test_derivation_independent_of_probe_dimension(w, n1, n2):
    assert derived_rule(w, n1) == derived_rule(w, n2)


def test_derived_w2_shape():
    tpl = replace_connection(2)
    lone = [t for t in tpl.terms if len(t.internals) == 1]
    assert len(lone) == 1
    assert lone[0].coeff == -1 and lone[0].internals[0].order == 4
    for t in tpl.terms:
        if len(t.internals) == 2:
            conn = next(v for v in t.internals if v.kind == CONNECTION)
            wht = next(v for v in t.internals if v.kind == WHITE)
            assert conn.order < 2 and wht.order < 4


def test_stable_bound_enforced():
    with pytest.raises(ValueError):
        derive_connection_rule(2, 7)


def test_derivation_rejects_an_action_no_rule_matches(monkeypatch):
    act = oracle.infinitesimal_action

    def shifted(gens, data):
        # a constant no realization of the candidates can reproduce
        moved = act(gens, data)
        top = moved.conn[-1]
        values = top.data
        for b, c in itertools.product(range(top.n), repeat=2):
            for ds in itertools.combinations_with_replacement(
                    range(top.n), top.nsym):
                key = (0, b, c) + ds
                values[key] = values.get(key, 0) + 1
        moved.conn[-1] = Tensor.from_values(top.n, 3, top.nsym, values)
        return moved

    monkeypatch.setattr(oracle, "infinitesimal_action", shifted)
    with pytest.raises(ArithmeticError, match="no order-1 connection rule"):
        derive_connection_rule(1, 6)


def test_white_ranks_cover_template():
    # two new whites from a white replacement, one from the others
    for t in replace_white(4).terms:
        assert sorted(r for r in t.ranks if r) == [1, 2]
    for t in replace_vectorfield(2).terms:
        assert sorted(r for r in t.ranks if r) == [1]
    for t in replace_connection(1).terms:
        assert sorted(r for r in t.ranks if r) == [1]
