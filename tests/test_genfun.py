"""Generating functions: recursion vs functional equation vs dual identity."""

from math import factorial

from natops.cli import MAX_UPTO
from natops.genfun import g_functional, lie_dimensions, table

from .helpers import (
    Series,
    dual_consistency,
    g_egf,
    g_recursion,
    q_series,
    series_compose,
)


def test_initial_values():
    assert g_recursion(3) == [1, 3, 26]
    assert g_recursion(1) == [1]
    assert g_functional(3) == [1, 3, 26]


def test_routes_agree_to_twelve():
    assert g_recursion(12) == g_functional(12)


def test_dimensions_positive_integers():
    for g in g_recursion(10):
        assert isinstance(g, int) and g > 0


def test_functional_equation_residual_zero():
    N = 10
    g = g_egf(N)
    t = Series.t(N)
    residual = g.exp() * (Series([1], N) - t - g * g) - Series([1], N)
    assert residual.is_zero()


def test_cross_checks_hold_at_the_cli_cap():
    """The recursion and the dual identity, which live in the tests, agree
    with the recurrence's g over the whole range the CLI admits."""
    g = g_functional(MAX_UPTO)
    assert [row[1] for row in table(g)] == g_recursion(MAX_UPTO)
    assert dual_consistency(g_egf(MAX_UPTO))


def test_dual_consistency():
    assert dual_consistency(g_egf(12))
    assert dual_consistency(g_egf(1))
    assert dual_consistency(g_egf(8))


def test_q_series_values():
    from fractions import Fraction

    q = q_series(5)
    # exp(t) - 1 + t^2 has coefficients 0, 1, 3/2, 1/6, 1/24, ...
    assert q[0] == 0 and q[1] == 1
    assert q[2] == Fraction(3, 2)
    assert q[3] == Fraction(1, 6)


def test_lie_dimensions_are_factorials():
    for N in (1, 5, MAX_UPTO):
        assert lie_dimensions(N) == [factorial(d - 1) for d in range(1, N + 1)]


def test_table_rows():
    rows = table(g_functional(3))
    assert rows == [(1, 1, 1), (2, 3, 1), (3, 26, 2)]


def test_series_compose_and_exp():
    N = 8
    t = Series.t(N)
    assert (t.exp() * (-t).exp() - Series([1], N)).is_zero()
    inner = t * 2
    assert series_compose(t.exp(), inner) == (inner).exp()

