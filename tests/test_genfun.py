"""Generating functions: recursion vs functional equation vs dual identity."""

from math import factorial

import pytest

from natops import genfun
from natops.genfun import g_functional, g_series, lie_dimensions, table
from natops.series import Series

from .helpers import (
    dual_consistency,
    g_recursion,
    q_series,
    reference_solve_fixed_coefficients,
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
    g = g_series(N)
    t = Series.t(N)
    residual = g.exp() * (Series([1], N) - t - g * g) - Series([1], N)
    assert residual.is_zero()


def test_cross_checks_hold_at_the_cli_cap():
    """The recursion and the dual identity, which live in the tests, agree
    with the solved series over the whole range the CLI admits."""
    from natops.cli import MAX_UPTO

    g = g_series(MAX_UPTO)
    assert [row[1] for row in table(g)] == g_recursion(MAX_UPTO)
    assert dual_consistency(g)


def test_dual_consistency():
    assert dual_consistency(g_series(12))
    assert dual_consistency(g_series(1))
    assert dual_consistency(g_series(8))


def test_q_series_values():
    from fractions import Fraction

    q = q_series(5)
    # exp(t) - 1 + t^2 has coefficients 0, 1, 3/2, 1/6, 1/24, ...
    assert q[0] == 0 and q[1] == 1
    assert q[2] == Fraction(3, 2)
    assert q[3] == Fraction(1, 6)


def test_lie_dimensions_are_factorials():
    assert lie_dimensions(5) == [factorial(d - 1) for d in range(1, 6)]


def test_table_rows():
    rows = table(g_series(3))
    assert rows == [(1, 1, 1), (2, 3, 1), (3, 26, 2)]


def test_series_compose_and_exp():
    N = 8
    t = Series.t(N)
    assert (t.exp() * (-t).exp() - Series([1], N)).is_zero()
    inner = t * 2
    assert series_compose(t.exp(), inner) == (inner).exp()


@pytest.mark.parametrize("N", [1, 2, 3, 40])
def test_truncated_solver_matches_reference(monkeypatch, N):
    # the t^k coefficient of either solution does not depend on N, so
    # order 40 compares every coefficient of the orders 1..40
    got = g_series(N), lie_dimensions(N)
    monkeypatch.setattr(genfun, "solve_fixed_coefficients",
                        reference_solve_fixed_coefficients)
    assert got == (g_series(N), lie_dimensions(N))
