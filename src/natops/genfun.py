"""Generating-function arithmetic for operator-space dimensions.

Two independent routes to the dimension sequence of the connection-and-
vector-field operator spaces: a direct recursion (a double sum over
compositions) and a coefficient-by-coefficient solution of the functional
equation  exp(g) * (1 - t - g^2) = 1.  Both report plain integers; a
quadratic-dual identity q(-g(t)) = -t with q(t) = exp(t) - 1 + t^2 ties
the series to its dual, and the same machinery yields the factorial
dimensions (d-1)! of the bracket-only operators.
"""

from fractions import Fraction
from math import factorial

from .series import Series, solve_fixed_coefficients


def g_recursion(N):
    """g_1..g_N by the direct recursion (seeded with g_1 = 1).

    g_{n+1}/(n+1)! collects rooted-tree contributions: compositions of n
    weighted 1/s!, plus compositions of n+1 weighted (s(s-1)-1)/s! for
    s >= 2, each composition contributing the product of g_i/i! over its
    parts.  The sum over compositions of m into s parts is built up one
    first part at a time and kept, so the whole sequence costs O(N^3)
    products.  Asserts integrality of every term of the sequence.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = {1: Fraction(1)}  # a[i] = g_i / i!
    # comp[s, m]: sum over compositions of m into s parts of prod a[part]
    comp = {(1, 1): a[1]}
    for n in range(1, N):
        m = n + 1
        # parts of m into s >= 2 pieces are at most n, so a[1..n] suffice
        for s in range(2, m + 1):
            comp[s, m] = sum((a[i] * comp[s - 1, m - i]
                              for i in range(1, m - s + 2)), Fraction(0))
        total = sum((comp[s, n] / factorial(s) for s in range(1, n + 1)),
                    Fraction(0))
        total += sum((comp[s, m] * (s * (s - 1) - 1) / factorial(s)
                      for s in range(2, m + 1)), Fraction(0))
        a[m] = comp[1, m] = total
    out = []
    for d in range(1, N + 1):
        g = a[d] * factorial(d)
        if g.denominator != 1:
            raise ArithmeticError("non-integer dimension g_%d = %s" % (d, g))
        out.append(int(g))
    return out


def g_series(N):
    """EGF solution of exp(g) (1 - t - g^2) = 1 truncated at t^N."""
    t = Series.t(N)

    def residual(f):
        # exp(-g) + g^2 + t - 1 vanishes iff the functional equation holds
        return (-f).exp() + f * f + t - Series([1], N)

    return solve_fixed_coefficients(residual, N)


def g_functional(N):
    """g_1..g_N from the functional equation; exact, integer-checked."""
    return _dimensions(g_series(N))


def _dimensions(f):
    """d! times the t^d coefficient of the EGF ``f`` for d = 1..its order."""
    out = []
    for d in range(1, f.order + 1):
        v = f[d] * factorial(d)
        if v.denominator != 1:
            raise ArithmeticError("non-integer dimension at d=%d" % d)
        out.append(int(v))
    return out


def q_series(N):
    """The quadratic-dual series exp(t) - 1 + t^2."""
    t = Series.t(N)
    return t.exp() - Series([1], N) + t * t


def dual_consistency(g):
    """Check q(-g(t)) + t = 0 through the order of the solved series ``g``
    (:func:`g_series`); returns True or raises."""
    N = g.order
    t = Series.t(N)
    r = q_series(N).compose(-g) + t
    if not r.is_zero():
        raise ArithmeticError("quadratic-dual identity fails: %r" % r)
    return True


def lie_dimensions(N):
    """Dimensions of the bracket-only operator spaces via the dual of the
    one-commutative-product equation: exp(-l) - 1 + t = 0."""
    t = Series.t(N)

    def residual(f):
        return (-f).exp() - Series([1], N) + t

    return _dimensions(solve_fixed_coefficients(residual, N))


def table(g):
    """Rows (d, g_d, (d-1)!) for the CLI, from the solved series ``g``."""
    return [(d, gd, factorial(d - 1))
            for d, gd in enumerate(_dimensions(g), 1)]
