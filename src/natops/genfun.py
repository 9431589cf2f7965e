"""Generating-function arithmetic for operator-space dimensions.

The dimension sequence of the connection-and-vector-field operator spaces
comes from one route: a coefficient-by-coefficient solution of the
functional equation  exp(g) * (1 - t - g^2) = 1, reported as plain
integers.  The same machinery yields the factorial dimensions (d-1)! of
the bracket-only operators.  The tests check the solved series against a
direct rooted-tree recursion and the quadratic-dual identity
q(-g(t)) = -t with q(t) = exp(t) - 1 + t^2, and against the degree-0
kernel dimensions of the graph complex.
"""

from math import factorial

from .series import Series, solve_fixed_coefficients


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
