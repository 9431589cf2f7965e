"""Generating-function arithmetic for operator-space dimensions.

The dimension g_d of the connection-and-vector-field operator space of
multilinearity d is d! [t^d] g for the EGF g solving
exp(g) * (1 - t - g^2) = 1, and the factorial dimensions (d-1)! of the
bracket-only operators come likewise from l solving exp(l) * (1 - t) = 1.
Both come from one integer recurrence for the coefficients
f_n = n! [t^n] f: with e_n = n! [t^n] exp(-f), e_0 = 1, differentiating
gives  (exp(-f))' = -f' exp(-f), so

    f_n = -e_n - sum_{k=0}^{n-2} C(n-1, k) f_{k+1} e_{n-1-k},

and each equation fixes e_n from f_1 .. f_{n-1}.  The values are
integers by construction.  The tests check g against a direct
rooted-tree recursion, the functional equation's residual, the
quadratic-dual identity q(-g(t)) = -t with q(t) = exp(t) - 1 + t^2, and
the degree-0 kernel dimensions of the graph complex.
"""

from math import comb, factorial


def _solve(N, known):
    """f_1..f_N of the EGF f, where ``known(f, n)`` gives
    e_n = n! [t^n] exp(-f) from the list f = [0, f_1, .., f_{n-1}]."""
    f, e = [0], [1]
    for n in range(1, N + 1):
        e.append(known(f, n))
        f.append(-e[n] - sum(comb(n - 1, k) * f[k + 1] * e[n - 1 - k]
                             for k in range(n - 1)))
    return f[1:]


def g_functional(N):
    """g_1..g_N: exp(-g) = 1 - t - g^2."""
    return _solve(N, lambda g, n: -(n == 1) - sum(
        comb(n, k) * g[k] * g[n - k] for k in range(1, n)))


def lie_dimensions(N):
    """Dimensions of the bracket-only operator spaces via the dual of the
    one-commutative-product equation: exp(-l) = 1 - t."""
    return _solve(N, lambda f, n: -(n == 1))


def table(g):
    """Rows (d, g_d, (d-1)!) for the CLI, from the list g_1, g_2, ..."""
    return [(d, gd, factorial(d - 1)) for d, gd in enumerate(g, 1)]
