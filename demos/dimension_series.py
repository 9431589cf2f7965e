#!/usr/bin/env python3
"""Dimension series three ways: recursion, functional equation, homology.

The sequence 1, 3, 26, 376, ... counts independent operators built from
covariant derivatives and brackets.  A rooted-tree recursion and a
coefficient-by-coefficient solution of exp(g)(1 - t - g^2) = 1 must agree,
the quadratic-dual identity q(-g(t)) = -t with q = exp(t) - 1 + t^2 must
hold, and the first three values must equal the kernel dimensions computed
by exact linear algebra on the graph complex.
"""

from natops.genfun import (
    dual_consistency,
    g_functional,
    g_recursion,
    g_series,
    lie_dimensions,
)
from natops.homology import h0_dimension

N = 12
rec = g_recursion(N)
fun = g_functional(N)
print("d :", *("%9d" % d for d in range(1, N + 1)))
print("rec:", *("%9d" % g for g in rec))
print("fun:", *("%9d" % g for g in fun))
print("routes agree:", rec == fun)
print("dual identity holds to N=%d:" % N, dual_consistency(g_series(N)))

homology = [h0_dimension("bullet-nabla-1", d) for d in (1, 2, 3)]
print("homology dimensions d<=3:", homology, "match:", homology == rec[:3])

print("bracket-only dimensions (d-1)!:", lie_dimensions(6))
