#!/usr/bin/env python3
"""Dimension series two ways: functional equation and homology.

The sequence 1, 3, 26, 376, ... counts independent operators built from
covariant derivatives and brackets.  It is g_d = d! [t^d] g for the
power series g solving exp(g)(1 - t - g^2) = 1, and an integer recurrence
for these coefficients gives it with no fractions.  Its first four
values must equal the degree-0 kernel dimensions of the bullet-nabla-1
graph complex, computed by exact linear algebra: the check that the
series counts the operators.
"""

from natops.genfun import g_functional, lie_dimensions
from natops.homology import h0_dimension

N = 12
fun = g_functional(N)
print("d :", *("%9d" % d for d in range(1, N + 1)))
print("g :", *("%9d" % g for g in fun))

homology = [h0_dimension("bullet-nabla-1", d) for d in (1, 2, 3, 4)]
print("homology dimensions d<=4:", homology, "match:", homology == fun[:4])

print("bracket-only dimensions (d-1)!:", lie_dimensions(6))
