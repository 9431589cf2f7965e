#!/usr/bin/env python3
"""Operators on a connection and d vector fields: dimensions 1, 3, 26.

The degree-0 kernel is generated by covariant derivatives and brackets.
The replacement rule for a connection vertex is a closed form, the Leibniz
expansion of the Lie derivative along a generator vanishing to second
order; an independent derivation, which realizes every candidate graph on
the jet oracle and matches the candidates against the linearized
coordinate-change action, reproduces it exactly.
"""

from natops import (
    differential,
    h0_dimension,
    kernel_basis,
    lie_expand,
    replace_connection,
)
from natops.rules import connection_probe, derive_connection_rule

print("h0(bullet-nabla-1, d) for d = 1..3:")
print(" ", [h0_dimension("bullet-nabla-1", d) for d in (1, 2, 3)])

print("\nthe d = 2 kernel has dimension", len(kernel_basis("bullet-nabla-1", 2)))
covar = lie_expand("(c X1 X2)")
print("covariant derivative is a cocycle:", not differential(covar))

print("\nconnection rules:")
for w in (0, 1, 2):
    tpl = replace_connection(w)
    lone = [t for t in tpl.terms if len(t.internals) == 1]
    print("  order %d: %2d terms, closing white arity %d with coefficient %d"
          % (w, len(tpl.terms), lone[0].internals[0].order, lone[0].coeff))

print("\nregression: derivation reproduces the closed form for orders 0..2:",
      all(derive_connection_rule(w, 2 * w + 4)
          == differential(connection_probe(w)) for w in (0, 1, 2)))

word = "(c (b X1 X2) X3)"
x = lie_expand(word)
print("\n%s expands to %d monomials; cocycle: %s"
      % (word, len(x), not differential(x)))
