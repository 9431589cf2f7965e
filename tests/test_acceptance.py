"""Acceptance suite: the exit criteria, one pass/fail line per criterion.

Everything here is exact arithmetic; tolerances are zero.  Runtime bounds
are asserted where the criterion states one.
"""

import random
import time
from math import factorial

from natops.complexes import (
    d_squared_zero,
    differential,
    enumerate_basis,
)
from natops.formal import FormalSum, combine
from natops.genfun import g_functional
from natops.graphs import CONNECTION
from natops.homology import h0_dimension, kernel_basis
from natops.jets import naturality_check, random_jet_data, realize
from natops.operad import (
    arity,
    compose,
    lie_expand,
    p_graph,
    sigma_action,
    trace_sum,
    unit_graph,
)
from natops.oracle import connection_probe

from .helpers import (
    chain_xy,
    chain_yx,
    coordinates,
    derived_rule,
    dual_consistency,
    g_egf,
    g_recursion,
    nabla_xy,
    spans,
    trace_pair,
    wheel_block_injective,
)


def _report(num, ok, text):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_01_lie_dimensions():
    t0 = time.time()
    dims = [h0_dimension("bullet", d) for d in (1, 2, 3, 4)]
    elapsed = time.time() - t0
    ok = dims == [1, 1, 2, 6] == [factorial(d - 1) for d in (1, 2, 3, 4)]
    ok = ok and elapsed < 60
    _report(1, ok, "h0(bullet, 1..4) = %s in %.1fs" % (dims, elapsed))


def test_criterion_02_worked_bilinear_example():
    basis = enumerate_basis("bullet", 2, 0)
    kern = kernel_basis("bullet", 2)
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    ok = len(basis.graphs) == 4 and len(kern) == 1
    ok = ok and spans([coordinates(kern[0], basis)], [coordinates(b, basis)])
    ok = ok and spans([coordinates(b, basis)], [coordinates(kern[0], basis)])
    _report(2, ok, "dim slice = 4, kernel = bracket line")


def test_criterion_03_connection_dimensions():
    t0 = time.time()
    dims = [h0_dimension("bullet-nabla-1", d) for d in (1, 2, 3)]
    elapsed = time.time() - t0
    ok = dims == [1, 3, 26] and elapsed < 600
    _report(3, ok, "h0(bullet-nabla-1, 1..3) = %s in %.1fs" % (dims, elapsed))


def test_criterion_04_wheel_acyclicity():
    dims = [h0_dimension("bullet-wheel", d) for d in (1, 2, 3, 4)]
    ok = dims == [0, 0, 0, 0]
    blocks_ok = True
    for d in (1, 2, 3):
        for rank, cols in wheel_block_injective("bullet-wheel", d).values():
            blocks_ok = blocks_ok and rank == cols
    ok = ok and blocks_ok
    _report(4, ok, "h0 = %s, wheel-length blocks of full column rank" % dims)


def test_criterion_05_cochain_property():
    families = ["bullet", "bullet-wheel", "bullet-nabla-1", "bullet-nabla-wheel"]
    ok = True
    total = 0
    saw_w2 = False
    for fam in families:
        for d in (1, 2, 3, 4):
            rep = d_squared_zero(fam, d)
            ok = ok and not rep.failures
            total += rep.checked
    for g in enumerate_basis("bullet-nabla-1", 4, 0).graphs:
        if any(v.kind == CONNECTION and v.order == 2 for v in g.vertices):
            saw_w2 = True
            break
    ok = ok and saw_w2
    _report(5, ok, "delta^2 = 0 on %d basis graphs (connection rules to order 3)"
            % total)


def test_criterion_06_rule_regression():
    ok = all(
        derived_rule(w, 2 * w + 4) == differential(connection_probe(w))
        for w in (0, 1, 2)
    )
    _report(6, ok, "derived order-0/1/2 connection rules match the closed form")


def test_criterion_07_generating_functions():
    rec = g_recursion(12)
    fun = g_functional(12)
    ok = rec == fun
    ok = ok and dual_consistency(g_egf(12))
    dims = [h0_dimension("bullet-nabla-1", d) for d in (1, 2, 3, 4)]
    ok = ok and rec[:4] == dims
    _report(7, ok, "recursion = functional to N=12; dual identity; g1..g4 = %s"
            % (rec[:4],))


def test_criterion_08_operad_laws():
    rng = random.Random(2024)
    pool = [
        FormalSum.of(g)
        for d in (1, 2, 3)
        for g in enumerate_basis("bullet", d, 0).graphs
    ]
    u = FormalSum.of(unit_graph())
    checked = 0
    ok = True
    while checked < 200:
        a, b, c = (rng.choice(pool) for _ in range(3))
        da, db = arity(a), arity(b)
        i = rng.randint(1, da)
        j = rng.randint(1, db)
        ok = ok and compose(compose(a, i, b), i - 1 + j, c) == compose(
            a, i, compose(b, j, c)
        )
        if da >= 2:
            i2, j2 = sorted(rng.sample(range(1, da + 1), 2))
            ok = ok and compose(compose(a, j2, c), i2, b) == compose(
                compose(a, i2, b), j2 + db - 1, c
            )
        sigma = list(range(1, da + 1))
        rng.shuffle(sigma)
        inv = {sigma[k - 1]: k for k in range(1, da + 1)}
        from .test_operad import _block_perm

        lhs = compose(sigma_action(a, tuple(sigma)), i, b)
        rhs = sigma_action(
            compose(a, inv[i], b), _block_perm(tuple(sigma), i, db)
        )
        ok = ok and lhs == rhs
        ok = ok and compose(u, 1, a) == a and compose(a, i, u) == a
        checked += 1
        if not ok:
            break
    p = FormalSum.of(p_graph())
    p1, p2 = compose(p, 1, p), compose(p, 2, p)
    ok = ok and len(p1) == 2 and len(p2) == 1
    ass = combine(p1, p2, 1, -1)
    ok = ok and ass == sigma_action(ass, (1, 3, 2))
    jac = combine(
        combine(
            lie_expand("(b (b X1 X2) X3)"), lie_expand("(b (b X2 X3) X1)"), 1, 1
        ),
        lie_expand("(b (b X3 X1) X2)"),
        1,
        1,
    )
    ok = ok and not jac
    _report(8, ok, "unit/associativity/equivariance on %d instances; displays;"
            " pre-Lie symmetry; Jacobi" % checked)


def test_criterion_09_naturality_oracle():
    ok = True
    for d in (1, 2, 3):
        for x in kernel_basis("bullet", d):
            ok = ok and naturality_check(x, max(d, 1), trials=20, seed=5) is None
    for d in (1, 2):
        stable = 2 * d - 1
        for x in kernel_basis("bullet-nabla-1", d):
            ok = ok and naturality_check(x, max(stable, 1), trials=20, seed=5) is None
    ok = ok and naturality_check(FormalSum.of(chain_xy()), 2, trials=20, seed=5) is not None
    ok = ok and naturality_check(FormalSum.of(nabla_xy()), 2, trials=20, seed=5) is not None
    _report(9, ok, "kernel elements natural; O2 and bare-connection graphs fail")


def test_criterion_09_naturality_full_bases():
    """Criterion 9 on the largest bases: all 6 elements of bullet d = 4 at
    n = 4 and all 26 of bullet-nabla-1 d = 3 at its stable n = 5, two
    seeded trials each (8-10 s on a 2-core host; three trials take
    about 13 s)."""
    ok = True
    for family, d, n, size in (("bullet", 4, 4, 6), ("bullet-nabla-1", 3, 5, 26)):
        basis = kernel_basis(family, d)
        ok = ok and len(basis) == size
        for x in basis:
            ok = ok and naturality_check(x, n, trials=2, seed=5) is None
    _report(9, ok, "every element of bullet d=4 and bullet-nabla-1 d=3 natural")


def test_criterion_10_stability_boundary():
    g1, g2 = trace_pair()
    d1 = random_jet_data(random.Random(5), 1, ["X1", "X2"], 1)
    d2 = random_jet_data(random.Random(5), 2, ["X1", "X2"], 1)
    same = realize(FormalSum.of(g1), d1) == realize(FormalSum.of(g2), d1)
    diff = realize(FormalSum.of(g1), d2) != realize(FormalSum.of(g2), d2)
    _report(10, same and diff, "trace pair collides at n=1, separates at n=2")


def test_criterion_11_trace():
    ok = True
    for d in (1, 2):
        for g in enumerate_basis("bullet-nabla-trace", d, 0).graphs:
            lhs = trace_sum(differential(FormalSum.of(g)))
            rhs = differential(trace_sum(FormalSum.of(g)))
            ok = ok and lhs == rhs
        wheel_src = enumerate_basis("bullet-nabla-wheel", d, 0)
        traced = [trace_sum(x) for x in kernel_basis("bullet-nabla-trace", d)]
        vecs = [coordinates(x, wheel_src) for x in traced]
        targets = [
            coordinates(x, wheel_src)
            for x in kernel_basis("bullet-nabla-wheel", d)
        ]
        ok = ok and spans(vecs, targets)
    _report(11, ok, "trace is a chain map and hits every wheel-side kernel class")
