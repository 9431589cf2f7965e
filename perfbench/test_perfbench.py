"""Tests of the benchmark's own checker and reference values.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import product
from math import factorial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def op_named(ops, name):
    (op,) = [o for o in ops if o.name == name]
    return op


def judge(op, obj, exit_code=None, timed_out=False):
    code = op.expect_exit if exit_code is None else exit_code
    return workloads.judge(op, code, timed_out, json.dumps(obj))


def connected_functional_graphs_brute(d):
    """Connected functional graphs on d points, by trying every map."""
    count = 0
    for f in product(range(d), repeat=d):
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in enumerate(f):
            parent[find(i)] = find(j)
        count += len({find(i) for i in range(d)}) == 1
    return count


def test_series_solver_gives_the_connection_dimensions():
    assert reference.g_series(5) == [1, 3, 26, 376, 7614]


def test_closed_forms():
    assert [reference.h0("bullet", d) for d in range(1, 6)] == [1, 1, 2, 6, 24]
    assert reference.h0("bullet-wheel", 4) == 0
    assert [reference.connected_functional_graphs(d) for d in range(1, 7)] \
        == [connected_functional_graphs_brute(d) for d in range(1, 7)] \
        == [1, 3, 17, 142, 1569, 21576]
    assert [sum(reference.connection_rule_shapes(w).values())
            for w in range(4)] == [1, 4, 11, 26]


def test_h0_off_by_one_fails():
    op = op_named(workloads.classify_ops(), "h0 bullet 4")
    assert judge(op, {"h0": factorial(3)}) is None
    assert judge(op, {"h0": factorial(3) + 1}) is not None
    assert judge(op, {"h0": factorial(3) - 1}) is not None


def kerbasis_output(vectors):
    graph = lambda k: {"vertices": [{"id": k}], "edges": []}  # noqa: E731
    return {"dimension": len(vectors),
            "basis": [{"terms": [{"coeff": c, "graph": graph(k)}
                                 for k, c in v.items()]} for v in vectors]}


def test_kerbasis_needs_independent_vectors():
    op = op_named(workloads.classify_ops(), "kerbasis bullet 4")
    good = [{i: "1", 6: "1/2"} for i in range(6)]
    assert judge(op, kerbasis_output(good)) is None
    dependent = good[:5] + [{0: "1", 1: "1", 6: "1"}]
    assert "rank 5" in judge(op, kerbasis_output(dependent))
    assert judge(op, kerbasis_output(good[:5])) is not None


def test_control_that_passes_fails():
    op = workloads.Op("control", ["natcheck"], 1, workloads.check_control)
    assert judge(op, {"result": "counterexample"}) is None
    assert judge(op, {"result": "pass", "dim": 2, "trials": 3},
                 exit_code=0) is not None
    assert judge(op, {"result": "pass", "dim": 2, "trials": 3}) is not None


def test_element_must_pass_at_its_dimension():
    op = workloads.Op("element", ["natcheck"], 0,
                      workloads.check_natcheck(4, 1))
    assert judge(op, {"result": "pass", "dim": 4, "trials": 1}) is None
    assert judge(op, {"result": "pass", "dim": 0, "trials": 1}) is not None
    assert judge(op, {"result": "counterexample", "dim": 4},
                 exit_code=1) is not None


def test_d2check_residue_or_short_count_fails():
    op = op_named(workloads.cochain_ops(), "d2check bullet 4")
    full = 4 ** 4 + reference.DEGREE1_SIZES[("bullet", 4)]
    assert judge(op, {"checked": full, "failures": []}) is None
    assert judge(op, {"checked": full - 1, "failures": []}) is not None
    residue = [{"graph": {}, "residual": {"terms": []}}]
    assert judge(op, {"checked": full, "failures": residue}) is not None


def test_nonzero_exit_fails():
    op = op_named(workloads.classify_ops(), "h0 bullet-nabla-1 3")
    assert judge(op, {"h0": 26}) is None
    assert judge(op, {"h0": 26}, exit_code=2) is not None
    assert workloads.judge(op, 0, False, "Traceback ...") is not None


def test_timeout_fails_and_kills_the_child(tmp_path):
    runner = run.Runner(timeout=0.5)
    t0 = time.perf_counter()
    child = runner.spawn(["-c", "import time; time.sleep(30)"],
                         str(tmp_path / "out"))
    assert child.timed_out and time.perf_counter() - t0 < 10
    op = op_named(workloads.classify_ops(), "h0 bullet 4")
    assert workloads.judge(op, child.exit, child.timed_out, "") == "timed out"


def test_rule_shapes_are_checked():
    op = op_named(workloads.classify_ops(), "rule connection 2")

    def term(coeff, white, conn=None, place="top"):
        verts = [{"id": 0, "kind": "white", "arity": white}]
        edges = []
        if conn is not None:
            verts.append({"id": 1, "kind": "connection", "derivOrder": conn})
            if place != "top":
                edges.append({"from": 0, "to": 1,
                              "slot": {"group": place, "index": 0}})
        verts += [{"id": 10 + p, "kind": "boundary", "boundary": p}
                  for p in (-1, 0, 1, 2, 3)]
        return {"coeff": coeff, "graph": {"vertices": verts, "edges": edges}}

    terms = [term(c, s, o, place)
             for (place, s, o, c), k in
             reference.connection_rule_shapes(2).items() for _ in range(k)]
    obj = {"kind": "connection", "order": 2, "terms": terms}
    assert judge(op, obj) is None
    obj["terms"] = terms[1:]
    assert judge(op, obj) is not None
