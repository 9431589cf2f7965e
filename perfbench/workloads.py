"""The benchmark's workloads: operation lists, their inputs, output checks.

An operation is one ``python -m natops ...`` invocation.  Its check sees
the exit code and the parsed JSON output and returns an error string, or
None when the output is right.  Expected values come from reference.py,
never from the program.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter, namedtuple
from fractions import Fraction

import reference

Op = namedtuple("Op", ["name", "argv", "expect_exit", "check"])

# classify: the classification table, h0 and explicit kernel bases, plus
# the order-2 connection rule that the d = 4 connection slices derive cold.
CLASSIFY_H0 = [("bullet", 4), ("bullet-connected", 4), ("bullet-wheel", 4),
               ("bullet-nabla-1", 2), ("bullet-nabla-1", 3)]
CLASSIFY_KERBASIS = [("bullet", 4), ("bullet-nabla-1", 3)]
RULE_ORDER = 2

# verify: (family, d, n, each).  With ``each`` every kernel element is
# natcheck'ed on its own at n; otherwise one natcheck covers a combination
# of the whole basis with signs drawn from the seed.  Checking the 26
# elements of bullet-nabla-1 d=3 one by one at n = 5 takes 15-19 s, more
# than a pass can hold; the combination realizes the same graphs once.
VERIFY_BASES = [("bullet", 2, 2, True), ("bullet", 3, 3, True),
                ("bullet", 4, 4, True), ("bullet-nabla-1", 2, 3, True),
                ("bullet-nabla-1", 3, 5, False)]
ELEMENT_TRIALS = 1
# A single random trial can miss a non-natural formula (the bare
# connection passes one trial at n = 3 for some natcheck seeds), so the
# controls get three; natcheck stops at the first counterexample.
CONTROL_TRIALS = 3
CONTROLS = [("o2-chain", reference.control_o2_chain, 2),
            ("bare-connection", reference.control_bare_connection, 3)]

# cochain: delta^2 = 0 over degrees 0 and 1.
COCHAIN_SLICES = [("bullet", 4), ("bullet-wheel", 4), ("bullet-connected", 5),
                  ("bullet-nabla", 3), ("bullet-nabla-1", 3),
                  ("bullet-nabla-trace", 2)]

WORKLOADS = ("classify", "verify", "cochain")


def judge(op, exit_code, timed_out, text):
    """Error string for one finished operation, or None if it is right."""
    if timed_out:
        return "timed out"
    if exit_code != op.expect_exit:
        return "exit %d, expected %d" % (exit_code, op.expect_exit)
    try:
        obj = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if not isinstance(obj, dict):
        return "output is not a JSON object"
    try:
        return op.check(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return "malformed output: %r" % (e,)


def _fam(family, d):
    return ["--family", family, "--d", str(d)]


def check_h0(family, d):
    want = reference.h0(family, d)

    def check(obj):
        if obj["h0"] != want:
            return "h0 %r, expected %d" % (obj["h0"], want)
        return None
    return check


def basis_vectors(obj):
    """Kernel vectors of a kerbasis output as {graph key: Fraction}."""
    out = []
    for x in obj["basis"]:
        vec = {}
        for t in x["terms"]:
            key = json.dumps(t["graph"], sort_keys=True)
            vec[key] = vec.get(key, 0) + Fraction(t["coeff"])
        out.append({k: v for k, v in vec.items() if v})
    return out


def check_kerbasis(family, d):
    want = reference.h0(family, d)

    def check(obj):
        if obj["dimension"] != want or len(obj["basis"]) != want:
            return "dimension %r with %d vectors, expected %d" % (
                obj["dimension"], len(obj["basis"]), want)
        r = reference.rank(basis_vectors(obj))
        if r != want:
            return "kernel vectors have rank %d, expected %d" % (r, want)
        return None
    return check


def rule_shapes(obj):
    """Shape counts of a connection rule template, as in reference."""
    shapes = Counter()
    for t in obj["terms"]:
        verts = {v["id"]: v for v in t["graph"]["vertices"]}
        whites = [v for v in verts.values() if v["kind"] == "white"]
        conns = [v for v in verts.values() if v["kind"] == "connection"]
        if len(whites) != 1 or len(conns) > 1:
            return None
        w = whites[0]
        place = "top"
        for e in t["graph"]["edges"]:
            if e["from"] == w["id"] and verts[e["to"]]["kind"] == "connection":
                place = e["slot"]["group"]
        order = conns[0]["derivOrder"] if conns else None
        shapes[(place, w["arity"], order, t["coeff"])] += 1
    return shapes


def check_rule(order):
    want = reference.connection_rule_shapes(order)

    def check(obj):
        if obj["kind"] != "connection" or obj["order"] != order:
            return "rule for %r order %r" % (obj["kind"], obj["order"])
        for t in obj["terms"]:
            ports = [v for v in t["graph"]["vertices"]
                     if v["kind"] == "boundary"]
            if len(ports) != order + 3:
                return "a term has %d boundary ports, expected %d" % (
                    len(ports), order + 3)
        got = rule_shapes(obj)
        if got != Counter(want):
            return "rule term shapes %r, expected %r" % (
                sorted(got.items()) if got else got, sorted(want.items()))
        return None
    return check


def check_natcheck(dim, trials):
    def check(obj):
        if obj["result"] != "pass":
            return "natcheck gave %r, expected a pass" % obj["result"]
        if (obj["dim"], obj["trials"]) != (dim, trials):
            return "natcheck ran %r trials at dim %r, expected %d at %d" % (
                obj["trials"], obj["dim"], trials, dim)
        return None
    return check


def check_control(obj):
    if obj["result"] != "counterexample":
        return "control gave %r, expected a counterexample" % obj["result"]
    return None


def check_d2(family, d):
    want = (reference.degree0_size(family, d)
            + reference.DEGREE1_SIZES[(family, d)])

    def check(obj):
        if obj["failures"]:
            return "%d graphs with a residue" % len(obj["failures"])
        if obj["checked"] != want:
            return "checked %r graphs, expected %d" % (obj["checked"], want)
        return None
    return check


def classify_ops():
    ops = [Op("h0 %s %d" % fd, ["h0"] + _fam(*fd), 0, check_h0(*fd))
           for fd in CLASSIFY_H0]
    ops += [Op("kerbasis %s %d" % fd, ["kerbasis"] + _fam(*fd), 0,
               check_kerbasis(*fd)) for fd in CLASSIFY_KERBASIS]
    ops.append(Op("rule connection %d" % RULE_ORDER,
                  ["rule", "--kind", "connection", "--order", str(RULE_ORDER)],
                  0, check_rule(RULE_ORDER)))
    return ops


def cochain_ops():
    return [Op("d2check %s %d" % fd, ["d2check"] + _fam(*fd), 0,
               check_d2(*fd)) for fd in COCHAIN_SLICES]


def combination(basis, rng):
    """Sum of the kernel elements, each with a sign drawn from ``rng``."""
    terms = []
    for x in basis:
        sign = rng.choice((1, -1))
        terms += [{"coeff": str(sign * Fraction(t["coeff"])), "graph": t["graph"]}
                  for t in x["terms"]]
    return {"schema": reference.SCHEMA, "terms": terms}


def verify_inputs(work, seed, run):
    """Build the verify workload's input files and return its operations.

    ``run(argv, out_path)`` runs ``natops argv`` and returns
    (exit code, timed out, stdout text).  The kernel bases come from the
    program; their sizes are checked here against the reference values,
    and a wrong basis raises RuntimeError.
    """
    rng = random.Random("natcheck-seeds-%d" % seed)
    ops = []
    for family, d, n, each in VERIFY_BASES:
        src = os.path.join(work, "kerbasis-%s-%d.json" % (family, d))
        op = Op("setup kerbasis %s %d" % (family, d),
                ["kerbasis"] + _fam(family, d), 0, check_kerbasis(family, d))
        err = judge(op, *run(op.argv, src))
        if err:
            raise RuntimeError("%s: %s" % (op.name, err))
        with open(src) as fh:
            basis = json.load(fh)["basis"]
        if each:
            inputs = [("#%d" % i, x) for i, x in enumerate(basis)]
        else:
            inputs = [("combination of %d" % len(basis), combination(basis, rng))]
        for label, x in inputs:
            path = os.path.join(work, "natcheck-%s-%d-%s.json"
                                % (family, d, label.replace(" ", "-")))
            with open(path, "w") as fh:
                json.dump(x, fh)
            ops.append(Op(
                "natcheck %s %d %s n=%d" % (family, d, label, n),
                ["natcheck", "--in", path, "--dim", str(n),
                 "--trials", str(ELEMENT_TRIALS),
                 "--seed", str(rng.randrange(1 << 30))],
                0, check_natcheck(n, ELEMENT_TRIALS)))
    for name, build, n in CONTROLS:
        path = os.path.join(work, "control-%s.json" % name)
        with open(path, "w") as fh:
            json.dump(build(), fh)
        ops.append(Op("natcheck control %s n=%d" % (name, n),
                      ["natcheck", "--in", path, "--dim", str(n),
                       "--trials", str(CONTROL_TRIALS),
                       "--seed", str(rng.randrange(1 << 30))],
                      1, check_control))
    return ops
