"""Command-line surface.

All machine output is schema-versioned JSON on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 a verification command found a violation
(d2check residue, naturality counterexample), 2 malformed input.

Each command imports the layers it uses when it runs: ``natcheck`` never
loads the graph complexes, and ``d2check`` never loads the jet oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import io
from .graphs import FAMILIES

#: Largest ``rule --order``.  Templates grow like 2^order; the largest one
#: allowed, the order-9 connection rule (2036 terms, 5 MB of JSON), is
#: built and written in about a second.
MAX_RULE_ORDER = 9

#: Largest ``natcheck --dim`` and ``eval --dim``: the stable dimension
#: 2d - 1 of the largest tabulated slice (bullet-nabla-1, d = 5) is 9.  A
#: one-trial natcheck of a bullet d = 4 kernel element takes 1.1-1.5 s at
#: n = 9 and 2.0-2.6 s at n = 10 on a 2-core host, and grows by about half
#: with each further dimension; higher jet orders grow much faster.
MAX_DIM = 10

#: Largest ``genfun --upto``.  The series grows like N^4 in exact rational
#: products: --upto 40 prints in about 0.35 s, 60 in 1.2 s and 100 in 4.6 s.
#: Its cross-checks, the recursion and the dual identity, run in the tests
#: up to this cap, not on every run.
MAX_UPTO = 40

#: Most leaves of a ``lie-expand`` word.  Each further letter multiplies
#: the expansion's time by about 8 and its memory by about 4: the
#: left-nested ``c`` word takes 0.8 s and 26 MB at 6 leaves and 6.6 s and
#: 105 MB at 7 on a 2-core host, so one of 9 would run for minutes.
MAX_WORD_LEAVES = 7

#: Largest ``natcheck --trials``.  1000 trials of the unit graph at --dim 1
#: take 0.43 s on a 2-core host; a trial of a larger graph costs far more.
MAX_TRIALS = 1000

#: Largest number of wirings one basis slice may build and canonicalize
#: (``complexes.wiring_count``, counted before any is built).  The largest
#: slice it admits, bullet-nabla-1 d = 5 degree 0 (729 605 wirings, 89 185
#: of them connected, 22 165 graphs), takes 6.6-6.7 s for ``basis`` on a
#: 2-core host (11-12 s when every disconnected wiring was built too), 2.6 s
#: of it enumeration and most of the rest JSON encoding; its degree 1
#: (368 886 wirings) takes 6.3 s.  d = 6 has 77 689 746 wirings at degree 0.
MAX_WIRINGS = 1_000_000


def _slice_family(args, degrees):
    """The family of ``args``, once the slices of the given degrees are
    known to build at most ``MAX_WIRINGS`` wirings each."""
    from .complexes import wiring_count

    family = FAMILIES[args.family]
    for m in degrees:
        try:
            count = wiring_count(family, args.d, m, limit=MAX_WIRINGS)
        except RecursionError:
            # the arity multisets nest one level per field or white, so a
            # slice too deep to count is far too large to enumerate
            count = None
        if count is None or count > MAX_WIRINGS:
            raise ValueError(
                "%s d=%d degree %d has more than %d wirings to enumerate"
                % (family.name, args.d, m, MAX_WIRINGS))
    return family


def _read_json(path):
    try:
        with (sys.stdin if path == "-" else open(path)) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise io.SchemaError(str(e))


@contextmanager
def _output(out):
    """The text handle ``--out`` names: stdout for None or ``-``."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write(obj, out):
    with _output(out) as fh:
        io.dump(obj, fh)


def cmd_basis(args):
    from .complexes import enumerate_basis

    fam = _slice_family(args, (args.degree,))
    bs = enumerate_basis(fam, args.d, args.degree)
    _write(io.slice_to_obj(bs), args.out)
    return 0


def cmd_diff(args):
    from .complexes import differential

    x = io.obj_to_sum(_read_json(args.infile))
    fam = args.family if args.family is None else FAMILIES[args.family]
    if fam is not None and args.d is None:
        raise io.SchemaError("--family requires --d")
    y = differential(x, family=fam, d=args.d)
    _write(io.sum_to_obj(y), args.out)
    return 0


def cmd_d2check(args):
    from .complexes import d_squared_zero

    fam = _slice_family(args, (0, 1))
    rep = d_squared_zero(fam, args.d)
    obj = {
        "schema": io.SCHEMA,
        "family": rep.family,
        "d": rep.d,
        "checked": rep.checked,
        "failures": [
            {"graph": io.graph_to_obj(g), "residual": io.sum_to_obj(r)}
            for g, r in rep.failures
        ],
    }
    _write(obj, args.out)
    return 1 if rep.failures else 0


def cmd_h0(args):
    from .homology import h0_dimension

    fam = _slice_family(args, (0, 1))
    n = h0_dimension(fam, args.d)
    _write({"schema": io.SCHEMA, "family": args.family, "d": args.d, "h0": n},
           args.out)
    return 0


def cmd_kerbasis(args):
    from .homology import kernel_basis

    fam = _slice_family(args, (0, 1))
    basis = kernel_basis(fam, args.d)
    obj = {
        "schema": io.SCHEMA,
        "family": args.family,
        "d": args.d,
        "dimension": len(basis),
        "basis": io.Lazy(basis, io.sum_to_obj),
    }
    _write(obj, args.out)
    return 0


def cmd_matrix(args):
    from .homology import delta_matrix

    fam = _slice_family(args, (args.degree, args.degree + 1))
    mat = delta_matrix(fam, args.d, args.degree)
    obj = {
        "schema": io.SCHEMA,
        "family": args.family,
        "d": args.d,
        "degree": args.degree,
        "rows": mat.nrows,
        "cols": mat.ncols,
        "triplets": [[r, c, io._frac_to_str(v)] for r, c, v in mat.triplets()],
    }
    _write(obj, args.out)
    return 0


def cmd_compose(args):
    from .operad import compose

    a = io.obj_to_sum(_read_json(args.infile))
    b = io.obj_to_sum(_read_json(args.withfile))
    _write(io.sum_to_obj(compose(a, args.slot, b)), args.out)
    return 0


def cmd_lie_expand(args):
    from .operad import _leaves, lie_expand, parse_word

    tree = parse_word(args.expr)
    if len(_leaves(tree)) > MAX_WORD_LEAVES:
        raise ValueError("a word must have at most %d leaves (the expansion "
                         "grows about 8x per letter)" % MAX_WORD_LEAVES)
    _write(io.sum_to_obj(lie_expand(tree)), args.out)
    return 0


def cmd_trace(args):
    from .operad import trace_sum

    x = io.obj_to_sum(_read_json(args.infile))
    _write(io.sum_to_obj(trace_sum(x)), args.out)
    return 0


def _jetdata_from_obj(obj, need):
    from . import jets

    labels, order, conn_order = need
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int or not 1 <= n <= MAX_DIM:
        raise io.SchemaError("jet data \"n\" must be an integer in 1..%d"
                             % MAX_DIM)

    def tensor(nested, nfixed, nsym, name):
        t = jets.Tensor(n, nfixed, nsym)
        first = {}  # sorted entry -> (the first index read for it, value)

        def walk(node, idx):
            if len(idx) == nfixed + nsym:
                v = io.exact(node)
                key = idx[:nfixed] + tuple(sorted(idx[nfixed:]))
                idx0, v0 = first.setdefault(key, (idx, v))
                if v != v0:
                    raise io.SchemaError(
                        "%s is not symmetric in its derivative indices: "
                        "entry %s is %s but entry %s is %s"
                        % (name, list(idx), io._frac_to_str(v), list(idx0),
                           io._frac_to_str(v0)))
                if v:
                    t.set(idx[:nfixed], idx[nfixed:], v)
                return
            if not isinstance(node, list) or len(node) != n:
                raise io.SchemaError("jet array has wrong extent")
            for i, sub in enumerate(node):
                walk(sub, idx + (i,))

        walk(nested, ())
        return t

    given = obj.get("fields", {})
    fields = {}
    for lab in labels:
        arrs = given.get(lab) if isinstance(given, dict) else None
        if not isinstance(arrs, list) or len(arrs) < order + 1:
            raise io.SchemaError("jet data missing field %s to order %d"
                                 % (lab, order))
        fields[lab] = [tensor(arrs[v], 1, v, "field %s order %d" % (lab, v))
                       for v in range(order + 1)]
    conn = None
    if conn_order is not None:
        arrs = obj.get("connection")
        if not isinstance(arrs, list) or len(arrs) < conn_order + 1:
            raise io.SchemaError("jet data missing connection jets")
        conn = [tensor(arrs[w], 3, w, "connection order %d" % w)
                for w in range(conn_order + 1)]
    return jets.JetData(n, order, fields, conn, conn_order)


def _check_dim(dim):
    if dim > MAX_DIM:
        raise ValueError("--dim must be <= %d (the oracle's cost grows like "
                         "a power of the dimension)" % MAX_DIM)


def cmd_eval(args):
    from . import jets

    if args.dim < 1:
        raise ValueError("--dim must be >= 1")
    _check_dim(args.dim)
    x = io.obj_to_sum(_read_json(args.infile))
    need = jets.data_requirements(x)
    if args.data:
        data = _jetdata_from_obj(_read_json(args.data), need)
    else:
        import random

        labels, order, conn_order = need
        rng = random.Random(repr(("eval", args.seed)))
        data = jets.random_jet_data(rng, args.dim, labels, order, conn_order)
    val = jets.realize(x, data)
    if isinstance(val, list):
        out = {"schema": io.SCHEMA, "vector": [io._frac_to_str(v) for v in val]}
    else:
        out = {"schema": io.SCHEMA, "scalar": io._frac_to_str(val)}
    _write(out, args.out)
    return 0


def cmd_natcheck(args):
    from . import jets

    _check_dim(args.dim)
    if args.trials > MAX_TRIALS:
        raise ValueError("--trials must be <= %d (each trial is a full "
                         "transform and realization)" % MAX_TRIALS)
    x = io.obj_to_sum(_read_json(args.infile))
    bad = jets.naturality_check(x, args.dim, trials=args.trials, seed=args.seed)
    if bad is None:
        _write({"schema": io.SCHEMA, "result": "pass", "trials": args.trials,
                "dim": args.dim, "seed": args.seed}, args.out)
        return 0
    def render(v):
        if isinstance(v, list):
            return [io._frac_to_str(c) for c in v]
        return io._frac_to_str(v)
    _write({"schema": io.SCHEMA, "result": "counterexample",
            "trial": bad.trial, "dim": args.dim, "seed": args.seed,
            "transformed": render(bad.lhs), "expected": render(bad.rhs)},
           args.out)
    return 1


def cmd_genfun(args):
    from . import genfun

    if args.upto < 1:
        raise ValueError("--upto must be >= 1")
    if args.upto > MAX_UPTO:
        raise ValueError("--upto must be <= %d (the series cost grows like "
                         "N^4)" % MAX_UPTO)
    rows = genfun.table(genfun.g_series(args.upto))
    _write({"schema": io.SCHEMA,
            "rows": [{"d": d, "g": g, "lie": lie} for d, g, lie in rows]},
           args.out)
    return 0


def cmd_export_dot(args):
    x = io.obj_to_sum(_read_json(args.infile))
    with _output(args.out) as fh:
        for k, (g, c) in enumerate(x.sorted_terms()):
            fh.write("// coeff %s\n%s" % (c, io.to_dot(g, "G%d" % k)))
    return 0


def cmd_rule(args):
    from . import rules

    if args.order > MAX_RULE_ORDER:
        raise ValueError("--order must be <= %d (templates grow like 2^order)"
                         % MAX_RULE_ORDER)
    if args.kind == "white":
        tpl = rules.replace_white(args.order)
    elif args.kind == "vector":
        tpl = rules.replace_vectorfield(args.order)
    else:
        tpl = rules.replace_connection(args.order)
    _write(io.template_to_obj(tpl), args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="natops",
        description="graph-complex calculator for natural differential operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    families = sorted(FAMILIES)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = add("basis", cmd_basis, help="enumerate a basis slice")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degree", type=int, default=0)

    p = add("diff", cmd_diff, help="differential of a formal sum")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--family", choices=families)
    p.add_argument("--d", type=int)

    p = add("d2check", cmd_d2check, help="check delta^2 = 0 on a family")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--d", type=int, required=True)

    p = add("h0", cmd_h0, help="dimension of the degree-0 kernel")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--d", type=int, required=True)

    p = add("kerbasis", cmd_kerbasis, help="explicit kernel basis")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--d", type=int, required=True)

    p = add("matrix", cmd_matrix, help="differential matrix as triplets")
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--degree", type=int, default=0)

    p = add("compose", cmd_compose, help="operadic insertion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--with", dest="withfile", required=True)

    p = add("lie-expand", cmd_lie_expand, help="expand a bracket/star word")
    p.add_argument("--expr", required=True,
                   help="s-expression, e.g. '(b (b X1 X2) X3)' or '(c X1 X2)'")

    p = add("trace", cmd_trace, help="trace map on an X0-linear sum")
    p.add_argument("--in", dest="infile", required=True)

    p = add("eval", cmd_eval, help="realize a degree-0 sum on jet data")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--data", default=None, help="JetData JSON (else random)")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = add("natcheck", cmd_natcheck, help="seeded naturality trials")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("genfun", cmd_genfun, help="dimension table from generating functions")
    p.add_argument("--upto", type=int, required=True)

    p = add("export-dot", cmd_export_dot, help="DOT rendering of a sum")
    p.add_argument("--in", dest="infile", required=True)

    p = add("rule", cmd_rule, help="export a replacement rule template")
    p.add_argument("--kind", required=True, choices=["white", "vector", "connection"])
    p.add_argument("--order", type=int, required=True)

    return ap


def run(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except io.SchemaError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except (KeyError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
