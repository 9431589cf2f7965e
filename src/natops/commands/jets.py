"""Commands on the jet oracle: eval and natcheck."""

import random

from .. import cli, io, jets


def _jetdata_from_obj(obj, need):
    labels, order, conn_order = need
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is not int or not 1 <= n <= cli.MAX_DIM:
        raise io.SchemaError("jet data \"n\" must be an integer in 1..%d"
                             % cli.MAX_DIM)

    def tensor(nested, nfixed, nsym, name):
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
                return
            if not isinstance(node, list) or len(node) != n:
                raise io.SchemaError("jet array has wrong extent")
            for i, sub in enumerate(node):
                walk(sub, idx + (i,))

        walk(nested, ())
        return jets.Tensor.from_values(
            n, nfixed, nsym, {key: v for key, (_, v) in first.items()})

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


def _check_work(x, n, trials=None):
    """Refuse ``x`` at dimension n (1 or more) when one realization of it
    (``trials`` None), or one naturality trial, predicts more than
    ``cli.MAX_JET_WORK`` multiply-adds (:func:`natops.jets.predicted_work`),
    or when ``trials`` trials together predict more than
    ``cli.MAX_NATCHECK_WORK``.
    """
    trial = trials is not None
    work = jets.predicted_work(x, n, trial)
    if work > cli.MAX_JET_WORK:
        raise ValueError(
            "%s at dimension %d predicts %.3g multiply-adds, more than %d "
            "(the work grows like a power of the dimension and the jet "
            "orders)" % ("a naturality trial" if trial else "realization", n,
                         work, cli.MAX_JET_WORK))
    if trial and trials * work > cli.MAX_NATCHECK_WORK:
        raise ValueError(
            "%d naturality trials at dimension %d predict %.3g multiply-adds "
            "together, more than %d" % (trials, n, trials * work,
                                        cli.MAX_NATCHECK_WORK))


def _rendered(val):
    """A realized vector or scalar as JSON strings."""
    if isinstance(val, list):
        return [io._frac_to_str(c) for c in val]
    return io._frac_to_str(val)


def cmd_eval(args):
    if args.dim < 1:
        raise ValueError("--dim must be >= 1")
    cli._check_dim(args.dim)
    x = io.obj_to_sum(cli._read_json(args.infile))
    need = jets.data_requirements(x)
    if args.data:
        data = _jetdata_from_obj(cli._read_json(args.data), need)
        _check_work(x, data.n)
    else:
        _check_work(x, args.dim)
        labels, order, conn_order = need
        rng = random.Random(repr(("eval", args.seed)))
        data = jets.random_jet_data(rng, args.dim, labels, order, conn_order)
    val = jets.realize(x, data)
    kind = "vector" if isinstance(val, list) else "scalar"
    cli._write({"schema": io.SCHEMA, kind: _rendered(val)}, args.out)
    return 0


def cmd_natcheck(args):
    cli._check_dim(args.dim)
    if args.trials > cli.MAX_TRIALS:
        raise ValueError("--trials must be <= %d (each trial is a full "
                         "transform and realization)" % cli.MAX_TRIALS)
    x = io.obj_to_sum(cli._read_json(args.infile))
    if args.dim >= 1:  # naturality_check refuses the rest
        _check_work(x, args.dim, args.trials)
    bad = jets.naturality_check(x, args.dim, trials=args.trials,
                                seed=args.seed)
    if bad is None:
        cli._write({"schema": io.SCHEMA, "result": "pass",
                    "trials": args.trials, "dim": args.dim,
                    "seed": args.seed}, args.out)
        return 0
    cli._write({"schema": io.SCHEMA, "result": "counterexample",
                "trial": bad.trial, "dim": args.dim, "seed": args.seed,
                "transformed": _rendered(bad.lhs),
                "expected": _rendered(bad.rhs)}, args.out)
    return 1
