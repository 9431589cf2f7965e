"""Commands on basis slices and the differential: basis, diff, d2check,
h0, kerbasis and matrix."""

from .. import cli, io
from ..graphs import FAMILIES


def cmd_basis(args):
    from ..complexes import enumerate_basis

    fam = cli._slice_family(args, (args.degree,))
    bs = enumerate_basis(fam, args.d, args.degree)
    cli._write(io.slice_to_obj(bs), args.out)
    return 0


def cmd_diff(args):
    from ..complexes import differential, member

    x = io.obj_to_sum(cli._read_json(args.infile))
    if args.family is not None:
        if args.d is None:
            raise io.SchemaError("--family requires --d")
        fam = FAMILIES[args.family]
        for g, _ in x:
            if not member(fam, g, args.d):
                raise ValueError("graph outside family %s" % fam.name)
    elif args.d is not None:
        raise io.SchemaError("--d requires --family")
    top = max((v.order for g, _ in x for v in g.vertices), default=0)
    if top > cli.MAX_RULE_ORDER:
        raise ValueError("a vertex of order or arity %d: its rule has about "
                         "2^%d terms (at most %d, as for rule --order)"
                         % (top, top, cli.MAX_RULE_ORDER))
    y = differential(x)
    cli._write(io.sum_to_obj(y), args.out)
    return 0


def cmd_d2check(args):
    from ..complexes import d_squared_zero

    fam = cli._slice_family(args, (0, 1))
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
    cli._write(obj, args.out)
    return 1 if rep.failures else 0


def cmd_h0(args):
    from ..homology import h0_dimension

    fam = cli._slice_family(args, (0, 1))
    n = h0_dimension(fam, args.d)
    cli._write({"schema": io.SCHEMA, "family": args.family, "d": args.d,
                "h0": n}, args.out)
    return 0


def cmd_kerbasis(args):
    from ..homology import kernel_basis

    fam = cli._slice_family(
        args, (0, 1), cli.MAX_ELIMINATION_WIRINGS,
        ", too many to eliminate and print as a kernel basis")
    basis = kernel_basis(fam, args.d)
    obj = {
        "schema": io.SCHEMA,
        "family": args.family,
        "d": args.d,
        "dimension": len(basis),
        "basis": map(io.sum_to_obj, basis),
    }
    cli._write(obj, args.out)
    return 0


def cmd_matrix(args):
    from ..homology import delta_matrix

    fam = cli._slice_family(args, (args.degree, args.degree + 1))
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
    cli._write(obj, args.out)
    return 0
