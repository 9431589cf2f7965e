"""The remaining commands: genfun, export-dot and rule."""

from .. import cli, io
from ..graphs import Vertex


def cmd_genfun(args):
    from .. import genfun

    if args.upto < 1:
        raise ValueError("--upto must be >= 1")
    if args.upto > cli.MAX_UPTO:
        raise ValueError("--upto must be <= %d (the tests cross-check the "
                         "values up to it)" % cli.MAX_UPTO)
    rows = genfun.table(genfun.g_functional(args.upto))
    cli._write({"rows": [{"d": d, "g": g, "lie": lie}
                         for d, g, lie in rows]}, args.out)
    return 0


def cmd_export_dot(args):
    x = io.obj_to_sum(cli._read_json(args.infile))
    with cli._output(args.out) as fh:
        for k, (g, c) in enumerate(x.sorted_terms()):
            fh.write("// coeff %s\n%s" % (c, io.to_dot(g, "G%d" % k)))
    return 0


def cmd_rule(args):
    from ..rules import rule_for

    if args.order > cli.MAX_RULE_ORDER:
        raise ValueError("--order must be <= %d (templates grow like 2^order)"
                         % cli.MAX_RULE_ORDER)
    # a vector's label is replace_vectorfield's default; the other kinds
    # have none
    tpl = rule_for(Vertex(args.kind, "X", args.order))
    cli._write(io.template_to_obj(tpl), args.out)
    return 0
