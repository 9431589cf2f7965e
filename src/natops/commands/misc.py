"""The remaining commands: genfun, export-dot and rule."""

from .. import cli, io


def cmd_genfun(args):
    from .. import genfun

    if args.upto < 1:
        raise ValueError("--upto must be >= 1")
    if args.upto > cli.MAX_UPTO:
        raise ValueError("--upto must be <= %d (the tests cross-check the "
                         "values up to it)" % cli.MAX_UPTO)
    rows = genfun.table(genfun.g_functional(args.upto))
    cli._write({"schema": io.SCHEMA,
                "rows": [{"d": d, "g": g, "lie": lie} for d, g, lie in rows]},
               args.out)
    return 0


def cmd_export_dot(args):
    x = io.obj_to_sum(cli._read_json(args.infile))
    with cli._output(args.out) as fh:
        for k, (g, c) in enumerate(x.sorted_terms()):
            fh.write("// coeff %s\n%s" % (c, io.to_dot(g, "G%d" % k)))
    return 0


def cmd_rule(args):
    from .. import rules

    if args.order > cli.MAX_RULE_ORDER:
        raise ValueError("--order must be <= %d (templates grow like 2^order)"
                         % cli.MAX_RULE_ORDER)
    if args.kind == "white":
        tpl = rules.replace_white(args.order)
    elif args.kind == "vector":
        tpl = rules.replace_vectorfield(args.order)
    else:
        tpl = rules.replace_connection(args.order)
    cli._write(io.template_to_obj(tpl), args.out)
    return 0
