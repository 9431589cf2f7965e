"""Commands on the operad of graphs: compose, lie-expand and trace."""

from .. import cli, io, operad


def cmd_compose(args):
    a = io.obj_to_sum(cli._read_json(args.infile))
    b = io.obj_to_sum(cli._read_json(args.withfile))
    count = operad.monomial_count(a, args.slot, b)
    if count > cli.MAX_COMPOSE_MONOMIALS:
        raise ValueError("compose would build %d monomials, more than %d "
                         "(r**k per pair of terms for r receivers and k "
                         "inputs of the slot)"
                         % (count, cli.MAX_COMPOSE_MONOMIALS))
    cli._write(io.sum_to_obj(operad.compose(a, args.slot, b)), args.out)
    return 0


def cmd_lie_expand(args):
    tree = operad.parse_word(args.expr)
    if len(operad._leaves(tree)) > cli.MAX_WORD_LEAVES:
        raise ValueError("a word must have at most %d leaves (the expansion "
                         "grows about 8x per letter)" % cli.MAX_WORD_LEAVES)
    cli._write(io.sum_to_obj(operad.lie_expand(tree)), args.out)
    return 0


def cmd_trace(args):
    x = io.obj_to_sum(cli._read_json(args.infile))
    cli._write(io.sum_to_obj(operad.trace_sum(x)), args.out)
    return 0
