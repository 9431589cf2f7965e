"""Command-line surface.

All machine output is schema-versioned JSON on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 a verification command found a violation
(d2check residue, naturality counterexample), 2 malformed input or an
output that cannot be written.  A process whose stdout is closed before
its output is written (``natops basis ... | head``) is ended by SIGPIPE,
as C tools are: shell status 141, ``subprocess`` return code -13, and no
traceback.

``python -m natops`` runs :func:`main`, which ends the process with
``os._exit`` once its output is flushed: the interpreter's teardown,
which frees every canonical graph, plan and module one object at a
time, costs a process 15-35 ms on a 2-core host and gives back only
memory the OS takes back at exit anyway.
:func:`run`, which the tests and library callers use, returns the exit
code and leaves the process to end as it would.

A plain command line, the command and then each option once by its
exact name with one value, is read straight from :data:`COMMANDS`.  Any
other (help, an error, an abbreviated option, ``--opt=value``, a repeated
option, a value starting with ``-``) goes to argparse, which builds the
parser of every command, so that every help text, message and exit code
is argparse's.  A process loads only that command's group of
:mod:`natops.commands` and the layers the command uses: ``natcheck`` never
loads the graph complexes, and ``d2check`` never loads the jet oracle.
No command loads the rule oracle (:mod:`natops.oracle`).  Of the standard
library, argparse is loaded only for a command line that is not plain,
json only to read a JSON input (:func:`_read_json`; outputs are written
by :func:`natops.io.dump`), and fractions only by a command that reads a
rational or computes with one (``d2check``, ``basis``, ``lie-expand``
and ``rule`` never do).
"""

import os
import sys
from contextlib import contextmanager
from types import SimpleNamespace

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
#: with each further dimension; higher jet orders grow much faster, which
#: ``MAX_JET_WORK`` bounds.
MAX_DIM = 10

#: Most multiply-adds one ``natcheck`` trial or one ``eval`` may predict
#: (``jets.predicted_work``, from the jet orders, the in-degrees and n).
#: One trial of a bullet d = 4 kernel element at n = 10 predicts 1.2e7 and
#: takes 2.0-2.6 s on a 2-core host; a trial of X1 of order 6 fed by six
#: order-0 fields predicts 2.0e6 at n = 4 (0.8 s), 6.7e7 at n = 6 (35 s)
#: and 1.1e9 at n = 8, where it ran for more than 150 s.  Trials at the
#: bound take 4-10 s.
MAX_JET_WORK = 20_000_000

#: Most multiply-adds all the trials of one ``natcheck`` may predict
#: together, ``--trials`` times the prediction for one trial: at 0.2-0.8
#: microseconds per unit, about 2-7 minutes.  Without it 1000 trials near
#: ``MAX_JET_WORK`` are admitted and run for hours.
MAX_NATCHECK_WORK = 25 * MAX_JET_WORK

#: Most monomials one ``compose`` may build (``operad.monomial_count``,
#: counted before any is built).  X1 of order 7 fed by X2..X8, composed in
#: slot 1 with X1 of order 4 fed by X2..X5, builds 5^7 = 78 125 of them:
#: the command takes 13 s and peaks at 650 MB on a 2-core host, 2.2 s of
#: it in ``operad.compose`` and most of the rest encoding the output.
#: Order 8 would build five times as many.  The largest compose of the
#: tests, at the ``lie-expand`` leaf cap, builds 5 040.
MAX_COMPOSE_MONOMIALS = 100_000

#: Largest ``genfun --upto``.  The integer recurrence takes under 1 ms at
#: 40; the cap stays because the cross-checks of its values, the
#: rooted-tree recursion and the dual identity, run in the tests up to it,
#: not on every run.
MAX_UPTO = 40

#: Most leaves of a ``lie-expand`` word.  Each further letter multiplies
#: the expansion's time by about 8 and its memory by about 4: the
#: left-nested ``c`` word takes 0.8 s and 26 MB at 6 leaves and 6.6 s and
#: 105 MB at 7 on a 2-core host, so one of 9 would run for minutes.
MAX_WORD_LEAVES = 7

#: Largest ``natcheck --trials``.  1000 trials of the unit graph at --dim 1
#: take 0.43 s on a 2-core host; a trial of a larger graph costs far more.
MAX_TRIALS = 1000

#: Largest number of wirings one basis slice may have
#: (``complexes.wiring_count``, counted before any is dealt).  The count is
#: an upper bound on what the slice deals and canonicalizes: the
#: enumeration deals only the wirings whose runs of equal vertices are in
#: key order, and in a connected family only the connected ones.  The
#: largest slice it admits, bullet-nabla-1 d = 5 degree 0 (729 605
#: wirings, 22 165 of them dealt, one per graph), takes 1.6 s for
#: ``basis`` on a 2-core host, 0.4 s of it enumeration and most of the rest
#: JSON encoding; its degree 1 (368 886 wirings, 21 356 dealt) takes 1.5 s.
#: d = 6 has 77 689 746 wirings at degree 0.
MAX_WIRINGS = 1_000_000


#: Most wirings the degree-0 or the degree-1 slice of ``kerbasis`` may
#: build.  ``h0`` has only ``MAX_WIRINGS``, and on a 2-core host it runs
#: every slice that admits: bullet-nabla d = 5 (h0 = 50 514) in about 30 s
#: at 265 MB, bullet-nabla-1 d = 5 (7 614) in 10 s at 66 MB, bullet d = 6
#: (120) in 9 s at 147 MB, bullet-wheel d = 6 (0) in 5 s at 99 MB,
#: bullet-nabla-trace d = 4 (5 320) in 3 s at 44 MB, bullet-connected d = 6
#: (120) in 2 s at 39 MB and bullet-nabla-wheel d = 4 (3 020) in 2 s at
#: 29 MB.  ``kerbasis`` also back-substitutes and prints one vector per
#: dimension of h0, one whole graph object per term: 7.95 MB of JSON for
#: the 376 vectors of bullet-nabla-1 d = 4, and about 670 MB for the 7 614
#: at d = 5.  The slowest slices this admits, bullet-nabla d = 4 (10 396
#: and 5 005 wirings) and bullet d = 5 (3 125 and 9 156), take 0.6-2.7 s.
MAX_ELIMINATION_WIRINGS = 20_000


def _slice_family(args, degrees, limit=MAX_WIRINGS, why=" to enumerate"):
    """The family of ``args``, once the slices of the given degrees are
    known to build at most ``limit`` wirings each; a refusal ends with
    ``why``."""
    from .complexes import wiring_count

    family = FAMILIES[args.family]
    for m in degrees:
        try:
            count = wiring_count(family, args.d, m, limit=limit)
        except RecursionError:
            # the arity multisets nest one level per field or white, so a
            # slice too deep to count is far too large to enumerate
            count = None
        if count is None or count > limit:
            raise ValueError("%s d=%d degree %d has more than %d wirings%s"
                             % (family.name, args.d, m, limit, why))
    return family


def _read_json(path):
    import json

    try:
        with (sys.stdin if path == "-" else open(path)) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise io.SchemaError(str(e))
    except RecursionError:
        raise io.SchemaError("JSON input nests too deeply") from None


def _unwritable(out, reason):
    where = "stdout" if out in (None, "-") else "--out " + out
    return ValueError("cannot write %s: %s" % (where, reason))


def _check_out(out):
    """Refuse, before the command computes anything, an ``--out`` that
    is a directory or lies in none.  Nothing is created or truncated
    here: the file is opened only once the output is ready (``--in`` and
    ``--out`` may name the same file), and whatever else keeps it from
    being opened is reported then."""
    if out in (None, "-"):
        return
    if os.path.isdir(out):
        raise _unwritable(out, "Is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise _unwritable(out, "No such directory")


@contextmanager
def _output(out):
    """The text handle ``--out`` names: stdout for None or ``-``.  The
    output is flushed before the block ends, so that a write that fails
    (a full disk) is refused here, as an ``--out`` that cannot be opened
    is, and never ends in a traceback and exit 1."""
    try:
        if out in (None, "-"):
            yield sys.stdout
            sys.stdout.flush()
            return
        fh = open(out, "w")
        with fh:
            yield fh
    except OSError as e:
        raise _unwritable(out, e.strerror)


def _write(obj, out):
    with _output(out) as fh:
        io.dump(obj, fh)


def _check_dim(dim):
    if dim > MAX_DIM:
        raise ValueError("--dim must be <= %d (the oracle's cost grows like "
                         "a power of the dimension)" % MAX_DIM)


def _arg(*flags, **kw):
    return flags, kw


_OUT = _arg("--out", default=None, help="output file (default stdout)")
_FAMILY = _arg("--family", required=True, choices=sorted(FAMILIES))
_D = _arg("--d", type=int, required=True)
_DEGREE = _arg("--degree", type=int, default=0)
_IN = _arg("--in", dest="infile", required=True)
_SEED = _arg("--seed", type=int, default=0)

#: name -> (help, the module of natops.commands that holds ``cmd_<name>``,
#: the arguments besides ``_OUT``, each as (flags, add_argument keywords))
COMMANDS = {
    "basis": ("enumerate a basis slice", "slices", (_FAMILY, _D, _DEGREE)),
    "diff": ("differential of a formal sum", "slices", (
        _IN, _arg("--family", choices=sorted(FAMILIES)),
        _arg("--d", type=int))),
    "d2check": ("check delta^2 = 0 on a family", "slices", (_FAMILY, _D)),
    "h0": ("dimension of the degree-0 kernel", "slices", (_FAMILY, _D)),
    "kerbasis": ("explicit kernel basis", "slices", (_FAMILY, _D)),
    "matrix": ("differential matrix as triplets", "slices",
               (_FAMILY, _D, _DEGREE)),
    "compose": ("operadic insertion", "operad", (
        _IN, _arg("--slot", type=int, required=True),
        _arg("--with", dest="withfile", required=True))),
    "lie-expand": ("expand a bracket/star word", "operad", (
        _arg("--expr", required=True, help="s-expression, e.g. "
             "'(b (b X1 X2) X3)' or '(c X1 X2)'"),)),
    "trace": ("trace map on an X0-linear sum", "operad", (_IN,)),
    "eval": ("realize a degree-0 sum on jet data", "jets", (
        _IN, _arg("--data", default=None, help="JetData JSON (else random)"),
        _arg("--dim", type=int, default=3), _SEED)),
    "natcheck": ("seeded naturality trials", "jets", (
        _IN, _arg("--dim", type=int, required=True),
        _arg("--trials", type=int, default=20), _SEED)),
    "genfun": ("dimension table from generating functions", "misc",
               (_arg("--upto", type=int, required=True),)),
    "export-dot": ("DOT rendering of a sum", "misc", (_IN,)),
    "rule": ("export a replacement rule template", "misc", (
        _arg("--kind", required=True,
             choices=["white", "vector", "connection"]),
        _arg("--order", type=int, required=True))),
}


def build_parser():
    """The parser of every command, for the command lines :func:`_plain`
    declines: help and errors."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="natops",
        description="graph-complex calculator for natural differential "
                    "operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, kw in (_OUT,) + arguments:
            p.add_argument(*flags, **kw)
    return ap


def _plain(argv):
    """What ``build_parser().parse_args(argv)`` returns, read without
    argparse, when ``argv`` is a plain command line: a command, then
    options of that command, each given once by its exact name and
    followed by one value that does not start with ``-``, every required
    one among them.  Each value gets the option's type and choices check.
    Anything else, help and every error among it, gives None."""
    spec = COMMANDS.get(argv[0]) if argv else None
    if spec is None or len(argv) % 2 == 0:
        return None
    options = {}
    values = {"command": argv[0]}
    for (flag,), kw in (_OUT,) + spec[2]:
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        options[flag] = dest, kw
        values[dest] = kw.get("default")
    given = argv[1::2]
    if len(set(given)) < len(given) or any(
            kw.get("required") and flag not in given
            for flag, (_, kw) in options.items()):
        return None
    for flag, value in zip(given, argv[2::2]):
        if flag not in options or value.startswith("-"):
            return None
        dest, kw = options[flag]
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def run(argv=None):
    """Run one command line; returns its exit code.  A plain command line
    is read without argparse; any other goes to :func:`build_parser`.
    Only the command's group is imported."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv) or build_parser().parse_args(argv)
    # __import__ rather than importlib, so that -X importtime lists it
    name = "%s.commands.%s" % (__package__, COMMANDS[args.command][1])
    __import__(name)
    group = sys.modules[name]
    fn = getattr(group, "cmd_" + args.command.replace("-", "_"))
    try:
        _check_out(args.out)
        return fn(args)
    except io.SchemaError as e:
        sys.stderr.write("input error: %s\n" % e)
        return 2
    except (KeyError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def _monitored():
    """Is any ``sys.monitoring`` tool registered?  Never before 3.12."""
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(i) is not None for i in range(6))


def main():
    """Entry point of ``python -m natops``: :func:`run` on ``sys.argv``,
    then the end of the process.

    SIGPIPE gets its default action back, so a reader that stops early
    ends the process by that signal instead of a ``BrokenPipeError``
    traceback and exit 1, which would read as a found violation.  Once
    ``run`` returns, stderr is flushed and the process ends by
    ``os._exit``: everything natops built is given back by the OS, not
    freed object by object.  ``run`` has flushed stdout with its output
    already (:func:`_output`).  An exception from ``run``
    (argparse's ``SystemExit`` among them) takes the normal exit, and so
    does every process under a profiler or tracer, which writes its
    report at teardown: one set by ``sys.setprofile`` or
    ``sys.settrace``, or, from Python 3.12 on, any tool registered with
    ``sys.monitoring``, through which cProfile profiles there.
    """
    # _signal, the C module that signal wraps: building signal's enum
    # classes would cost every process about 0.65 ms
    import _signal

    if hasattr(_signal, "SIGPIPE"):
        _signal.signal(_signal.SIGPIPE, _signal.SIG_DFL)
    code = run()
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or _monitored()):
        sys.exit(code)  # the report is written at teardown
    if sys.stderr is not None:  # None when the descriptor was closed
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
