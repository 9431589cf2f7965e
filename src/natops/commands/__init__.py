"""Command bodies of the ``natops`` command line, one module per group.

:mod:`natops.cli` parses the arguments and imports the group of the
command it runs, and only that group: ``slices`` (basis, diff, d2check,
h0, kerbasis, matrix), ``operad`` (compose, lie-expand, trace), ``jets``
(eval, natcheck) and ``misc`` (genfun, export-dot, rule).  Each command
imports the layers it drives when it runs.  A command named ``a-b`` is
the function ``cmd_a_b`` of its group.
"""
