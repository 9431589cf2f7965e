"""Run one natops command with its layers timed from outside the program.

    python3 perfbench/tracer.py TRACE.json <natops arguments>

This is the traced stand-in for ``python -m natops``: it imports natops,
wraps the public functions of each layer so that every call records a
span (name, start, end, parent) and counts, runs ``natops.cli.run`` on
the arguments, and writes the spans and counters to TRACE.json when the
command ends.  Exit code and standard output are the command's own.
Nothing under src/natops is changed.

Calls of the hot functions (canonicalize, delta_graph, delta_graph_cached,
differential; up to ~10^5 per command) are only aggregated per (name,
parent); every other call is also kept as a span.
"""

from __future__ import annotations

import json
import sys
import time

import natops.cli  # imports every layer

READY = time.time()

from natops import canonical, cli, complexes, homology, io, jets, linalg, rules  # noqa: E402

# (owner, attribute, span name, hot)
TARGETS = [
    (cli, "run", "cli.run", False),
    (cli, "_read_json", "io.read_json", False),
    (io, "obj_to_sum", "io.parse", False),
    (io, "sum_to_obj", "io.encode", False),
    (io, "template_to_obj", "io.encode", False),
    (io, "slice_to_obj", "io.encode", False),
    (cli, "_write", "io.write", False),
    (rules, "derive_connection_rule", "rules.derive", False),
    (complexes, "enumerate_basis", "enum", False),
    (complexes, "d_squared_zero", "d2check", False),
    (canonical, "canonicalize", "canon", True),
    (complexes, "delta_graph", "delta", True),
    (complexes, "delta_graph_cached", "delta.cached", True),
    (complexes, "differential", "differential", True),
    (homology, "delta_matrix", "assembly", False),
    (homology.SparseMatrixQ, "rank", "rank", False),
    (linalg, "nullspace", "kernel", False),
    (homology, "kernel_basis", "kerbasis", False),
    (jets, "jet_transform", "jets.transform", False),
    (jets, "realize_graph", "jets.realize", False),
    (jets, "random_jet_data", "jets.draw", False),
    (jets.CoordinateChange, "random", "jets.draw", False),
    (jets, "naturality_check", "natcheck", False),
]


class Tracer:
    """Span stack, kept spans, and per-(name, parent) aggregates."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.agg = {}
        self.counts = {"canon.zero": 0, "enum.kept": 0}

    def wrap(self, name, fn, hot):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                pname = parent[0] if parent else None
                if parent:
                    parent[2] += dur
                a = self.agg.get((name, pname))
                if a is None:
                    a = self.agg[(name, pname)] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if not hot:
                    self.spans.append((name, frame[1], end, pname))
            if name == "canon" and result[0] is canonical.ZERO:
                self.counts["canon.zero"] += 1
            elif name == "enum":
                self.counts["enum.kept"] += len(result.graphs)
            return result

        return traced

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if k == "natops" or k.startswith("natops.")]
        for owner, attr, name, hot in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hot)))
                continue
            wrapped = self.wrap(name, raw, hot)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for m in mods:  # rebind names imported with ``from x import f``
                for k, v in list(vars(m).items()):
                    if v is raw:
                        setattr(m, k, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "ready": READY,
                "spans": self.spans,
                "agg": [[n, p] + v for (n, p), v in self.agg.items()],
                "counts": self.counts,
            }, fh)


def main(argv):
    path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(args)
    finally:
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
