"""JSON schema round trips, DOT output, CLI behaviour and exit codes."""

import io as _io
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import natops
from natops import cli, io, jets
from natops.canonical import canonicalize, key_bytes
from natops.cli import (
    MAX_COMPOSE_MONOMIALS,
    MAX_DIM,
    MAX_ELIMINATION_WIRINGS,
    MAX_JET_WORK,
    MAX_NATCHECK_WORK,
    MAX_RULE_ORDER,
    MAX_TRIALS,
    MAX_UPTO,
    MAX_WIRINGS,
    MAX_WORD_LEAVES,
    build_parser,
    run,
)
from natops.complexes import enumerate_basis, wiring_count
from natops.formal import FormalSum, combine
from natops.graphs import (
    SYM,
    Graph,
    anchor,
    connection,
    relabel,
    vector,
    white,
)
from natops.operad import lie_expand
from natops.rules import (
    replace_connection,
    replace_vectorfield,
    replace_white,
)

from .helpers import chain_xy, chain_yx, nabla_xy, reference_slice_to_obj
from .test_canonical import SLICES


def test_graph_round_trip():
    for g in enumerate_basis("bullet-nabla-1", 3, 1).graphs:
        back = io.obj_to_graph(graph_obj := io.graph_to_obj(g))
        assert canonicalize(back)[0] == g
        assert json.loads(json.dumps(graph_obj)) == graph_obj


def test_sum_round_trip():
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    again = io.obj_to_sum(json.loads(json.dumps(io.sum_to_obj(b))))
    assert again == b


def test_bare_graph_accepted_as_sum():
    obj = io.graph_to_obj(chain_xy())
    x = io.obj_to_sum(obj)
    assert len(x) == 1


def test_only_a_missing_white_order_takes_the_default(tmp_path):
    # a given "whiteOrder", [] among them, must order the whites; only a
    # missing key takes the default, the whites in id order
    g = enumerate_basis("bullet", 3, 2).graphs[0]
    whites = list(g.white_order)
    assert len(whites) == 2
    obj = io.graph_to_obj(g)
    obj["whiteOrder"] = whites[::-1]
    assert canonicalize(io.obj_to_graph(obj)) == (g, -1)
    del obj["whiteOrder"]
    assert io.obj_to_graph(obj).white_order == tuple(sorted(whites))
    reason = "whiteOrder is not a permutation of the white vertices"
    for given in ([], whites[:1]):
        obj["whiteOrder"] = given
        with pytest.raises(io.SchemaError, match=reason):
            io.obj_to_graph(obj)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(obj))
        code, out, err = _in_process(["export-dot", "--in", str(path)])
        assert code == 2 and out == b"" and reason in err.decode()
    # [] is the order of a graph without whites
    degree0 = io.graph_to_obj(chain_xy())
    assert degree0["whiteOrder"] == []
    assert io.obj_to_graph(degree0) == chain_xy()


def test_schema_errors():
    with pytest.raises(io.SchemaError):
        io.obj_to_graph({"vertices": [{"id": 5, "kind": "vector"}]})
    with pytest.raises(io.SchemaError):
        io.obj_to_graph(
            {
                "vertices": [{"id": 0, "kind": "mystery"}],
                "edges": [],
            }
        )


@pytest.mark.parametrize("field,value", [
    ("derivOrder", 1.9), ("derivOrder", 1.0), ("derivOrder", True),
    ("derivOrder", "1"), ("arity", 2.5), ("index", 1.0), ("from", 0.0),
    ("to", 2.0), ("whiteOrder", 3.0), ("id", 0.0)])
def test_schema_integers_are_exact(tmp_path, capsys, field, value):
    """Integer fields accept JSON ints only: ``int(1.9)`` would read a
    vertex of order 1.9 as order 1."""
    g = next(g for g in enumerate_basis("bullet-nabla-1", 3, 1).graphs
             if any(e is not None and e[1] == 0 for e in g.out))
    obj = io.graph_to_obj(g)
    io.obj_to_graph(obj)  # the unchanged object reads
    if field == "index":
        edge = next(e for e in obj["edges"] if e["slot"]["group"] == "base")
        edge["slot"]["index"] = value
    elif field in ("from", "to"):
        obj["edges"][0][field] = value
    elif field == "whiteOrder":
        obj["whiteOrder"] = [value]
    else:
        vertex = next(v for v in obj["vertices"] if field in v)
        vertex[field] = value
    with pytest.raises(io.SchemaError, match="must be an integer"):
        io.obj_to_graph(obj)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj))
    code, out = _run(["diff", "--in", str(p)])
    assert code == 2 and out == ""
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diff", "natcheck"])
@pytest.mark.parametrize("label", [["X1"], 5])
def test_schema_vector_labels_are_strings(tmp_path, capsys, command, label):
    """A label that is not a string exits 2 with a reason; it is no
    violation (exit 1) and no crash."""
    obj = io.graph_to_obj(chain_xy())
    next(v for v in obj["vertices"] if v.get("label") == "X1")["label"] = label
    with pytest.raises(io.SchemaError, match="non-empty string"):
        io.obj_to_graph(obj)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj))
    extra = ["--dim", "2", "--trials", "1"] if command == "natcheck" else []
    code, out = _run([command, "--in", str(p)] + extra)
    assert code == 2 and out == ""
    assert "vector label must be a non-empty string" in capsys.readouterr().err


def test_schema_edge_from_missing_vertex():
    obj = io.graph_to_obj(chain_xy())
    obj["edges"][0]["from"] = -1
    with pytest.raises(io.SchemaError, match="missing vertex"):
        io.obj_to_graph(obj)


def _reshaped(shape):
    """The bracket b(X1, X2) as a sum object, with one part given a wrong
    JSON shape."""
    obj = io.sum_to_obj(lie_expand("(b X1 X2)"))
    graph = obj["terms"][0]["graph"]
    if shape == "array":
        return [obj]
    if shape == "string":
        return "terms"
    if shape == "terms":
        obj["terms"] = 5
    elif shape == "edge":
        graph["edges"][0] = 5
    elif shape == "slot":
        graph["edges"][0]["slot"] = [1]
    elif shape == "whiteOrder":
        graph["whiteOrder"] = 5
    else:
        del obj["terms"][0]["graph"]
    return obj


_SHAPE_REASONS = {
    "array": "a sum must be a JSON object, got [",
    "string": 'a sum must be a JSON object, got "terms"',
    "terms": '"terms" must be a JSON array, got 5',
    "edge": "an edge must be a JSON object, got 5",
    "slot": "an edge's \"slot\" must be a JSON object, got [1]",
    "whiteOrder": '"whiteOrder" must be a JSON array, got 5',
    "no-graph": 'a term must have a "graph" and a "coeff"',
}


# every command that reads a sum from --in, with the rest of its arguments
_SUM_READERS = {
    "diff": [], "compose": ["--slot", "1", "--with", "{good}"], "trace": [],
    "eval": ["--dim", "2"], "natcheck": ["--dim", "2", "--trials", "1"],
    "export-dot": []}


@pytest.mark.parametrize("command", sorted(_SUM_READERS))
@pytest.mark.parametrize("shape", sorted(_SHAPE_REASONS))
def test_cli_wrong_json_shapes_are_input_errors(tmp_path, command, shape):
    """A sum of the wrong JSON shape is malformed input, exit 2 with a
    reason: no traceback, and no exit 1, which reads as a violation."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(io.sum_to_obj(lie_expand("(b X1 X2)"))))
    bad.write_text(json.dumps(_reshaped(shape)))
    argv = [command, "--in", str(bad)] + [
        a.format(good=good) for a in _SUM_READERS[command]]
    code, out, err = _in_process(argv)
    assert code == 2 and out == b""
    assert err.decode().startswith("input error: " + _SHAPE_REASONS[shape])


def test_template_export_marks_boundary():
    obj = io.template_to_obj(replace_connection(1))
    assert obj["kind"] == "connection" and obj["order"] == 1
    for term in obj["terms"]:
        marks = [v for v in term["graph"]["vertices"] if "boundary" in v]
        assert len(marks) == 3 + 1  # three input ports and the output


def test_dot_output_mentions_kinds():
    # every vertex line holds one quoted DOT string, whatever the vector
    # label: a quote, a backslash and a newline in it are escaped
    quoted = re.compile(r'  v\d+ \[label="((?:[^"\\\n]|\\.)*)", shape=\w+\];')
    for label in ["X1", 'X"1\\\n}']:
        g = relabel(nabla_xy(), {"X1": label})
        text = io.to_dot(g)
        assert "nabla(w=0)" in text and text.count("digraph") == 1
        lines = text.splitlines()
        assert lines[-1] == "}" and lines.count("}") == 1
        vertex = [quoted.fullmatch(line)
                  for line in lines[1:1 + len(g.vertices)]]
        assert all(vertex), lines
        read = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1],
                      vertex[0][1])
        assert read == label + "(v=0)"


def _run(args, stdin_obj=None):
    from contextlib import redirect_stdout

    buf = _io.StringIO()
    with redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


def test_cli_h0(tmp_path):
    code, out = _run(["h0", "--family", "bullet", "--d", "3"])
    assert code == 0
    assert json.loads(out)["h0"] == 2


def test_cli_genfun():
    code, out = _run(["genfun", "--upto", "3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["d"], r["g"], r["lie"]) for r in rows] == [
        (1, 1, 1),
        (2, 3, 1),
        (3, 26, 2),
    ]
    code, out = _run(["genfun", "--upto", str(MAX_UPTO)])
    assert code == 0 and len(json.loads(out)["rows"]) == MAX_UPTO


def test_cli_natcheck_counterexample(tmp_path):
    p = tmp_path / "o2.json"
    p.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(
        ["natcheck", "--in", str(p), "--dim", "2", "--trials", "20", "--seed", "7"]
    )
    assert code == 1
    assert json.loads(out)["result"] == "counterexample"


def test_cli_natcheck_pass(tmp_path):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(io.sum_to_obj(b)))
    code, out = _run(
        ["natcheck", "--in", str(p), "--dim", "3", "--trials", "10", "--seed", "3"]
    )
    assert code == 0
    assert json.loads(out)["result"] == "pass"


def test_cli_basis_round_trip(tmp_path):
    code, out = _run(["basis", "--family", "bullet", "--d", "2", "--degree", "0"])
    assert code == 0
    obj = json.loads(out)
    keys = []
    for gobj in obj["graphs"]:
        g = io.obj_to_graph(gobj)
        keys.append(key_bytes(canonicalize(g)[0]).decode())
    assert keys == obj["keys"]


@pytest.mark.parametrize("family,dmax", SLICES)
def test_basis_slices_stream_as_the_reference(family, dmax):
    """A slice written one graph at a time is byte for byte the whole
    object tree written in the one layout, empty slices included."""
    sizes = []
    for d in range(dmax + 1):
        for m in range(3):
            bs = enumerate_basis(family, d, m)
            buf = _io.StringIO()
            io.dump(io.slice_to_obj(bs), buf)
            assert buf.getvalue() == json.dumps(
                reference_slice_to_obj(bs), indent=1, sort_keys=True) + "\n"
            sizes.append(len(bs.graphs))
    assert 0 in sizes and max(sizes) > 1


@pytest.mark.parametrize("family,d", [("bullet", 4), ("bullet-nabla-1", 3)])
def test_kerbasis_streams_as_the_reference(family, d):
    """A kernel basis written one element at a time is byte for byte the
    whole object tree written in the one layout."""
    from natops.homology import kernel_basis

    code, out = _run(["kerbasis", "--family", family, "--d", str(d)])
    assert code == 0
    basis = kernel_basis(family, d)
    assert len(basis) > 1
    want = {"schema": io.SCHEMA, "family": family, "d": d,
            "dimension": len(basis),
            "basis": [io.sum_to_obj(x) for x in basis]}
    assert out == json.dumps(want, indent=1, sort_keys=True) + "\n"


def test_cli_diff_and_d2check(tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(["diff", "--in", str(p)])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1
    code, out = _run(["d2check", "--family", "bullet", "--d", "2"])
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_cli_compose_lie_trace(tmp_path):
    p = tmp_path / "p.json"
    from natops.operad import p_graph

    p.write_text(json.dumps(io.sum_to_obj(FormalSum.of(p_graph()))))
    code, out = _run(["compose", "--in", str(p), "--slot", "2", "--with", str(p)])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1
    code, out = _run(["lie-expand", "--expr", "(b X1 X2)"])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 2
    tr = tmp_path / "tr.json"
    from natops.graphs import SYM, Graph, anchor, vector

    g = Graph(
        (vector("X0", 0), vector("X1", 1), anchor),
        ((1, SYM), (2, SYM), None),
    )
    tr.write_text(json.dumps(io.graph_to_obj(g)))
    code, out = _run(["trace", "--in", str(tr)])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1


def test_cli_compose_rejects_a_scalar_insertion(tmp_path, capsys):
    # X1 of order 1 feeding itself has no anchor: no root to graft
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(io.sum_to_obj(lie_expand("(b X1 X2)"))))
    b.write_text(json.dumps(io.graph_to_obj(
        Graph((vector("X1", 1),), ((0, SYM),)))))
    assert run(["compose", "--in", str(a), "--slot", "1",
                "--with", str(b)]) == 2
    err = capsys.readouterr().err
    assert "must be anchored" in err and "Traceback" not in err


def test_cli_lie_expand_rejects_a_too_deep_word(capsys):
    start = time.perf_counter()
    assert run(["lie-expand", "--expr", "(b " * 1200]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "nests too deeply" in err and "Traceback" not in err


def _word(op, leaves):
    """The right-nested word (op X1 (op X2 ... Xk))."""
    word = "X%d" % leaves
    for i in range(leaves - 1, 0, -1):
        word = "(%s X%d %s)" % (op, i, word)
    return word


@pytest.mark.parametrize("leaves", [MAX_WORD_LEAVES + 1, 9, 30])
def test_cli_lie_expand_leaf_cap(capsys, leaves):
    start = time.perf_counter()
    code, out = _run(["lie-expand", "--expr", _word("c", leaves)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "at most %d leaves" % MAX_WORD_LEAVES in err
    assert "Traceback" not in err


def test_cli_lie_expand_admits_the_largest_word():
    # the right-nested b word is the cheapest of its size (about 0.3 s)
    code, out = _run(["lie-expand", "--expr", _word("b", MAX_WORD_LEAVES)])
    assert code == 0 and len(json.loads(out)["terms"]) == 5040


def test_cli_natcheck_trials_cap(tmp_path, capsys):
    p = tmp_path / "unit.json"
    p.write_text(json.dumps(io.graph_to_obj(
        Graph((vector("X1"), anchor), ((1, SYM), None)))))
    args = ["natcheck", "--in", str(p), "--dim", "1", "--trials"]
    code, out = _run(args + [str(MAX_TRIALS)])
    assert code == 0 and json.loads(out)["trials"] == MAX_TRIALS
    for trials in (MAX_TRIALS + 1, 10 ** 9):
        start = time.perf_counter()
        code, out = _run(args + [str(trials)])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "--trials must be <= %d" % MAX_TRIALS in err
        assert "Traceback" not in err


def test_cli_refuses_a_graph_too_symmetric_to_canonicalize(tmp_path, capsys):
    # 12 order-1 fields, each on its own self-loop: the canonical search
    # would visit 12! leaves
    p = tmp_path / "loops.json"
    p.write_text(json.dumps(io.graph_to_obj(
        Graph([vector("X1", 1)] * 12, [(i, SYM) for i in range(12)]))))
    start = time.perf_counter()
    code, out = _run(["diff", "--in", str(p)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "too symmetric" in err and "Traceback" not in err


def test_cli_matrix_triplets():
    code, out = _run(["matrix", "--family", "bullet-nabla-1", "--d", "2",
                      "--degree", "0"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["rows"], obj["cols"]) == (1, 4)
    assert sorted(t[2] for t in obj["triplets"]) == ["-1", "-1", "1", "1"]


def test_cli_eval_deterministic(tmp_path):
    p = tmp_path / "b.json"
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p.write_text(json.dumps(io.sum_to_obj(b)))
    args = ["eval", "--in", str(p), "--dim", "3", "--seed", "11"]
    code1, out1 = _run(args)
    code2, out2 = _run(args)
    assert code1 == code2 == 0
    assert out1 == out2  # identical flags and seed: byte-identical output


def test_cli_bad_input_is_exit_2(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _ = _run(["diff", "--in", str(p)])
    assert code == 2


def test_cli_deeply_nested_json_is_exit_2(tmp_path):
    """100 000 nested arrays overflow the JSON reader's recursion; every
    command that reads JSON exits 2 with a reason, not 1 (natcheck's
    "counterexample found") with a RecursionError traceback."""
    nested, good = tmp_path / "nested.json", tmp_path / "good.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    good.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    for argv in (["diff", "--in", nested],
                 ["compose", "--in", good, "--slot", "1", "--with", nested],
                 ["trace", "--in", nested],
                 ["export-dot", "--in", nested],
                 ["natcheck", "--in", nested, "--dim", "1", "--trials", "1"],
                 ["eval", "--in", good, "--data", nested]):
        p = subprocess.run(
            [sys.executable, "-m", "natops"] + [str(a) for a in argv],
            capture_output=True, text=True, env=_env(), timeout=60)
        assert (p.returncode, p.stdout) == (2, ""), argv
        assert p.stderr == "input error: JSON input nests too deeply\n", argv


@pytest.mark.parametrize("where", ["missing-directory", "directory",
                                   "dangling-link", "full-device"])
def test_cli_out_that_cannot_be_written(tmp_path, capsys, where):
    """An --out that cannot be opened or written exits 2 with a reason.  A
    directory, or a path in none, is refused before the command runs (the
    malformed --in is never read); a link into a missing directory fails
    only when the output is opened, and a full device only when it is
    written."""
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    out = tmp_path / "no-such-dir" / "o.json"
    if where == "directory":
        out = tmp_path
    elif where == "dangling-link":
        (tmp_path / "link.json").symlink_to(out)
        out = tmp_path / "link.json"
    elif where == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        out = "/dev/full"
    if where in ("dangling-link", "full-device"):
        argv = ["h0", "--family", "bullet", "--d", "2", "--out", str(out)]
    else:
        argv = ["diff", "--in", str(junk), "--out", str(out)]
    code, stdout = _run(argv)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err.startswith(
        "error: cannot write --out %s: " % out)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["h0", "--family", "bullet", "--d", "3"],
    ["basis", "--family", "bullet", "--d", "4", "--degree", "1"]])
def test_stdout_that_cannot_be_written(argv):
    """A stdout on a full device exits 2 with the reason and no traceback,
    whether the write fails at the end (h0's few bytes) or while the
    output is written (basis's 600 KB, written in pieces)."""
    with open("/dev/full", "w") as full:
        p = subprocess.run(
            [sys.executable, "-m", "natops"] + argv, stdout=full,
            stderr=subprocess.PIPE, text=True, env=_env(), timeout=120)
    assert p.returncode == 2
    assert p.stderr == "error: cannot write stdout: No space left on device\n"


def test_cli_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    """--out is opened only once the output is ready: a command that fails
    leaves no empty file behind and an existing file as it was, and --in
    and --out may name the same file."""
    junk, out = tmp_path / "junk.json", tmp_path / "o.json"
    junk.write_text("{not json")
    assert run(["diff", "--in", str(junk), "--out", str(out)]) == 2
    assert not out.exists()
    out.write_text("kept")
    assert run(["diff", "--in", str(junk), "--out", str(out)]) == 2
    assert out.read_text() == "kept"
    capsys.readouterr()
    out.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    assert run(["diff", "--in", str(out), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["terms"]) == 1


_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _env():
    """This environment, with natops's source first on the path and
    PYTHONUNBUFFERED unset: output still buffered when a process ends by
    ``os._exit`` is lost unless it was flushed."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# the natcheck control is nabla_xy, Gamma(X1, X2) with no derivative: not
# natural (the connection is not a tensor), so it exits 1
_ENTRY_CASES = {
    "h0": (["h0", "--family", "bullet-wheel", "--d", "2"], 0),
    "natcheck-control": (["natcheck", "--in", "{bare}", "--dim", "3",
                          "--trials", "3"], 1),
    "malformed-json": (["diff", "--in", "{junk}"], 2),
    "argparse-error": (["h0", "--family", "no-such-family", "--d", "2"], 2),
    "out-file": (["h0", "--family", "bullet", "--d", "3", "--out", "{out}"],
                 0),
    "large-output": (["basis", "--family", "bullet", "--d", "4",
                      "--degree", "1"], 0),
}


def _in_process(argv):
    """Exit code, stdout and stderr of ``cli.run`` in this process."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("case", sorted(_ENTRY_CASES))
def test_cli_subprocess_entry(tmp_path, case):
    # python -m natops ends by os._exit once its output is flushed: what
    # it writes, through a pipe or to --out, and its exit code are those
    # of cli.run in this process
    (tmp_path / "bare.json").write_text(
        json.dumps(io.graph_to_obj(nabla_xy())))
    (tmp_path / "junk.json").write_text("{not json")
    args, want = _ENTRY_CASES[case]

    def argv(out):
        return [a.format(bare=tmp_path / "bare.json",
                         junk=tmp_path / "junk.json",
                         out=tmp_path / out) for a in args]

    proc = subprocess.run([sys.executable, "-m", "natops"] + argv("sub.json"),
                          env=_env(), capture_output=True)
    code, out, err = _in_process(argv("run.json"))
    assert proc.returncode == code == want
    assert proc.stdout == out and proc.stderr == err
    if case == "large-output":
        assert len(out) > 64 * 1024  # more than a pipe holds
    if case == "out-file":
        assert out == b""
        got = (tmp_path / "sub.json").read_bytes()
        assert got == (tmp_path / "run.json").read_bytes()
        assert json.loads(got)["h0"] == 2
    else:
        assert not (tmp_path / "sub.json").exists()


class _Stream(_io.StringIO):
    """A text stream that records what it held when last flushed."""

    flushed = None

    def flush(self):
        self.flushed = self.getvalue()
        super().flush()


class _Exited(Exception):
    pass


@pytest.fixture
def sigpipe():
    """main() gives SIGPIPE its default action; the test process gets its
    own back."""
    old = signal.getsignal(signal.SIGPIPE)
    yield
    signal.signal(signal.SIGPIPE, old)


def _fake_run(argv=None):
    # output goes through cli._output, which flushes it; main flushes stderr
    with cli._output(None) as fh:
        fh.write("output")
    sys.stderr.write("note")
    return 3


def test_main_ends_by_os_exit_once_flushed(monkeypatch, sigpipe):
    out, err = _Stream(), _Stream()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    # no profiler or tracer, even when the suite runs under one
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(cli, "_monitored", lambda: False)
    monkeypatch.setattr(cli, "run", _fake_run)
    exits = []

    def _exit(code):
        exits.append((code, out.flushed, err.flushed))
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", _exit)
    with pytest.raises(_Exited):
        cli.main()
    assert exits == [(3, "output", "note")]
    assert signal.getsignal(signal.SIGPIPE) == signal.SIG_DFL


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
def test_main_exits_normally_under_a_profiler(monkeypatch, sigpipe, hook):
    # a profiler or tracer writes its report at teardown, so main keeps it
    monkeypatch.setattr(cli, "run", _fake_run)
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("_exit"))
    getter = getattr(sys, hook.replace("set", "get"))
    setter = getattr(sys, hook)
    old = getter()
    setter(lambda *a: None)
    try:
        with pytest.raises(SystemExit) as e:
            cli.main()
    finally:
        setter(old)
    assert e.value.code == 3


@pytest.mark.skipif(not hasattr(sys, "monitoring"),
                    reason="sys.monitoring is new in Python 3.12")
def test_main_exits_normally_under_a_monitoring_tool(monkeypatch, sigpipe):
    # cProfile registers through sys.monitoring from 3.12 on, with no
    # profile function set, and writes its report at teardown
    monkeypatch.setattr(cli, "run", _fake_run)
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("_exit"))
    monitoring = sys.monitoring
    tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
    monitoring.use_tool_id(tool, "natops test")
    try:
        with pytest.raises(SystemExit) as e:
            cli.main()
    finally:
        monitoring.free_tool_id(tool)
    assert e.value.code == 3


def test_cprofile_writes_its_report(tmp_path):
    report = tmp_path / "F"
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(report), "-m", "natops",
         "h0", "--family", "bullet", "--d", "2"],
        env=_env(), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h0"] == 1
    assert report.stat().st_size > 0


def test_closed_pipe_ends_the_process_by_sigpipe(tmp_path):
    # the reader stops after 10 bytes of a 600 KB output: the process ends
    # by the signal, as C tools do, with no traceback and no exit 1
    err = tmp_path / "err"
    with open(err, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "natops", "basis", "--family", "bullet",
             "--d", "4", "--degree", "1"],
            env=_env(), stdout=subprocess.PIPE, stderr=fh)
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert head == b'{\n "d": 4,'
    assert code == -signal.SIGPIPE
    assert err.read_bytes() == b""


# runs natops.cli.main on its arguments and prints the modules the
# process has loaded when main ends it
_LOADED = """import os, sys
from natops.cli import main
end = os._exit
def report(code):
    print(" ".join(sorted(sys.modules)), flush=True)
    end(code)
os._exit = report
main()
"""


def _loaded(code, *args):
    """natops's modules, without their ``natops.`` prefix, and the other
    modules that a ``python -S`` process running ``code`` has loaded:
    without ``site`` no hook of the host preloads a module."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args],
                          env=_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    return ({m[len("natops."):] for m in names if m.startswith("natops.")},
            {m for m in names if m.split(".")[0] != "natops"})


def test_import_natops_loads_no_layer():
    code = "import sys, natops\nprint(' '.join(sys.modules))"
    layers, std = _loaded(code)
    assert layers == set()
    assert not std & {"argparse", "json", "fractions", "__future__"}


def test_commands_load_only_their_layers(tmp_path):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(io.sum_to_obj(b)))
    out = str(tmp_path / "out.json")
    fam = ["--family", "bullet", "--d", "2"]
    for argv, group in [
            (["natcheck", "--in", str(p), "--dim", "2", "--trials", "1"],
             "jets"),
            (["h0"] + fam, "slices"), (["kerbasis"] + fam, "slices"),
            (["matrix"] + fam + ["--degree", "0"], "slices"),
            (["d2check"] + fam, "slices"),
            (["basis"] + fam + ["--degree", "1"], "slices"),
            (["rule", "--kind", "connection", "--order", "2"], "misc"),
            (["genfun", "--upto", "3"], "misc")]:
        loaded, std = _loaded(_LOADED, *argv, "--out", out)
        # a plain command line needs no argparse (nor signal, whose C
        # module gives SIGPIPE its default action), only a JSON input needs
        # json, and a command that makes no rational needs no fractions:
        # the rank of h0 stays on ints, the kernel of bullet d = 2 is
        # integral, and genfun's recurrence is over the integers
        assert not std & {"argparse", "__future__", "signal"}, argv[0]
        assert ("json" in std) == (group == "jets"), argv[0]
        if argv[0] != "natcheck":
            assert not std & {"fractions", "decimal"}, argv[0]
        assert "series" not in loaded, argv[0]
        # the cancel-dropping add lives in formal, so sums add without the
        # elimination, and matrix writes the differential it never reduces
        if argv[0] in ("d2check", "basis", "matrix"):
            assert "linalg" not in loaded, argv[0]
        # its own group of commands, and never the rule oracle
        assert {m for m in loaded if m.startswith("commands")} == {
            "commands", "commands." + group}, argv[0]
        assert "oracle" not in loaded, argv[0]
        if group == "jets":
            assert "jets" in loaded
            assert not loaded & {"complexes", "homology", "operad",
                                 "genfun", "rules"}
        elif group == "slices":
            assert "complexes" in loaded
            assert not loaded & {"jets", "operad", "genfun"}
        else:
            # io loads canonical forms and formal sums only to read a sum
            # or write a slice, which neither rule nor genfun does
            assert ("rules" if argv[0] == "rule" else "genfun") in loaded
            assert not loaded & {"jets", "complexes", "homology",
                                 "canonical", "formal"}, argv[0]


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nosuch"], ["natcheck", "--help"], ["h0", "--help"],
    ["h0", "--family", "bullet"], ["h0", "--family", "nosuch", "--d", "2"],
    ["h0", "--family", "bullet", "--d", "2", "--bogus"],
    ["h0", "--family", "bullet", "--d", "two"], ["--out", "x", "h0"]])
def test_one_command_parser_reads_as_the_whole(capsys, argv):
    """A command line that is not plain goes from ``run`` to the parser
    of every command: its help, its errors and their exit codes are that
    parser's."""
    def outcome(parse):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        got = capsys.readouterr()
        return e.value.code, got.out, got.err

    whole = outcome(build_parser().parse_args)
    assert whole[0] in (0, 2) and whole[1] + whole[2]
    assert outcome(run) == whole


_FLAGS = sorted({flags[0] for _, _, arguments in cli.COMMANDS.values()
                 for flags, _ in (cli._OUT,) + arguments})
_STRAY = ["-h", "--help", "--", "-5", "x", "--bogus", "h0", "--out=x", "-"]
_BAD_VALUES = ["two", "1.5", "", " 7", "-1", "-x", "--d", "nosuch", "3",
               "bullet", "connection", "0x10"]


@st.composite
def _command_lines(draw):
    """A command, then its options (some missing, some repeated) under
    their names, prefixes, ``=`` forms or other commands' names, with good
    and bad values, and now and then a stray token."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = list((cli._OUT,) + cli.COMMANDS[command][2])
    chosen = draw(st.permutations(options))
    chosen = chosen[:len(chosen) - draw(st.sampled_from([0, 0, 0, 1, 2]))]
    if draw(st.integers(0, 5)) == 0:
        chosen.append(draw(st.sampled_from(options)))
    argv = [command]
    for (flag,), kw in chosen:
        if "choices" in kw:
            good = st.sampled_from(kw["choices"])
        elif kw.get("type") is int:
            good = st.integers(-3, 12).map(str)
        else:
            good = st.sampled_from(["in.json", "a b", "x=1"])
        value = draw(good if draw(st.integers(0, 5)) else
                     st.sampled_from(_BAD_VALUES))
        name = flag
        if draw(st.integers(0, 7)) == 0:
            name = draw(st.one_of(
                st.sampled_from([flag[:k] for k in range(1, len(flag))]),
                st.sampled_from(_FLAGS)))
        if draw(st.integers(0, 9)) == 0:
            argv.append(name + "=" + value)
        else:
            argv += [name, value]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(_STRAY)))
    return argv


@given(_command_lines())
@settings(max_examples=400, deadline=None)
def test_plain_command_lines_read_as_argparse(argv):
    """The plain-form reader either declines a command line or reads it as
    the parser of every command does."""
    got = cli._plain(argv)
    if got is not None:
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit:
            want = None
        assert vars(got) == want


def test_benchmark_command_lines_are_plain(tmp_path, monkeypatch):
    """Every command line of the benchmark's three workloads is read
    without argparse."""
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads

    def plain(argv):
        got = cli._plain(argv)
        assert got is not None, argv
        assert vars(got) == vars(build_parser().parse_args(argv))

    def run_setup(argv, out):
        plain(argv)
        code = run(argv + ["--out", out])
        with open(out) as fh:
            return code, False, fh.read()

    ops = (workloads.classify_ops() + workloads.cochain_ops()
           + workloads.verify_inputs(str(tmp_path), 1, run_setup))
    assert {op.argv[0] for op in ops} == {"h0", "kerbasis", "rule",
                                          "d2check", "natcheck"}
    for op in ops:
        plain(op.argv)


def test_rules_derivation_forwards_to_the_oracle():
    from natops import oracle, rules
    from natops.complexes import differential

    assert rules.derive_connection_rule(0, 4) == differential(
        oracle.connection_probe(0))


def test_every_exported_name_resolves():
    assert len(natops.__all__) == 44
    for name in natops.__all__:
        assert getattr(natops, name) is not None
    assert set(natops.__all__) <= set(dir(natops))
    with pytest.raises(AttributeError):
        natops.no_such_name


@pytest.mark.parametrize("args,reason", [
    (["natcheck", "--dim", "0"], "dimension must be >= 1"),
    (["natcheck", "--dim", "-1"], "dimension must be >= 1"),
    (["natcheck", "--dim", "2", "--trials", "0"], "trials must be >= 1"),
    (["eval", "--dim", "0"], "--dim must be >= 1"),
    (["eval", "--dim", "-1"], "--dim must be >= 1"),
])
def test_cli_jet_commands_reject_bad_ranges(tmp_path, capsys, args, reason):
    # the non-natural O2 chain: a silent "pass" here would hide the check
    p = tmp_path / "o2.json"
    p.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(args[:1] + ["--in", str(p)] + args[1:])
    assert code == 2 and out == ""
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("args,reason", [
    (["rule", "--kind", "vector", "--order", "-1"], "order must be >= 0"),
    (["genfun", "--upto", "0"], "--upto must be >= 1"),
    (["genfun", "--upto", "-1"], "--upto must be >= 1"),
    (["genfun", "--upto", str(MAX_UPTO + 1)],
     "--upto must be <= %d (the tests cross-check the values up to it)"
     % MAX_UPTO),
])
def test_cli_rejects_negative_orders_and_ranges(capsys, args, reason):
    code, out = _run(args)
    assert code == 2 and out == ""
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["white", "vector", "connection"])
def test_cli_rule_order_cap(capsys, kind):
    code, out = _run(["rule", "--kind", kind, "--order", str(MAX_RULE_ORDER)])
    assert code == 0 and json.loads(out)["terms"]
    code, out = _run(["rule", "--kind", kind, "--order", str(MAX_RULE_ORDER + 1)])
    assert code == 2 and out == ""
    assert "--order must be <= %d" % MAX_RULE_ORDER in capsys.readouterr().err


# every command that writes JSON, with its arguments besides --out: {b} is
# the bracket sum and {t} an X0-linear graph
_JSON_WRITERS = {
    "basis": ["--family", "bullet", "--d", "2", "--degree", "1"],
    "diff": ["--in", "{b}"],
    "d2check": ["--family", "bullet", "--d", "2"],
    "h0": ["--family", "bullet", "--d", "2"],
    "kerbasis": ["--family", "bullet", "--d", "2"],
    "matrix": ["--family", "bullet", "--d", "2", "--degree", "0"],
    "compose": ["--in", "{b}", "--slot", "1", "--with", "{b}"],
    "lie-expand": ["--expr", "(b X1 X2)"],
    "trace": ["--in", "{t}"],
    "eval": ["--in", "{b}", "--dim", "2"],
    "natcheck": ["--in", "{b}", "--dim", "2", "--trials", "1"],
    "genfun": ["--upto", "3"],
    "rule": ["--kind", "white", "--order", "3"],
}


def test_json_writers_are_every_command_but_export_dot():
    assert set(_JSON_WRITERS) == set(cli.COMMANDS) - {"export-dot"}


@pytest.mark.parametrize("command", sorted(_JSON_WRITERS))
def test_every_json_output_carries_the_schema(tmp_path, command):
    b, t = tmp_path / "b.json", tmp_path / "t.json"
    b.write_text(json.dumps(io.sum_to_obj(lie_expand("(b X1 X2)"))))
    t.write_text(json.dumps(io.graph_to_obj(Graph(
        (vector("X0", 0), vector("X1", 1), anchor),
        ((1, SYM), (2, SYM), None)))))
    argv = [command] + [a.format(b=b, t=t) for a in _JSON_WRITERS[command]]
    code, out = _run(argv)
    assert code == 0
    assert json.loads(out)["schema"] == "natops-v1" == io.SCHEMA


def test_a_counterexample_carries_the_schema(tmp_path):
    p = tmp_path / "o2.json"
    p.write_text(json.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(["natcheck", "--in", str(p), "--dim", "2"])
    obj = json.loads(out)
    assert code == 1 and obj["result"] == "counterexample"
    assert obj["schema"] == io.SCHEMA


_RULES = {"white": replace_white, "vector": replace_vectorfield,
          "connection": replace_connection}


@pytest.mark.parametrize("kind", sorted(_RULES))
@pytest.mark.parametrize("order", range(-1, 6))
def test_cli_rule_writes_the_template_of_its_kind(capsys, kind, order):
    code, out = _run(["rule", "--kind", kind, "--order", str(order)])
    err = capsys.readouterr().err
    try:
        tpl = _RULES[kind](order)
    except ValueError as e:
        # orders below a rule's least: a white's arity is at least 2
        assert order < (2 if kind == "white" else 0)
        assert str(e) == ("white arity must be >= 2" if kind == "white"
                          else "derivative order must be >= 0")
        assert (code, out, err) == (2, "", "error: %s\n" % e)
        return
    want = _io.StringIO()
    io.dump(io.template_to_obj(tpl), want)
    assert (code, out, err) == (0, want.getvalue(), "")


def _bracket_data(n, entry="1/2"):
    """``eval --data`` jets of X1 and X2 to order 1 at dimension n."""
    return {"n": n, "fields": {lab: [[entry] * n, [[entry] * n] * n]
                               for lab in ("X1", "X2")}}


@pytest.mark.parametrize("command", ["natcheck", "eval", "eval-data"])
def test_cli_dim_cap(tmp_path, capsys, command):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(io.sum_to_obj(b)))
    if command == "eval-data":
        # the data file's own dimension is capped like --dim
        for n, code_want in [(MAX_DIM, 0), (MAX_DIM + 1, 2), (12, 2), (0, 2),
                             (True, 2), ("3", 2)]:
            obj = _bracket_data(n if type(n) is int else 3)
            obj["n"] = n
            data = tmp_path / "data.json"
            data.write_text(json.dumps(obj))
            code, out = _run(["eval", "--in", str(p), "--data", str(data)])
            assert code == code_want, n
            if code:
                assert out == ""
                assert "must be an integer in 1..%d" % MAX_DIM \
                    in capsys.readouterr().err
        return
    extra = ["--trials", "1"] if command == "natcheck" else []
    code, out = _run([command, "--in", str(p), "--dim", str(MAX_DIM)] + extra)
    assert code == 0 and json.loads(out)
    code, out = _run([command, "--in", str(p), "--dim", str(MAX_DIM + 1)] + extra)
    assert code == 2 and out == ""
    assert "--dim must be <= %d" % MAX_DIM in capsys.readouterr().err


def test_cli_eval_data_reads_exact_numbers(tmp_path, capsys):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(io.sum_to_obj(b)))
    data = tmp_path / "data.json"
    for entry in ["1/2", 3, "-7", "+2/3"]:
        data.write_text(json.dumps(_bracket_data(2, entry)))
        code, out = _run(["eval", "--in", str(p), "--data", str(data)])
        assert code == 0 and json.loads(out)["vector"] == ["0", "0"]
    obj = _bracket_data(2, 1)
    obj["fields"]["X1"][1][0] = [2, "1/3"]
    data.write_text(json.dumps(obj))
    code, out = _run(["eval", "--in", str(p), "--data", str(data)])
    # [X1, X2]^0 = X1^j dX2^0/dx^j - X2^j dX1^0/dx^j = 2 - (2 + 1/3)
    assert code == 0 and json.loads(out)["vector"] == ["-1/3", "0"]
    for entry in [0.1, 0.5, True, False, None, "0.5", "1/0", "1e3", " 1",
                  [1]]:
        data.write_text(json.dumps(_bracket_data(2, entry)))
        code, out = _run(["eval", "--in", str(p), "--data", str(data)])
        assert code == 2 and out == "", entry
        assert "expected an integer or a" in capsys.readouterr().err


def test_cli_eval_data_reads_connection_jets(tmp_path, capsys):
    """Gamma(X1, X2) = Gamma^a_(bc) X1^b X2^c on written-out jets, worked
    by hand, and the refusals of jet data that lacks what it needs."""
    p = tmp_path / "nabla.json"
    p.write_text(json.dumps(io.sum_to_obj(FormalSum.of(nabla_xy()))))
    data = tmp_path / "data.json"
    good = {"n": 2, "fields": {"X1": [[1, 2]], "X2": [[3, "-1/2"]]},
            "connection": [[[[1, "2/3"], [0, -1]], [[5, 0], ["1/2", 2]]]]}
    data.write_text(json.dumps(good))
    code, out = _run(["eval", "--in", str(p), "--data", str(data)])
    # 3 - 1/3 + 0 + 1 = 11/3 and 15 + 0 + 3 - 2 = 16
    assert code == 0 and json.loads(out)["vector"] == ["11/3", "16"]
    no_conn = {k: v for k, v in good.items() if k != "connection"}
    wide = json.loads(json.dumps(good))
    wide["fields"]["X1"] = [[1, 2, 3]]
    no_x2 = json.loads(json.dumps(good))
    del no_x2["fields"]["X2"]
    for obj, reason in [(no_conn, "jet data missing connection jets"),
                        (wide, "jet array has wrong extent"),
                        (no_x2, "jet data missing field X2 to order 0")]:
        data.write_text(json.dumps(obj))
        code, out = _run(["eval", "--in", str(p), "--data", str(data)])
        assert code == 2 and out == ""
        assert reason in capsys.readouterr().err


@pytest.mark.parametrize("d,size", [(1, 2), (2, 14)])
def test_cli_wheel_kernel_elements_are_natural(tmp_path, d, size):
    # anchor-free sums realize to scalars through the oracle
    code, out = _run(["kerbasis", "--family", "bullet-nabla-wheel",
                      "--d", str(d)])
    basis = json.loads(out)["basis"]
    assert code == 0 and len(basis) == size
    p = tmp_path / "x.json"
    for element in basis:
        p.write_text(json.dumps(element))
        code, out = _run(["natcheck", "--in", str(p), "--dim", "3"])
        assert code == 0 and json.loads(out)["result"] == "pass"
    code, out = _run(["eval", "--in", str(p), "--dim", "3"])
    assert code == 0 and isinstance(json.loads(out)["scalar"], str)


def test_cli_divergence_is_natural_and_its_terms_are_not(tmp_path):
    # d_a X^a + Gamma^a_(ba) X^b, a scalar: X1's output feeds its own
    # derivative slot, and the connection's its own base slot 1
    div = FormalSum.of(Graph((vector("X1", 1),), ((0, SYM),)))
    conn = FormalSum.of(Graph((vector("X1"), connection(0)),
                              ((1, 0), (1, 1))))
    p = tmp_path / "x.json"
    for x, natural in [(div + conn, True), (div, False), (conn, False),
                       (div - conn, False)]:
        p.write_text(json.dumps(io.sum_to_obj(x)))
        code, out = _run(["natcheck", "--in", str(p), "--dim", "3"])
        obj = json.loads(out)
        if natural:
            assert code == 0 and obj["result"] == "pass"
            continue
        assert code == 1 and obj["result"] == "counterexample"
        bad = jets.naturality_check(x, 3)
        assert bad.lhs != bad.rhs
        assert obj["transformed"] == io._frac_to_str(bad.lhs)
        assert obj["expected"] == io._frac_to_str(bad.rhs)


def test_cli_eval_data_must_be_symmetric(tmp_path, capsys):
    """X1^0_(jk) X2^j X3^k at X2 = e_0, X3 = e_1 reads the entry (0; 0, 1)
    of X1's second derivatives: asymmetric data has no one answer."""
    g = Graph((vector("X1", 2), vector("X2"), vector("X3"), anchor),
              ((3, SYM), (0, SYM), (0, SYM), None))
    p = tmp_path / "g.json"
    p.write_text(json.dumps(io.sum_to_obj(FormalSum.of(g))))
    data = tmp_path / "data.json"

    def write(d01, d10):
        zero1, zero2 = [[0, 0], [0, 0]], [[[0, 0], [0, 0]]] * 2
        data.write_text(json.dumps({"n": 2, "fields": {
            "X1": [[0, 0], zero1, [[[0, d01], [d10, 0]], zero2[0]]],
            "X2": [[1, 0], zero1, zero2], "X3": [[0, 1], zero1, zero2]}}))
        return _run(["eval", "--in", str(p), "--data", str(data)])

    for d01, d10 in [(5, 7), (7, 5)]:
        code, out = write(d01, d10)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "field X1 order 2 is not symmetric" in err
        assert "entry [0, 1, 0] is %d but entry [0, 0, 1] is %d" % (
            d10, d01) in err
    code, out = write(5, 5)
    assert code == 0 and json.loads(out)["vector"] == ["5", "0"]


def test_sum_coefficients_are_exact(tmp_path, capsys):
    obj = io.sum_to_obj(FormalSum.of(chain_xy()))
    for coeff, want in [(2, 2), ("-3/4", Fraction(-3, 4)), ("5", 5)]:
        obj["terms"][0]["coeff"] = coeff
        assert io.obj_to_sum(obj) == FormalSum.of(chain_xy(), want)
    p = tmp_path / "x.json"
    for coeff in [0.1, 1.0, True, "0.1", "1/0", None]:
        obj["terms"][0]["coeff"] = coeff
        with pytest.raises(io.SchemaError):
            io.obj_to_sum(obj)
        p.write_text(json.dumps(obj))
        code, out = _run(["diff", "--in", str(p)])
        assert code == 2 and out == ""
        assert "expected an integer or a" in capsys.readouterr().err


def test_outputs_stream_the_one_layout(tmp_path):
    obj = io.sum_to_obj(lie_expand("(b (b X1 X2) X3)"))
    buf = _io.StringIO()
    io.dump(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=1, sort_keys=True) + "\n"
    p = tmp_path / "x.json"
    p.write_text(json.dumps(obj))
    for command in (["lie-expand", "--expr", "(b (b X1 X2) X3)"],
                    ["diff", "--in", str(p)], ["export-dot", "--in", str(p)]):
        code, out = _run(command)
        dst = tmp_path / "out.txt"
        assert (code, _run(command + ["--out", str(dst)])) == (0, (0, ""))
        assert dst.read_text() == out
    assert out.startswith("// coeff ") and "digraph G0" in out


@pytest.mark.parametrize("command", ["basis", "h0", "kerbasis", "matrix",
                                     "d2check"])
@pytest.mark.parametrize("d", [7, 100000])
def test_cli_wiring_budget(capsys, command, d):
    start = time.perf_counter()
    code, out = _run([command, "--family", "bullet-nabla-1", "--d", str(d)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    # kerbasis has the lower budget only
    budget = MAX_ELIMINATION_WIRINGS if command == "kerbasis" else MAX_WIRINGS
    assert "more than %d wirings" % budget in capsys.readouterr().err


def test_wiring_budget_admits_the_tabulated_slices():
    # bullet-nabla-1 d = 5 is the frontier row; the rest are the largest
    # slices the suite and the benchmark enumerate
    for family, d in [("bullet-nabla-1", 5), ("bullet", 5),
                      ("bullet-connected", 5), ("bullet-wheel", 4),
                      ("bullet-nabla", 3), ("bullet-nabla-wheel", 3),
                      ("bullet-nabla-trace", 2)]:
        for m in (0, 1):
            assert 0 < wiring_count(family, d, m) <= MAX_WIRINGS
    assert wiring_count("bullet-nabla-1", 6, 0) > MAX_WIRINGS


def _star(order):
    """X1 of the given order fed by that many order-0 fields, anchored."""
    fields = tuple(vector("X%d" % (i + 2)) for i in range(order))
    return Graph((vector("X1", order),) + fields + (anchor,),
                 ((order + 1, SYM),) + ((0, SYM),) * order + (None,))


_REFUSED_ELIMINATIONS = [("bullet-nabla-wheel", 4), ("bullet-nabla-trace", 4),
                         ("bullet", 6), ("bullet-nabla-1", 5)]


@pytest.mark.parametrize("command", ["kerbasis"])
@pytest.mark.parametrize("family,d", _REFUSED_ELIMINATIONS)
def test_cli_elimination_budget(capsys, command, family, d):
    """Each slice is above the budget of ``kerbasis``, which the comment
    on ``MAX_ELIMINATION_WIRINGS`` explains, and is refused at once."""
    start = time.perf_counter()
    code, out = _run([command, "--family", family, "--d", str(d)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "more than %d wirings, too many to eliminate" \
        % MAX_ELIMINATION_WIRINGS in capsys.readouterr().err


def test_cli_h0_runs_past_the_elimination_budget():
    """h0 has only the enumeration budget: it runs bullet-nabla-wheel
    d = 4, past ``kerbasis``'s budget with 77 996 wirings at degree 0."""
    code, out = _run(["h0", "--family", "bullet-nabla-wheel", "--d", "4"])
    assert code == 0 and json.loads(out)["h0"] == 3020


def test_elimination_budget_admits_the_run_slices(monkeypatch):
    """Every slice the benchmark's classify and verify set-up, CI, README
    and the timed table run through kerbasis is admitted, and so is
    every slice they and the frontier table run through h0."""
    from types import SimpleNamespace

    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads

    kerbasis = set(workloads.CLASSIFY_KERBASIS)
    kerbasis |= {(family, d) for family, d, _, _ in workloads.VERIFY_BASES}
    kerbasis |= {("bullet-nabla-1", 4), ("bullet-nabla", 4), ("bullet", 5),
                 ("bullet", 2)}
    for family, d in kerbasis:
        args = SimpleNamespace(family=family, d=d)
        assert cli._slice_family(
            args, (0, 1), MAX_ELIMINATION_WIRINGS).name == family
    h0 = kerbasis | set(workloads.CLASSIFY_H0) | set(_REFUSED_ELIMINATIONS)
    h0 |= {("bullet", 3), ("bullet-nabla-1", 3), ("bullet-nabla", 5),
           ("bullet-wheel", 6), ("bullet-connected", 6)}
    for family, d in h0:
        args = SimpleNamespace(family=family, d=d)
        assert cli._slice_family(args, (0, 1)).name == family
    for family, d in _REFUSED_ELIMINATIONS:
        with pytest.raises(ValueError):
            cli._slice_family(SimpleNamespace(family=family, d=d), (0, 1),
                              MAX_ELIMINATION_WIRINGS)


def _white_fan(arity):
    """One white of the given arity fed by that many fields, anchored."""
    fields = tuple(vector("X%d" % (i + 1)) for i in range(arity))
    return Graph(fields + (white(arity), anchor),
                 ((arity, SYM),) * arity + ((arity + 1, SYM), None),
                 (arity,))


@pytest.mark.parametrize("graph", [_white_fan(16), _star(16)],
                         ids=["white16", "order16"])
def test_cli_diff_rule_order_cap(tmp_path, capsys, graph):
    """A vertex of order or arity k has a rule of about 2^k terms: the
    white fan took 20.7 s and the order-16 star 40.1 s."""
    p = tmp_path / "g.json"
    p.write_text(json.dumps(io.graph_to_obj(graph)))
    start = time.perf_counter()
    code, out = _run(["diff", "--in", str(p)])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "its rule has about 2^16 terms (at most %d" % MAX_RULE_ORDER \
        in capsys.readouterr().err


def test_cli_diff_admits_a_kernel_element(tmp_path):
    from natops.homology import kernel_basis

    x = max(kernel_basis("bullet-nabla-1", 4),
            key=lambda x: max(v.order for g, _ in x for v in g.vertices))
    p = tmp_path / "x.json"
    p.write_text(json.dumps(io.sum_to_obj(x)))
    code, out = _run(["diff", "--in", str(p), "--family", "bullet-nabla-1",
                      "--d", "4"])
    assert code == 0 and json.loads(out)["terms"] == []


@pytest.mark.parametrize("flags,reason", [
    (["--d", "2"], "--d requires --family"),
    (["--family", "bullet"], "--family requires --d"),
    (["--family", "bullet", "--d", "2"], "graph outside family bullet"),
])
def test_cli_diff_family_flags(tmp_path, capsys, flags, reason):
    """``--family`` and ``--d`` come together, and the graph must lie in
    that slice: two X1 fields do not."""
    g = Graph((vector("X1"), vector("X1", 1), anchor),
              ((1, SYM), (2, SYM), None))
    p = tmp_path / "g.json"
    p.write_text(json.dumps(io.graph_to_obj(g)))
    code, out = _run(["diff", "--in", str(p)] + flags)
    assert code == 2 and out == ""
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command,order,dim", [
    ("natcheck", 6, 8), ("natcheck", 6, 10), ("natcheck", 9, 10),
    ("eval", 9, 10)])
def test_cli_jet_work_budget(tmp_path, command, order, dim):
    """--dim alone does not bound the oracle: a natcheck trial of the
    order-6 star ran for more than 150 s at n = 8.  Each command runs in
    its own process, killed after 10 s, since an admitted one would run
    for minutes and take gigabytes."""
    p = tmp_path / "star.json"
    p.write_text(json.dumps(io.graph_to_obj(_star(order))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "natops", command, "--in", str(p), "--dim",
         str(dim)] + (["--trials", "1"] if command == "natcheck" else []),
        env=_env(), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert "more than %d" % MAX_JET_WORK in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_natcheck_total_work_budget(tmp_path):
    """The per-trial bound alone admits 1000 trials just under it: one
    trial of the order-5 star at n = 6 predicts 1.5e7 and took 5.5 s, so
    1000 would run for hours.  Killed after 10 s, as above."""
    p = tmp_path / "star.json"
    p.write_text(json.dumps(io.graph_to_obj(_star(5))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "natops", "natcheck", "--in", str(p), "--dim",
         "6", "--trials", "1000"],
        env=_env(), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert "more than %d" % MAX_NATCHECK_WORK in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_compose_monomial_budget(tmp_path):
    """The order-8 star composed in slot 1 with the order-4 star would
    build 5^8 = 390 625 monomials: it ran for 29 s and ended in a
    MemoryError under a 1.5 GB cap.  It runs in its own process, killed
    after 10 s, and must be refused at once."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(io.graph_to_obj(_star(8))))
    b.write_text(json.dumps(io.graph_to_obj(_star(4))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "natops", "compose", "--in", str(a),
         "--slot", "1", "--with", str(b)],
        env=_env(), capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert "compose would build 390625 monomials, more than %d" \
        % MAX_COMPOSE_MONOMIALS in proc.stderr
    assert "Traceback" not in proc.stderr


def test_natcheck_total_work_budget_admits_twenty_trials():
    from natops.commands.jets import _check_work

    x = FormalSum.of(_star(5))
    assert MAX_NATCHECK_WORK == 25 * MAX_JET_WORK
    assert jets.predicted_work(x, 6) <= MAX_JET_WORK
    _check_work(x, 6, 20)
    with pytest.raises(ValueError, match="together, more than"):
        _check_work(x, 6, 1000)


def test_jet_work_budget_admits_the_verified_range():
    """Every natcheck of the benchmark's verify workload (one trial of each
    element of a kernel basis, or of a signed combination of the whole
    basis, and three of each control), one trial of a bullet d = 4 kernel
    element at n = MAX_DIM, and README's example (20 trials at n = 2)
    stay under the budgets."""
    from natops.commands.jets import _check_work
    from natops.homology import kernel_basis

    for family, d, n in [("bullet", 2, 2), ("bullet", 3, 3), ("bullet", 4, 4),
                         ("bullet-nabla-1", 2, 3), ("bullet-nabla-1", 3, 5),
                         ("bullet", 4, MAX_DIM)]:
        basis = kernel_basis(family, d)
        for x in basis + [sum(basis, FormalSum())]:
            assert jets.predicted_work(x, n) <= MAX_JET_WORK, (family, d)
            _check_work(x, n, 1)
    for g, n in [(chain_xy(), 2), (nabla_xy(), 3)]:
        assert jets.predicted_work(FormalSum.of(g), n) <= MAX_JET_WORK
        _check_work(FormalSum.of(g), n, 3)
    for x in kernel_basis("bullet", 2) + [FormalSum.of(chain_xy())]:
        _check_work(x, 2, 20)
    # the two sides of the bound, from the oracle's own cost model
    assert jets.predicted_work(FormalSum.of(_star(6)), 4) <= MAX_JET_WORK
    assert jets.predicted_work(FormalSum.of(_star(6)), 6) > MAX_JET_WORK
    assert jets.predicted_work(FormalSum.of(_star(6)), 8, trial=False) \
        <= MAX_JET_WORK


# --- the JSON writer --------------------------------------------------------

# non-ASCII, quote, backslash and control characters among any others
_strings = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')))
_scalars = st.one_of(
    st.none(), st.booleans(), _strings, st.integers(),
    st.integers(min_value=10 ** 40, max_value=10 ** 400).flatmap(
        lambda k: st.sampled_from([k, -k])))  # past 64 bits, either sign


class _Streamed(list):
    """A list that is handed to ``dump`` as a ``map`` of its items."""


def _containers(children):
    items = st.lists(children, max_size=5)
    return st.one_of(items, items.map(tuple), items.map(_Streamed),
                     st.dictionaries(_strings, children, max_size=5))


def _streamed(v):
    """``v`` with each :class:`_Streamed` list made a ``map`` object."""
    if isinstance(v, dict):
        return {k: _streamed(x) for k, x in v.items()}
    if isinstance(v, _Streamed):
        return map(_streamed, v)
    if isinstance(v, (list, tuple)):
        return type(v)(_streamed(x) for x in v)
    return v


def _plain(v):
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


@given(st.recursive(_scalars, _containers, max_leaves=30))
@settings(max_examples=150, deadline=None)
def test_dump_writes_the_bytes_of_json(value):
    buf = _io.StringIO()
    io.dump(_streamed(value), buf)
    assert buf.getvalue() == json.dumps(
        _plain(value), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, [0.0], {"a": [1, 2.5]}, {1: "x"}, {"a": {None: 1}}, {(1, 2): 3},
    Fraction(1, 2), [{1, 2}], b"x", object()])
def test_dump_refuses_what_has_no_exact_json_form(value):
    with pytest.raises(TypeError):
        io.dump(value, _io.StringIO())


def test_dump_streams_a_long_array():
    class Handle:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    fh = Handle()
    io.dump({"items": map(str, range(10 ** 5))}, fh)
    text = "".join(fh.writes)
    assert text == json.dumps({"items": [str(i) for i in range(10 ** 5)]},
                              indent=1, sort_keys=True) + "\n"
    assert len(fh.writes) >= 10
    assert max(map(len, fh.writes)) < len(text) / 5


@pytest.mark.parametrize("items", [[], [7], ["x", [], {"k": -1}], [[1, [2]]]])
@pytest.mark.parametrize("shape", [
    lambda a: a(),
    lambda a: {"a": a(), "b": 1, "c": a()},
    lambda a: [a(), 2, [a()], {"d": a()}, a()],
])
def test_dump_writes_map_arrays(items, shape):
    """A ``map`` is written as the array of its items, ``[]`` when it
    yields none, alone, inside an object and inside an array."""
    buf = _io.StringIO()
    io.dump(shape(lambda: map(lambda x: x, items)), buf)
    assert buf.getvalue() == json.dumps(
        shape(lambda: list(items)), indent=1, sort_keys=True) + "\n"


def _old_frac_to_str(c):
    """The coefficient text as it was written before ``str(Fraction)``."""
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (
        c.numerator, c.denominator)


_big = st.integers(min_value=10 ** 40, max_value=10 ** 400).flatmap(
    lambda k: st.sampled_from([k, -k]))


@given(st.one_of(
    st.integers(), _big, st.fractions(), st.integers().map(Fraction),
    st.builds(Fraction, _big, st.integers(min_value=1, max_value=10 ** 300))))
@settings(max_examples=300, deadline=None)
def test_frac_to_str_writes_as_before(c):
    assert io._frac_to_str(c) == _old_frac_to_str(c)
