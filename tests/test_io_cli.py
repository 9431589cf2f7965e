"""JSON schema round trips, DOT output, CLI behaviour and exit codes."""

import io as _io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import natops
from natops import io
from natops.canonical import canonicalize, key_bytes
from natops.cli import MAX_DIM, MAX_RULE_ORDER, MAX_UPTO, MAX_WIRINGS, run
from natops.complexes import enumerate_basis, wiring_count
from natops.formal import FormalSum, combine
from natops.graphs import SYM, Graph, anchor, vector
from natops.operad import lie_expand
from natops.rules import replace_connection

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


def test_template_export_marks_boundary():
    obj = io.template_to_obj(replace_connection(1))
    assert obj["kind"] == "connection" and obj["order"] == 1
    for term in obj["terms"]:
        marks = [v for v in term["graph"]["vertices"] if "boundary" in v]
        assert len(marks) == 3 + 1  # three input ports and the output


def test_dot_output_mentions_kinds():
    text = io.to_dot(nabla_xy())
    assert "nabla(w=0)" in text and "X1(v=0)" in text and "digraph" in text


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


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "natops", "h0", "--family", "bullet-wheel", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h0"] == 0


_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# runs natops.cli.run on its arguments, then prints the natops.* modules
# the process has loaded
_LOADED = """import sys
from natops.cli import run
code = run(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("natops."))))
sys.exit(code)
"""


def _loaded_layers(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {m[len("natops."):] for m in proc.stdout.split()}


def test_import_natops_loads_no_layer():
    code = ("import sys, natops\n"
            "print(' '.join(m for m in sys.modules if m.startswith('natops.')))")
    assert _loaded_layers(code) == set()


def test_commands_load_only_their_layers(tmp_path):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(json.dumps(io.sum_to_obj(b)))
    out = str(tmp_path / "out.json")
    natcheck = _loaded_layers(_LOADED, "natcheck", "--in", str(p), "--dim",
                              "2", "--trials", "1", "--out", out)
    assert "jets" in natcheck
    assert not natcheck & {"complexes", "homology", "operad", "genfun",
                           "rules"}
    for command in ("d2check", "h0"):
        loaded = _loaded_layers(_LOADED, command, "--family", "bullet",
                                "--d", "2", "--out", out)
        assert "complexes" in loaded
        assert not loaded & {"jets", "operad", "genfun"}


def test_every_exported_name_resolves():
    assert len(natops.__all__) == 54  # the names the package has always exported
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
    (["genfun", "--upto", str(MAX_UPTO + 1)], "--upto must be <= %d" % MAX_UPTO),
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
    assert "more than %d wirings" % MAX_WIRINGS in capsys.readouterr().err


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
