"""JSON schema round trips, DOT output, CLI behaviour and exit codes."""

import json
import subprocess
import sys

import pytest

from natops import io
from natops.canonical import canonicalize, key_bytes
from natops.cli import MAX_DIM, MAX_RULE_ORDER, MAX_UPTO, run
from natops.complexes import enumerate_basis
from natops.formal import FormalSum, combine
from natops.rules import replace_connection

from .helpers import chain_xy, chain_yx, nabla_xy


def test_graph_round_trip():
    for g in enumerate_basis("bullet-nabla-1", 2, 1).graphs:
        back = io.obj_to_graph(graph_obj := io.graph_to_obj(g))
        assert canonicalize(back)[0] == g
        assert json.loads(io.dumps(graph_obj)) == graph_obj


def test_sum_round_trip():
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    again = io.obj_to_sum(json.loads(io.dumps(io.sum_to_obj(b))))
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
    import io as _io
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
    p.write_text(io.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(
        ["natcheck", "--in", str(p), "--dim", "2", "--trials", "20", "--seed", "7"]
    )
    assert code == 1
    assert json.loads(out)["result"] == "counterexample"


def test_cli_natcheck_pass(tmp_path):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(io.dumps(io.sum_to_obj(b)))
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


def test_cli_diff_and_d2check(tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(io.dumps(io.graph_to_obj(chain_xy())))
    code, out = _run(["diff", "--in", str(p)])
    assert code == 0
    assert len(json.loads(out)["terms"]) == 1
    code, out = _run(["d2check", "--family", "bullet", "--d", "2"])
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_cli_compose_lie_trace(tmp_path):
    p = tmp_path / "p.json"
    from natops.operad import p_graph

    p.write_text(io.dumps(io.sum_to_obj(FormalSum.of(p_graph()))))
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
    tr.write_text(io.dumps(io.graph_to_obj(g)))
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
    p.write_text(io.dumps(io.sum_to_obj(b)))
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
    p.write_text(io.dumps(io.graph_to_obj(chain_xy())))
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


@pytest.mark.parametrize("command", ["natcheck", "eval"])
def test_cli_dim_cap(tmp_path, capsys, command):
    b = combine(FormalSum.of(chain_xy()), FormalSum.of(chain_yx()), 1, -1)
    p = tmp_path / "b.json"
    p.write_text(io.dumps(io.sum_to_obj(b)))
    extra = ["--trials", "1"] if command == "natcheck" else []
    code, out = _run([command, "--in", str(p), "--dim", str(MAX_DIM)] + extra)
    assert code == 0 and json.loads(out)
    code, out = _run([command, "--in", str(p), "--dim", str(MAX_DIM + 1)] + extra)
    assert code == 2 and out == ""
    assert "--dim must be <= %d" % MAX_DIM in capsys.readouterr().err
