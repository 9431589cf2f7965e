"""JSON graph schema and DOT export.

The graph schema::

    {"vertices": [{"id": int, "kind": "vector"|"connection"|"white"|"anchor",
                   "label": str?, "derivOrder": int?, "arity": int?}],
     "edges":    [{"from": int, "to": int,
                   "slot": {"group": "base"|"sym", "index": int}}],
     "whiteOrder": [int]}

Rule templates reuse the schema with boundary ports as extra vertices
carrying a ``boundary`` index.  Formal sums are coefficient/graph pairs
with rational coefficients rendered as strings; on input a coefficient is
an integer or a ``"p/q"`` string (:func:`exact`).  JSON is the only machine
format, written with one layout (:func:`dump`); DOT is write-only, for
eyes.
"""

import re

from .graphs import (
    ANCHOR,
    CONNECTION,
    SYM,
    VECTOR,
    WHITE,
    Graph,
    Vertex,
    validate,
)
SCHEMA = "natops-v1"


class SchemaError(ValueError):
    pass


def _vertex_obj(i, v):
    o = {"id": i, "kind": v.kind}
    if v.kind == VECTOR:
        o["label"] = v.label
        o["derivOrder"] = v.order
    elif v.kind == CONNECTION:
        o["derivOrder"] = v.order
    elif v.kind == WHITE:
        o["arity"] = v.order
    return o


def _slot_obj(code):
    return {"group": "sym" if code == SYM else "base",
            "index": 0 if code == SYM else code}


def graph_to_obj(g):
    verts = [_vertex_obj(i, v) for i, v in enumerate(g.vertices)]
    edges = [{"from": src, "to": e[0], "slot": _slot_obj(e[1])}
             for src, e in enumerate(g.out) if e is not None]
    return {"vertices": verts, "edges": edges, "whiteOrder": list(g.white_order)}


def _shown(node):
    """The first 40 characters of ``node`` as JSON, for a message."""
    import json

    return json.dumps(node)[:40]


def _int(node, what):
    """A JSON integer, exactly: a float (1.9 would read as 1) or a bool is
    a SchemaError, as is anything else."""
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    raise SchemaError("%s must be an integer, got %s" % (what, _shown(node)))


def _label(node):
    """A vector vertex's label: a non-empty JSON string, else a
    SchemaError (a list or a number is not a field's name)."""
    if isinstance(node, str) and node:
        return node
    raise SchemaError("vector label must be a non-empty string, got %s"
                      % _shown(node))


def _typed(node, kind, what):
    """``node`` when it is a JSON object (``kind`` dict) or array (list),
    else a SchemaError naming ``what``."""
    if isinstance(node, kind):
        return node
    raise SchemaError("%s must be a JSON %s, got %s" % (
        what, "object" if kind is dict else "array", _shown(node)))


def obj_to_graph(obj):
    vs = _typed(_typed(obj, dict, "a graph").get("vertices"), list,
                "\"vertices\"")
    ids = [_int(_typed(v, dict, "a vertex").get("id"), "vertex id")
           for v in vs]
    if sorted(ids) != list(range(len(ids))):
        raise SchemaError("vertex ids must be 0..n-1")
    verts = [None] * len(vs)
    for v in vs:
        kind = v.get("kind")
        if kind == VECTOR:
            verts[v["id"]] = Vertex(VECTOR, _label(v.get("label")),
                                    _int(v.get("derivOrder", 0), "derivOrder"))
        elif kind == CONNECTION:
            verts[v["id"]] = Vertex(CONNECTION, None,
                                    _int(v.get("derivOrder", 0), "derivOrder"))
        elif kind == WHITE:
            verts[v["id"]] = Vertex(WHITE, None, _int(v.get("arity", 0), "arity"))
        elif kind == ANCHOR:
            verts[v["id"]] = Vertex(ANCHOR, None, 0)
        else:
            raise SchemaError("unknown vertex kind %r" % kind)
    out = [None] * len(vs)
    for e in _typed(obj.get("edges", []), list, "\"edges\""):
        slot = _typed(_typed(e, dict, "an edge").get("slot", {}), dict,
                      "an edge's \"slot\"")
        group = slot.get("group")
        if group == "sym":
            code = SYM
        elif group == "base":
            code = _int(slot.get("index", 0), "slot index")
            if code not in (0, 1):
                raise SchemaError("base slot index must be 0 or 1")
        else:
            raise SchemaError("slot group must be 'base' or 'sym'")
        src = _int(e.get("from"), "edge \"from\"")
        if not 0 <= src < len(vs):
            raise SchemaError("edge from missing vertex %d" % src)
        if out[src] is not None:
            raise SchemaError("vertex %d has several outgoing edges" % src)
        out[src] = (_int(e.get("to"), "edge \"to\""), code)
    order = None  # only a missing key takes the default order
    if "whiteOrder" in obj:
        order = tuple(_int(w, "whiteOrder entry") for w in
                      _typed(obj["whiteOrder"], list, "\"whiteOrder\""))
    g = Graph(tuple(verts), tuple(out), order)
    bad = validate(g)
    if bad:
        raise SchemaError("; ".join(bad))
    return g


_EXACT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def exact(node):
    """The rational a JSON number stands for: an int, or a ``"p"`` or
    ``"p/q"`` string.  Floats are binary fractions (0.1 would read as
    3602879701896397/36028797018963968) and bools are not numbers, so
    both raise SchemaError, as does anything else."""
    integer = isinstance(node, int) and not isinstance(node, bool)
    if integer or isinstance(node, str) and _EXACT.fullmatch(node):
        import fractions  # per call, a from-import costs 5x as much

        try:
            return fractions.Fraction(node)
        except ZeroDivisionError:  # "p/0"
            pass
    raise SchemaError("expected an integer or a \"p/q\" string, got %s"
                      % _shown(node))


def _frac_to_str(c):
    return _int_text(c) if type(c) is int else str(c)


def sum_to_obj(x):
    return {
        "schema": SCHEMA,
        "terms": [
            {"coeff": _frac_to_str(c), "graph": graph_to_obj(g)}
            for g, c in x.sorted_terms()
        ],
    }


def obj_to_sum(obj):
    from .formal import FormalSum

    out = FormalSum()
    terms = _typed(obj, dict, "a sum").get("terms")
    if terms is None:
        # a bare graph object is accepted as a single +1 term
        out.add_graph(obj_to_graph(obj), 1)
        return out
    for t in _typed(terms, list, "\"terms\""):
        t = _typed(t, dict, "a term")
        if "graph" not in t or "coeff" not in t:
            raise SchemaError("a term must have a \"graph\" and a \"coeff\"")
        out.add_graph(obj_to_graph(t["graph"]), exact(t["coeff"]))
    return out


def template_to_obj(tpl):
    """A rule template in the graph schema, boundary ports marked."""
    from .rules import OUT

    terms = []
    for term in tpl.terms:
        nint = len(term.internals)
        out = nint + len(term.ports)
        verts = []
        for j, v in enumerate(term.internals):
            o = _vertex_obj(j, v)
            if term.ranks[j] is not None:
                o["rank"] = term.ranks[j]
            verts.append(o)
        for p in range(len(term.ports)):
            verts.append({"id": nint + p, "kind": "boundary", "boundary": p})
        verts.append({"id": out, "kind": "boundary", "boundary": -1})
        edges = [{"from": j, "to": out, "slot": _slot_obj(SYM)} if tgt == OUT
                 else {"from": j, "to": tgt[0], "slot": _slot_obj(tgt[1])}
                 for j, tgt in enumerate(term.iout)]
        edges += [{"from": nint + p, "to": j, "slot": _slot_obj(code)}
                  for p, (j, code) in enumerate(term.ports)]
        terms.append({"coeff": term.coeff,
                      "graph": {"vertices": verts, "edges": edges}})
    return {"schema": SCHEMA, "kind": tpl.kind, "order": tpl.order,
            "terms": terms}


def slice_to_obj(bs):
    """A basis slice for :func:`dump`: its graphs and their keys are
    ``map`` arrays, built one graph at a time as they are written."""
    from .canonical import key_bytes

    return {
        "schema": SCHEMA,
        "family": bs.family.name,
        "d": bs.d,
        "degree": bs.m,
        "graphs": map(graph_to_obj, bs.graphs),
        "keys": map(lambda g: key_bytes(g).decode(), bs.graphs),
    }


#: pieces of text :func:`dump` gathers before it writes them to the handle
_PIECES = 4096

# json.encoder's own quoting: its C accelerator, without importing json
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import py_encode_basestring_ascii as _quote
_int_text = int.__repr__


def _scalar(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return _int_text(v)
    if isinstance(v, str):
        return _quote(v)
    # a float would break exactness, and nothing else has a JSON form
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(v).__name__)


def dump(obj, fh):
    """Write ``obj`` and a newline to a text handle in the one JSON layout
    of every output: the bytes of ``json.dumps(obj, indent=1,
    sort_keys=True)``, 2.7-3x faster than json's own indented encoder,
    which is pure Python.  The values are dicts with str keys, lists,
    tuples and ``map`` objects as arrays, strs, ints, bools and None;
    anything else, a float included, raises TypeError.  A ``map`` builds
    each item only as it is written, so that a large output never holds
    its whole object tree.  The text goes out every ``_PIECES`` pieces,
    so it is never held whole in memory (one write per piece costs 5x
    the encoding on a pipe)."""
    pieces = []
    put = pieces.append

    def flush():
        fh.write("".join(pieces))
        pieces.clear()

    # strs and ints, most of the values, are written where they are met
    def encode(v, nl):
        if isinstance(v, dict):
            items = sorted(v)
            if not items:
                put("{}")
                return
            inner = nl + " "
            sep = "{" + inner
            for k in items:
                if not isinstance(k, str):
                    raise TypeError("keys must be str, not %s"
                                    % type(k).__name__)
                x = v[k]
                t = type(x)
                if t is str:
                    put(sep + _quote(k) + ": " + _quote(x))
                elif t is int:
                    put(sep + _quote(k) + ": " + _int_text(x))
                else:
                    put(sep + _quote(k) + ": ")
                    encode(x, inner)
                sep = "," + inner
                if len(pieces) > _PIECES:
                    flush()
            put(nl + "}")
        elif isinstance(v, (list, tuple, map)):
            inner = nl + " "
            first = sep = "[" + inner
            for x in v:
                t = type(x)
                if t is str:
                    put(sep + _quote(x))
                elif t is int:
                    put(sep + _int_text(x))
                else:
                    put(sep)
                    encode(x, inner)
                sep = "," + inner
                if len(pieces) > _PIECES:
                    flush()
            put("[]" if sep == first else nl + "]")
        else:
            put(_scalar(v))

    encode(obj, "\n")
    put("\n")
    flush()


#: Escapes that keep any vector label one quoted DOT string on one line.
_DOT_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def to_dot(g, name="G"):
    """Graphviz rendering; labels encode kind and arity."""
    lines = ["digraph %s {" % name]
    for i, v in enumerate(g.vertices):
        if v.kind == VECTOR:
            label, shape = "%s(v=%d)" % (v.label, v.order), "circle"
        elif v.kind == CONNECTION:
            label, shape = "nabla(w=%d)" % v.order, "triangle"
        elif v.kind == WHITE:
            label, shape = "o(u=%d)" % v.order, "doublecircle"
        else:
            label, shape = "out", "square"
        lines.append('  v%d [label="%s", shape=%s];'
                     % (i, label.translate(_DOT_ESCAPES), shape))
    for src, e in enumerate(g.out):
        if e is None:
            continue
        dst, slot = e
        attr = "" if slot == SYM else ' [label="b%d"]' % slot
        lines.append("  v%d -> v%d%s;" % (src, dst, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"
