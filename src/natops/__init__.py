"""Graph-complex calculator for natural differential operators.

Multilinear natural operators on vector fields and linear connections are
computed as the kernel of the degree-0 differential of a complex of typed
directed graphs, with exact rational arithmetic throughout, and cross-
checked by an independent tensor-realization oracle.

``import natops`` loads no layer: each name below is imported from its
module on first use (PEP 562), so a command line or a script pays only for
the layers it touches.
"""

import importlib

#: module -> the names it exports at the package level
_EXPORTS = {
    "canonical": ("ZERO", "canonicalize", "key_bytes"),
    "graphs": (
        "EMPTY",
        "FAMILIES",
        "Graph",
        "Vertex",
        "anchor",
        "components",
        "connection",
        "disjoint_union",
        "is_connected",
        "validate",
        "vector",
        "white",
    ),
    "complexes": (
        "d_squared_zero",
        "differential",
        "enumerate_basis",
        "member",
    ),
    "formal": ("FormalSum", "combine"),
    "homology": (
        "BasisIncompleteError",
        "SparseMatrixQ",
        "delta_matrix",
        "h0_dimension",
        "kernel_basis",
    ),
    "jets": (
        "CoordinateChange",
        "JetData",
        "jet_transform",
        "naturality_check",
        "random_jet_data",
        "realize",
    ),
    "operad": (
        "bracket_element",
        "compose",
        "covariant_element",
        "lie_expand",
        "p_graph",
        "sigma_action",
        "trace_map",
        "trace_sum",
        "unit_graph",
    ),
    "rules": (
        "replace_connection",
        "replace_vectorfield",
        "replace_white",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
