"""Graph-complex calculator for natural differential operators.

Multilinear natural operators on vector fields and linear connections are
computed as the kernel of the degree-0 differential of a complex of typed
directed graphs, with exact rational arithmetic throughout, and cross-
checked by an independent tensor-realization oracle.
"""

from .canonical import ZERO, canonicalize, key_bytes
from .complexes import (
    BULLET,
    BULLET_CONNECTED,
    BULLET_NABLA,
    BULLET_NABLA1,
    BULLET_NABLA_TRACE,
    BULLET_NABLA_WHEEL,
    BULLET_WHEEL,
    FAMILIES,
    d_squared_zero,
    differential,
    enumerate_basis,
    member,
)
from .formal import FormalSum, combine
from .graphs import (
    EMPTY,
    Graph,
    Vertex,
    anchor,
    components,
    connection,
    disjoint_union,
    is_connected,
    validate,
    vector,
    white,
)
from .homology import (
    BasisIncompleteError,
    SparseMatrixQ,
    delta_matrix,
    h0_dimension,
    kernel_basis,
    wheel_block_injective,
)
from .jets import (
    CoordinateChange,
    JetData,
    infinitesimal_action,
    jet_transform,
    naturality_check,
    random_jet_data,
    realize,
)
from .operad import (
    bracket_element,
    compose,
    covariant_element,
    lie_expand,
    p_graph,
    sigma_action,
    trace_map,
    trace_sum,
    unit_graph,
)
from .rules import (
    derive_connection_rule,
    replace_connection,
    replace_vectorfield,
    replace_white,
)

__version__ = "0.1.0"
