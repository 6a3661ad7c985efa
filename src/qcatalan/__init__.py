"""Exact q-polynomial recurrence matrices, planar networks, and immanants.

The package builds lower-triangular matrices from three-term recurrences
over Z[q], realizes them (and their Hankel companions) as weighted planar
networks whose path generating functions reproduce every entry, and checks
total-positivity style statements through symmetric-group characters and
immanants -- all in exact integer arithmetic.
"""

from . import errors
from .csmatrix import (
    CSMatrix,
    build_ln,
    catalan_like,
    catalan_stieltjes,
    hankel,
    submatrix,
)
from .families import (
    BUILTIN_NAMES,
    ConditionReport,
    FamilySpec,
    ParamSeq,
    builtin,
    check_condition,
    load_family,
)
from .immanant import (
    ImmanantReport,
    MatrixProvenance,
    SweepResult,
    determinant,
    immanant,
    inequality_331,
    inequality_332,
    positivity_sweep,
)
from .network import (
    Arc,
    PlanarNetwork,
    Vertex,
    build_cs_network,
    build_hankel_factored,
    build_hankel_network,
    build_layer,
    export_dot,
    glue,
    mirror,
)
from .qpoly import QPoly
from .symchar import (
    CharacterTable,
    Partition,
    centralizer_order,
    character,
    character_table,
    conjugate,
    cycle_type,
    degree,
    partitions_of,
)

__all__ = [
    "Arc",
    "BUILTIN_NAMES",
    "CSMatrix",
    "CharacterTable",
    "ConditionReport",
    "FamilySpec",
    "ImmanantReport",
    "MatrixProvenance",
    "ParamSeq",
    "Partition",
    "PlanarNetwork",
    "QPoly",
    "SweepResult",
    "Vertex",
    "build_cs_network",
    "build_hankel_factored",
    "build_hankel_network",
    "build_layer",
    "build_ln",
    "builtin",
    "catalan_like",
    "catalan_stieltjes",
    "centralizer_order",
    "character",
    "character_table",
    "check_condition",
    "conjugate",
    "cycle_type",
    "degree",
    "determinant",
    "errors",
    "export_dot",
    "glue",
    "hankel",
    "immanant",
    "inequality_331",
    "inequality_332",
    "load_family",
    "mirror",
    "partitions_of",
    "positivity_sweep",
    "submatrix",
]

__version__ = "0.1.0"
