"""Finite-group toolkit: automorphisms as complete mappings.

Builds small groups as exact index tables, computes their automorphism
groups, decides k-completeness and its relatives, constructs explicit
inverted-element witnesses, and searches for complete mappings and
orthomorphisms, all exhaustively verifiable at desk scale.
"""

import os

# autmap does no floating-point linear algebra: its tables use integer takes
# and sorts, and its few `@` products are int64. numpy starts OpenBLAS's
# worker pool when it is imported, and the idle pool costs about 0.1 s of CPU
# per process, so cap it at one thread unless the caller chose a value. This
# has to run before the first submodule imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .automorphisms import (
    AutGroup,
    Automorphism,
    compute_aut,
    compute_inner,
    fixed_points,
    frobenius_field_aut,
    identity_automorphism,
    inner_automorphism,
)
from .completeness import (
    CompletenessVerdict,
    image_ratio,
    inversion_criterion,
    inverted_set,
    is_antisymmetric,
    is_fixed_point_free_equiv,
    is_k_complete,
    is_splitting,
    iterate_map_bijective,
    power_map_bijective,
    suzuki_order,
)
from .fields import FieldParams, field_for
from .groups import (
    GroupTable,
    build_atomic,
    conjugacy_classes,
    direct_product,
    element_orders,
    sylow2_profile,
)
from .mappings import (
    MappingCertificate,
    find_complete_mapping,
    find_orthomorphism,
    hall_paige_predict,
)
from .parser import GroupExpr, elaborate, elaborate_text, parse_group_expr
from .structure import (
    Subgroup,
    derived_series,
    is_solvable,
    normal_subgroups,
    quotient,
    socle,
    solvable_radical,
    transport_aut,
)
from .witnesses import (
    InvertedWitness,
    Psl2Witness,
    WreathAut,
    find_inverted_witness,
    psl2_witness,
)
