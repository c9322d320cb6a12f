"""Combinatorics of semimodules over a two-generator numerical semigroup.

Gap arithmetic, lean sets, staircase lattice paths below a diagonal,
syzygies with their orbit structure, closed-form counts, and brute-force
verification of every formula.
"""

from .counting import (
    CountRow,
    CountTable,
    catalan,
    count_ell_periodic,
    count_fixed_points,
    count_lean_sets,
    count_lean_sets_total,
    narayana,
    orbit_count_table,
)
from .errors import InvariantError
from .leansets import LeanSet, enumerate_lean_sets, is_lean
from .paths import (
    PathMatrix,
    admissible_rotation,
    cyclic_rotations,
    es_turns,
    lean_set_from_path,
    path_from_lean_set,
    se_turns,
    stays_below_diagonal,
)
from .render import RenderSpec, render
from .semigroup import (
    GapPoint,
    Presentation,
    SemigroupPair,
    gap_point,
    gaps,
    is_member,
    membership_sieve,
    presentation,
)
from .semimodules import (
    Semimodule,
    elements_up_to,
    is_isomorphic,
    minimal_generators,
    normalize,
)
from .syzygies import (
    CoupleValidation,
    FundamentalCouple,
    OrbitReport,
    fundamental_couple,
    iterated_syzygy,
    orbit_witness,
    syzygy,
    syzygy_matrix,
    syzygy_oracle,
    syzygy_period,
    validate_fundamental_couple,
)

__version__ = "0.1.0"

__all__ = [
    "CountRow",
    "CountTable",
    "CoupleValidation",
    "FundamentalCouple",
    "GapPoint",
    "InvariantError",
    "LeanSet",
    "OrbitReport",
    "PathMatrix",
    "Presentation",
    "RenderSpec",
    "SemigroupPair",
    "Semimodule",
    "admissible_rotation",
    "catalan",
    "count_ell_periodic",
    "count_fixed_points",
    "count_lean_sets",
    "count_lean_sets_total",
    "cyclic_rotations",
    "elements_up_to",
    "enumerate_lean_sets",
    "es_turns",
    "fundamental_couple",
    "gap_point",
    "gaps",
    "is_isomorphic",
    "is_lean",
    "is_member",
    "iterated_syzygy",
    "lean_set_from_path",
    "membership_sieve",
    "minimal_generators",
    "narayana",
    "normalize",
    "orbit_count_table",
    "orbit_witness",
    "path_from_lean_set",
    "presentation",
    "render",
    "se_turns",
    "stays_below_diagonal",
    "syzygy",
    "syzygy_matrix",
    "syzygy_oracle",
    "syzygy_period",
    "validate_fundamental_couple",
]
