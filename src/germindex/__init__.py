"""germindex: exact fixed-point indices and periodic-point counts for
planar map germs and the surface models built from them."""

from .errors import (
    FieldMismatch,
    GermIndexError,
    IdentityGerm,
    MissingIndexData,
    NonIsolated,
    NotACurveFixingGerm,
    NotAlgebraicallyStable,
    NotCoprime,
    NotDivisible,
    ParseError,
    PrecisionExhausted,
    ScenarioError,
    TypeICurvePresent,
    UnsupportedSingularBranch,
)
from .germs import (
    TYPE_I,
    TYPE_II,
    BranchRecord,
    GermDecomposition,
    IndexReport,
    MapGerm,
    branches,
    classify_branch,
    decompose,
    delta,
    iterate,
    local_index,
)
from .polys import Poly2, factor_list2, gcd2, resultant_z1

__version__ = "0.1.0"
