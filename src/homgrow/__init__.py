"""Exact homological growth invariants along towers of finite quotients.

Betti numbers, torsion orders, minimal generator counts, integral torsion,
Fuglede-Kadison determinants and L2-torsion of finite based free chain
complexes over Z and over Z[Z^m], computed exactly, with machine checks of
the lemma-level identities that control their growth.
"""

from .chain_complex import (
    AlphaData,
    HomologySummary,
    IntChainComplex,
    d_of_abelian_group,
    d_primewise,
    direct_sum,
    homology,
    laplacian,
    verify_rho_identity,
)
from .errors import (
    DegenerateLevel,
    DegreeOutOfRange,
    DimensionMismatch,
    HomgrowError,
    HypothesisViolated,
    IdentityViolation,
    IncompatibleAction,
    InconsistentProfile,
    InvalidComplex,
    NonSquareMatrix,
    ParseError,
)
from .exact_linalg import (
    FKDet,
    IntMatrix,
    SmithForm,
    cokernel_structure,
    fk_determinant,
    fk_factorization_check,
    kernel_lattice,
    smith_normal_form,
)
from .finite_homology import (
    FinAbGroup,
    Resolution,
    augmentation_filtration,
    coinvariants,
    estimate_constants,
    group_homology,
    nu_kernel_cokernel,
    standard_resolution,
    verify_estimate_bounds,
)
from .group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    ModuleWithAction,
    QuotientComplex,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    operator_norm_bound,
    tensor,
    torus_complex,
)
from .growth import (
    TowerLevel,
    TowerReport,
    bound_lambda,
    probe_alpha_vanishing,
    probe_torsion_growth,
    rank_gradient_example,
    run_tower,
)

__version__ = "0.1.0"
