"""Toolkit for split extensions of finite pointed algebras with tuple
witnesses: validation, witness search, canonical forms, action-data
reconstruction, and pullback transport."""

from .algebra import (
    DEFAULT_BUDGET,
    Equation,
    FiniteAlgebra,
    FnTable,
    Signature,
    check_commuting,
    check_equation,
    check_theta_admissible,
    enumerate_homomorphisms,
    is_homomorphism,
    make_algebra,
    product_algebra,
    pullback_algebra,
    subalgebra_closure,
    trivial_algebra,
)
from .ambient import CandidateOps, TupleSpace, gamma_table, membership_by_term
from .canonical import (
    CanonicalExtension,
    build_canonical,
    membership_by_gamma_id,
    psi,
    sigma_tau_decompose,
    verify_isomorphism,
)
from .extension import (
    ExtensionMorphism,
    ProductCheck,
    SplitExtension,
    Witness,
    check_morphism_surjectivity,
    count_witnesses,
    feasible_tuples,
    find_witnesses,
    is_schreier,
    phi,
    product_extension_check,
    pullback_extension,
    semiabelian_witness,
    validate_morphism,
    validate_split_extension,
    validate_witness,
)
from .gammabuild import (
    GammaData,
    build_extension_from_gamma,
    check_conditions,
    compute_Y,
    extract_gamma,
)
from .report import CheckResult, Report, ReportEntry
from .terms import (
    App,
    Term,
    TermSpec,
    ThetaSpec,
    Var,
    format_term,
    parse_term,
)

__version__ = "0.1.0"
