"""Toolkit for split extensions of finite pointed algebras with tuple
witnesses: validation, witness search, canonical forms, action-data
reconstruction, and pullback transport.

The public names below resolve on first access (PEP 562), so ``import
wsext``, which every ``python -m wsext`` runs, executes no module of the
toolkit and each command compiles only the layers it uses.
"""

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "algebra": (
        "DEFAULT_BUDGET", "Equation", "FiniteAlgebra", "FnTable", "Signature",
        "TupleSpace", "check_equation", "check_theta_admissible", "is_homomorphism",
        "make_algebra", "trivial_algebra",
    ),
    "ambient": ("gamma_table", "membership_by_term"),
    "canonical": (
        "CanonicalExtension", "build_canonical", "psi", "sigma_tau_decompose",
        "verify_isomorphism",
    ),
    "extension": (
        "SplitExtension", "Witness", "count_witnesses", "feasible_tuples",
        "find_witnesses", "is_schreier", "phi", "semiabelian_witness",
        "validate_split_extension", "validate_witness",
    ),
    "gammabuild": (
        "GammaData", "build_extension_from_gamma", "check_conditions", "compute_Y",
        "extract_gamma",
    ),
    "report": ("CheckResult", "Report", "ReportEntry"),
    "terms": ("App", "Term", "TermSpec", "ThetaSpec", "Var", "format_term", "parse_term"),
    "transport": (
        "ExtensionMorphism", "ProductCheck", "check_commuting", "check_morphism_surjectivity",
        "enumerate_homomorphisms", "product_algebra", "product_extension_check",
        "pullback_algebra", "pullback_extension", "subalgebra_closure",
        "validate_morphism",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
