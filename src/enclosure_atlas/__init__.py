"""Decomposition of finite-dimensional quantum Markov semigroups into
transient subspace, minimal enclosures, and degenerate enclosure families,
with identifiability checks for the uniqueness of the decomposition.

The public names load on first access (PEP 562), so that importing one
submodule, as the command line does, does not import the others.
"""

import importlib

# Defining module -> the public names it exports.
_EXPORTS = {
    "linalg": (
        "DEFAULT_TOL", "Tolerances", "hermitian_basis", "kernel_basis",
        "matrix_exponential", "psd_project", "support_projector",
    ),
    "semigroup": (
        "KrausChannel", "LindbladModel", "Superoperator", "adjoint_generator",
        "build_generator", "channel_superoperator", "validate",
    ),
    "decomposition": (
        "DecompositionError", "DecompositionReport", "DegenerateFamily", "EnclosureRecord",
        "algebra_structure", "cutoff_generator", "decompose", "extremal_state",
        "family_projector", "is_enclosure", "recurrent_projector", "verify_decomposition",
    ),
    "oqrw": (
        "OqrwSpec", "RateMatrix", "closed_classes", "general_oqrw", "invariant_measures",
        "minimal_oqrw", "verify_oqrw_theorem",
    ),
    "identifiability": (
        "IdentifiabilityReport", "QndModel", "continuous_identifiability",
        "discrete_identifiability", "nondegeneracy_check", "omega", "qnd_uniqueness",
        "uniqueness_cross_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself, as the eager imports used to bind it
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
