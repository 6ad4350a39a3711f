"""Spectral functionals, sequence transforms and commutator-subspace
membership for operator ideals, evaluated on finite matrices and symbolic
decay-law sequences.

The exported names load lazily: each submodule (and numpy behind it) is
imported on first access to one of its names.
"""

import importlib

_EXPORTS = {
    "sequences": (
        "ScalarSequence",
        "PowerTail",
        "GeometricTail",
        "FactorialPowerTail",
        "frac_index",
    ),
    "spectral": (
        "EigenSequence",
        "eigenvalue_sequence",
        "singular_sequence",
        "hermitian_split",
    ),
    "cutoffs": (
        "CutoffPair",
        "c1_constant",
        "make_cutoff_pair",
        "default_cutoff_pair",
        "eval_g",
        "eval_h",
        "laplacian_grid_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
