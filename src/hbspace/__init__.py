"""Numerics for Hilbert spaces of disk-analytic functions on which the
backward shift acts contractively: reproducing kernels, isometric model
embeddings, spectral factorization, shift actions, invariance criteria and
reverse-Carleson diagnostics.

``import hbspace`` loads no submodule and no numpy: a module is loaded only
when one of its names is first used.  Each public name is looked up in its
submodule on every access (PEP 562) and never bound here, so a name replaced
in its submodule is seen through the package as well.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names read from it, in the order of __all__
_MODULES = {
    "harmonic": ["DiskFunction", "log_diagnostic"],
    "series": ["SzegoSum"],
    "symbols": ["DirichletSpace", "MeasureSpec", "RowSymbol", "dirichlet_norm",
                "estimate_rank", "gram_matrix", "kernel_eval", "weighted_space_symbol"],
    "spectral": ["MatrixSymbol", "defect_identity_bound", "factor_residual",
                 "matrix_outer_factor", "row_defect_factor"],
    "model": ["ModelPair", "SpaceHandle"],
    "analysis": ["LimitSchedule", "cauchy_dual", "mz_test", "norm_identity_deviation",
                 "norm_limit_estimate", "pointwise_defect", "reverse_carleson",
                 "wandering_norm"],
    "subspaces": ["BlaschkeProduct", "SubspaceBasis", "extremal_function",
                  "intersect_model_space", "model_space_basis", "nearly_invariant_norm",
                  "poly_density_residual", "shift_subspace_membership"],
    "catalog": ["space_from_json", "named_space"],
}
_EXPORTS = {name: f"{__name__}.{module}" for module, names in _MODULES.items()
            for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        module = _EXPORTS[name]
        return getattr(_sys.modules.get(module) or _import_module(module), name)
    if not name.startswith("_"):  # a submodule not imported yet
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
