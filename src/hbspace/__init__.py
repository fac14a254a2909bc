"""Numerics for Hilbert spaces of disk-analytic functions on which the
backward shift acts contractively: reproducing kernels, isometric model
embeddings, spectral factorization, shift actions, invariance criteria and
reverse-Carleson diagnostics."""

__version__ = "0.1.0"

from .harmonic import DiskFunction, log_diagnostic
from .series import SzegoSum
from .symbols import (
    DirichletSpace,
    MeasureSpec,
    RowSymbol,
    dirichlet_norm,
    estimate_rank,
    gram_matrix,
    kernel_eval,
    weighted_space_symbol,
)
from .spectral import (
    MatrixSymbol,
    defect_identity_bound,
    factor_residual,
    matrix_outer_factor,
    row_defect_factor,
)
from .model import ModelPair, SpaceHandle
from .analysis import (
    LimitSchedule,
    backward_iterates,
    bergman_dirichlet_unitary,
    cauchy_dual,
    dirichlet_reverse_carleson,
    mz_test,
    norm_identity_deviation,
    norm_limit_estimate,
    pointwise_defect,
    reverse_carleson,
    wandering_norm,
)
from .subspaces import (
    BlaschkeProduct,
    SubspaceBasis,
    extremal_function,
    intersect_model_space,
    model_space_basis,
    nearly_invariant_norm,
    poly_density_residual,
    shift_subspace_membership,
)
from .catalog import space_from_json, named_space

__all__ = [
    "DiskFunction",
    "log_diagnostic",
    "SzegoSum",
    "DirichletSpace",
    "MeasureSpec",
    "RowSymbol",
    "dirichlet_norm",
    "estimate_rank",
    "gram_matrix",
    "kernel_eval",
    "weighted_space_symbol",
    "MatrixSymbol",
    "defect_identity_bound",
    "factor_residual",
    "matrix_outer_factor",
    "row_defect_factor",
    "ModelPair",
    "SpaceHandle",
    "LimitSchedule",
    "backward_iterates",
    "bergman_dirichlet_unitary",
    "cauchy_dual",
    "dirichlet_reverse_carleson",
    "mz_test",
    "norm_identity_deviation",
    "norm_limit_estimate",
    "pointwise_defect",
    "reverse_carleson",
    "wandering_norm",
    "BlaschkeProduct",
    "SubspaceBasis",
    "extremal_function",
    "intersect_model_space",
    "model_space_basis",
    "nearly_invariant_norm",
    "poly_density_residual",
    "shift_subspace_membership",
    "space_from_json",
    "named_space",
    "__version__",
]
