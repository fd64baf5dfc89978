"""Quasi-Monte Carlo and adaptive frequency sequences for random Fourier
feature maps of shift-invariant kernels, with a closed-form box-discrepancy
error measure and its optimizers."""

from .adaptive import (
    OptimizerOptions,
    OptTrace,
    discrepancy_gradient,
    optimize_global,
    optimize_greedy,
    optimize_weights,
)
from .densities import FrequencySet, ProductDensity, transform
from .discrepancy import (
    AverageCaseReport,
    Box,
    DiscrepancyReport,
    assemble_H_v,
    average_case_mc_check,
    box_discrepancy_gaussian,
    expected_mc_discrepancy,
    weighted_discrepancy,
)
from .featmap import (
    WeightedFeatureMap,
    gram_approx,
    gram_exact,
    real_feature_matrix,
    relative_errors,
    spectral_norm,
)
from .ioutil import DataError, NumericalError
from .sequences import (
    UnitPointSet,
    halton,
    lattice,
    mc_uniform,
    radical_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AverageCaseReport",
    "Box",
    "DataError",
    "DiscrepancyReport",
    "FrequencySet",
    "NumericalError",
    "OptTrace",
    "OptimizerOptions",
    "ProductDensity",
    "UnitPointSet",
    "WeightedFeatureMap",
    "assemble_H_v",
    "average_case_mc_check",
    "box_discrepancy_gaussian",
    "discrepancy_gradient",
    "expected_mc_discrepancy",
    "gram_approx",
    "gram_exact",
    "halton",
    "lattice",
    "mc_uniform",
    "optimize_global",
    "optimize_greedy",
    "optimize_weights",
    "radical_inverse",
    "real_feature_matrix",
    "relative_errors",
    "spectral_norm",
    "transform",
    "weighted_discrepancy",
]
