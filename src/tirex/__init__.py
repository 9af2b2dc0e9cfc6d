"""Tail inverse regression for extreme-value dimension reduction.

Estimates low-dimensional subspaces that suffice for predicting exceedances
of a target above high thresholds, from cumulative sums of whitened
covariates ordered by the target's top order statistics.  Ships classical
inverse-regression and PCA baselines, seeded synthetic mixture models with
known true subspaces, analytic tail-dependence diagnostics, a Monte-Carlo
check of the tail-process covariance limit, and benchmarking utilities
(recovery sweeps over k, imbalanced tail-event classification).
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    StandardizedDataset,
    descending_order,
    empirical_quantile,
    load_csv,
    standardize,
    write_csv,
)
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
    TirexError,
)
from .estimators import (
    METHODS,
    PreparedFit,
    SdrFit,
    fit,
    tirex1_matrix,
    tirex2_matrix,
)
from .evaluation import (
    ClassificationReport,
    SweepReport,
    am_risk,
    auc,
    classify_experiment,
    cross_validate_k,
    geometric_k_grid,
    knn_predict,
    knn_scores,
    sweep,
)
from .linalg import (
    EigenDecomposition,
    Projector,
    frobenius_dist_sq,
    inv_sqrt,
    projector_from_basis,
    sym_eigen,
    symmetrize,
)
from .process_verify import (
    IndependentNormalModel,
    ProcessCheckConfig,
    ProcessCheckReport,
    covariance_check,
    population_Dn,
)
from .synthetic import (
    BernoulliLaw,
    MixtureSpec,
    UniformLaw,
    expected_abs_R,
    model_preset,
    sample,
    survival_components,
    tci_ratios,
    true_projector,
)
