"""Varying-coefficient regression and classification with GP priors.

The conditional distribution of the output given the input is allowed to
change with an observed task variable (a task id, a tree node, time, or
location).  Placing independent GP priors with a shared task kernel on each
coefficient dimension makes exact Bayesian prediction equivalent to a
standard GP with the product of an instance kernel and a task kernel, which
is what this package implements, together with Laplace-approximate
classification, FITC sparse inference, tree and graph-Laplacian task
kernels, reference baselines, and an experiment CLI.
"""

from ._linalg import NumericalError
from .baselines import (
    fan_zhang_cv,
    fan_zhang_fit_predict,
    matern_feature_map,
    primal_oracle_predict,
)
from .data_io import (
    PreprocessPolicy,
    Preprocessor,
    Schema,
    SynthResult,
    Table,
    blocked_splits,
    kfold_splits,
    load_csv,
    preprocess,
    synth_vcm,
    threshold_labels,
)
from .gp_classify import (
    FittedClassifier,
    fit_classifier,
    tune_classifier_hyperparameters,
)
from .gp_core import (
    Dataset,
    FittedRegressor,
    PredictiveDistribution,
    SearchConfig,
    fit_regressor,
    lml_and_gradient,
    tune_hyperparameters,
)
from .kernels import (
    Constant,
    FixedGram,
    KernelSpec,
    Laplacian,
    Linear,
    Matern,
    TaskTree,
    Tree,
    kernel_from_dict,
    laplacian_task_kernel,
    matern,
    product_kernel_matrix,
    spec_from_dict,
    spec_to_dict,
    task_gram,
    tree_laplacian,
    tree_task_kernel,
)
from .model_io import load_model, save_model
from .multitask_hb import (
    CheckReport,
    end_to_end_equivalence,
    random_tree,
    sample_hb,
    sample_hb_batch,
    verify_prop1,
    verify_prop2,
)
from .sparse_fitc import (
    InducingSet,
    fit_fitc,
    fit_fitc_classifier,
    select_inducing,
)

__version__ = "0.1.0"
