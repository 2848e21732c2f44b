"""FITC sparse approximation for the product-kernel GP.

The exact covariance is replaced by the fully-independent-training-
conditional surrogate ``Q + diag(K - Q)`` with ``Q = K_nu K_uu^{-1} K_un``
over p inducing points.  One builder, :func:`_fitc_covariance`, holds the
surrogate plus the latent noise as :class:`gp_core.LowRankDiag`, the
covariance of the exact models' weight-space route, and the exact models'
finishers complete it: :func:`gp_core._fit_gaussian` for the regressor,
:func:`gp_classify._fit_laplace` for the classifier.  Neither fit forms or
factorizes an n x n matrix: the Gaussian fit costs O(n p^2), and each
Laplace Newton step O(n p^2).  The fits return the exact model classes,
:class:`gp_core.FittedRegressor` and :class:`gp_classify.FittedClassifier`,
with a :class:`gp_core.LowRankBasis` over the inducing points, which
predicts in O(p^2) per test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import chol_with_jitter, solve_lower
from .gp_classify import FittedClassifier, _fit_laplace
from .gp_core import Dataset, FittedRegressor, LowRankBasis, LowRankDiag, _fit_gaussian, _freeze_rows
from .kernels import KernelSpec

__all__ = [
    "InducingSet",
    "select_inducing",
    "fit_fitc",
    "fit_fitc_classifier",
]

# the FITC classifier is the exact class with a LowRankBasis; the name
# stays because the benchmark's tracer (benchmark/layertrace.py) looks it up
FittedFITCClassifier = FittedClassifier


@dataclass(frozen=True)
class InducingSet:
    """Inducing inputs for the sparse approximation."""

    X: np.ndarray
    T: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        _freeze_rows(self)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int).copy()
            idx.setflags(write=False)
            object.__setattr__(self, "indices", idx)


def select_inducing(data: Dataset, p: int, seed: int) -> InducingSet:
    """Uniform sample of p training points without replacement.

    Deterministic for a fixed seed.
    """
    if not 1 <= p <= data.n:
        raise ValueError(f"p must lie in 1..{data.n}, got {p}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n, size=p, replace=False)
    return InducingSet(X=data.X[idx], T=data.T[idx], indices=idx)


def _fitc_covariance(data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet):
    """``(covariance, basis, jitter)``: the FITC surrogate plus noise, its basis, K_uu's jitter.

    The covariance is :class:`gp_core.LowRankDiag` ``(V, lam)``:
    ``V = Luu^{-1} K_un`` carries the low-rank part and ``lam`` is the FITC
    diagonal ``diag(K - Q) + tau2``, floored away from zero for safety.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    Kuu = kernels.product_kernel_matrix(
        inducing.X, inducing.T, inducing.X, inducing.T, spec
    )
    Luu, jitter = chol_with_jitter(Kuu, context=f"inducing Gram for kernel spec {spec}")
    Kun = kernels.product_kernel_matrix(inducing.X, inducing.T, data.X, data.T, spec)
    V = solve_lower(Luu, Kun)
    kdiag = kernels.product_kernel_diag(data.X, data.T, spec)
    lam = kdiag - np.einsum("ij,ij->j", V, V) + tau2
    lam = np.maximum(lam, 1e-12 * max(float(np.mean(kdiag)), 1.0))
    return LowRankDiag(V, lam), LowRankBasis(inducing=inducing, Luu=Luu), jitter


def fit_fitc(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedRegressor:
    """Fit the FITC regressor in O(n p^2).

    Its ``chol`` factorizes ``I_p + V Lam^{-1} V^T``, its weights are
    ``V alpha`` and its evidence is that of the surrogate ``V^T V + Lam``
    (see :class:`gp_core.LowRankDiag`).  With the inducing set equal to the
    full training set this reproduces the exact GP posterior and evidence.
    """
    return _fit_gaussian(data, spec, tau2, *_fitc_covariance(data, spec, tau2, inducing))


def fit_fitc_classifier(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedClassifier:
    """Laplace classification with the FITC surrogate latent covariance.

    Costs O(n p^2) per Newton step and never forms an n x n matrix.  The
    model's ``state.B_chol`` is the p x p factor of ``I_p + V R V^T`` (see
    :class:`LowRankDiag`) and its weights are ``V`` times the dual.
    """
    return _fit_laplace(data, spec, tau2, *_fitc_covariance(data, spec, tau2, inducing))
