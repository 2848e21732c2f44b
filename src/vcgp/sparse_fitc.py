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
with a :class:`FITCBasis` over the inducing points, which predicts in
O(p^2) per test point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import chol_with_jitter, solve_lower
from .gp_classify import FittedClassifier, _fit_laplace
from .gp_core import Dataset, FittedRegressor, LowRankBasis, LowRankDiag, _check_file_shapes
from .gp_core import _fit_gaussian, _freeze_rows, _Workspace
from .kernels import KernelSpec

__all__ = [
    "FITCBasis",
    "InducingSet",
    "select_inducing",
    "fit_fitc",
    "fit_fitc_classifier",
]

# the FITC classifier is the exact class with a FITCBasis; the name
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


@dataclass(frozen=True)
class FITCBasis(LowRankBasis):
    """The features ``Luu^{-1} k_u(x, t)`` over the inducing points ``inducing_X``, ``inducing_T``.

    ``lam`` is the FITC diagonal of the fit's covariance, which the
    evidence of a loaded model needs.  A model file holds all four arrays.
    """

    inducing_X: np.ndarray
    inducing_T: np.ndarray
    Luu: np.ndarray  # chol(K_uu + jitter)
    lam: np.ndarray  # diag(K - Q) + tau2, floored
    tag = "fitc-"
    file_names = ("inducing_X", "inducing_T", "Luu", "lam")

    def features(self, model, X_star, T_star) -> np.ndarray:
        Ku = kernels._product_gram(self.inducing_X, self.inducing_T, X_star, T_star, model.spec)
        return solve_lower(self.Luu, Ku)

    def residual(self, model, X_star, T_star, Phi) -> np.ndarray:
        residual = kernels._product_diag(X_star, T_star, model.spec)
        residual -= np.einsum("ij,ij->j", Phi, Phi)
        return residual

    def half_logdet(self, L, n, lam, W=None) -> float:
        return super().half_logdet(L, n, self.lam, W)  # its own diagonal, not tau2 + jitter

    def factor_shapes(self, data: Dataset):
        p = self.Luu.shape[0]
        return (p, p), (p,)

    @classmethod
    def from_file(cls, arrays, spec, data) -> FITCBasis:
        """Needs p inducing points of the training variant, a p x p ``Luu`` and a positive ``lam``."""
        _check_file_shapes(arrays, {"inducing_X": (None, data.m)})
        p = arrays["inducing_X"].shape[0]
        _check_file_shapes(arrays, {"inducing_T": (p, *data.T.shape[1:]), "Luu": (p, p),
                                    "lam": (data.n,)})
        if not np.all(arrays["lam"] > 0):
            raise ValueError("model file array 'lam' must be positive")
        inducing = InducingSet(arrays["inducing_X"], arrays["inducing_T"])
        # the fit's factor is Fortran-ordered, and triangular solves round per layout
        return cls(inducing.X, inducing.T, np.asfortranarray(arrays["Luu"]), arrays["lam"])


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
    if not 0 < tau2 < math.inf:
        raise ValueError("tau2 must be positive and finite")
    Kuu = kernels.product_kernel_matrix(
        inducing.X, inducing.T, inducing.X, inducing.T, spec
    )
    Luu, jitter = chol_with_jitter(Kuu, context=f"inducing Gram for kernel spec {spec}")
    Kun = kernels.product_kernel_matrix(inducing.X, inducing.T, data.X, data.T, spec)
    V = solve_lower(Luu, Kun)
    kdiag = kernels.product_kernel_diag(data.X, data.T, spec)
    lam = kdiag - np.einsum("ij,ij->j", V, V) + tau2
    lam = np.maximum(lam, 1e-12 * max(float(np.mean(kdiag)), 1.0))
    return LowRankDiag(V, lam), FITCBasis(inducing.X, inducing.T, Luu, lam), jitter


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
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet, *,
    workspace: _Workspace | None = None,
) -> FittedClassifier:
    """Laplace classification with the FITC surrogate latent covariance.

    Costs O(n p^2) per Newton step and never forms an n x n matrix.  The
    model's ``state.B_chol`` is the p x p factor of ``I_p + V R V^T`` (see
    :class:`LowRankDiag`) and its weights are ``V`` times the dual.  A grid
    search's ``workspace`` carries Newton's start from candidate to
    candidate, as for the exact classifier (:func:`gp_classify._fit_laplace`).
    """
    cov, basis, jitter = _fitc_covariance(data, spec, tau2, inducing)
    return _fit_laplace(data, spec, tau2, cov, basis, jitter, workspace=workspace)
