"""FITC sparse approximation for the product-kernel GP.

The exact covariance is replaced by the fully-independent-training-
conditional surrogate ``Q + diag(K - Q)`` with ``Q = K_nu K_uu^{-1} K_un``
over p inducing points.  Neither fit forms or factorizes an n x n matrix:
the regressor fits in O(n p^2); the classifier runs the exact classifier's
Laplace Newton iteration on the surrogate (plus the latent noise) held as
low rank plus diagonal, at O(n p^2) per Newton step.  The fits return the
exact model classes, :class:`gp_core.FittedRegressor` and
:class:`gp_classify.FittedClassifier`, with an :class:`InducingBasis`,
which predicts in O(p^2) per test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import chol_with_jitter, solve_chol, solve_lower
from .gp_classify import FittedClassifier, LowRankDiag, laplace_mode
from .gp_core import Dataset, FittedRegressor
from .kernels import KernelSpec, as_task_array

__all__ = [
    "InducingSet",
    "InducingBasis",
    "select_inducing",
    "fit_fitc",
    "fit_fitc_classifier",
]

# the FITC classifier is the exact class with an InducingBasis; the name
# stays because the benchmark's tracer (benchmark/layertrace.py) looks it up
FittedFITCClassifier = FittedClassifier


@dataclass(frozen=True)
class InducingSet:
    """Inducing inputs for the sparse approximation."""

    X: np.ndarray
    T: np.ndarray
    indices: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        T = as_task_array(self.T)
        if X.shape[0] < 1:
            raise ValueError("need at least one inducing point")
        if X.shape[0] != T.shape[0]:
            raise ValueError("inducing X and T row counts disagree")
        for name, arr in (("X", X), ("T", T)):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int).copy()
            idx.setflags(write=False)
            object.__setattr__(self, "indices", idx)

    @property
    def p(self) -> int:
        return self.X.shape[0]


def select_inducing(data: Dataset, p: int, seed: int) -> InducingSet:
    """Uniform sample of p training points without replacement.

    Deterministic for a fixed seed.
    """
    if not 1 <= p <= data.n:
        raise ValueError(f"p must lie in 1..{data.n}, got {p}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(data.n, size=p, replace=False)
    return InducingSet(X=data.X[idx], T=data.T[idx], indices=idx, seed=seed)


def _fitc_parts(data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet):
    """Shared FITC precomputations: (Luu, V, lam, jitter).

    ``V = Luu^{-1} K_un`` carries the low-rank part; ``lam`` is the FITC
    diagonal ``diag(K - Q) + tau2``, floored away from zero for safety.
    """
    Kuu = kernels.product_kernel_matrix(
        inducing.X, inducing.T, inducing.X, inducing.T, spec
    )
    Luu, jitter = chol_with_jitter(Kuu, context=f"inducing Gram for kernel spec {spec}")
    Kun = kernels.product_kernel_matrix(inducing.X, inducing.T, data.X, data.T, spec)
    V = solve_lower(Luu, Kun)
    kdiag = kernels.product_kernel_diag(data.X, data.T, spec)
    lam = kdiag - np.einsum("ij,ij->j", V, V) + tau2
    lam = np.maximum(lam, 1e-12 * max(float(np.mean(kdiag)), 1.0))
    return Luu, V, lam, jitter


@dataclass(frozen=True)
class InducingBasis:
    """Features ``Phi = Luu^{-1} k_u*`` over the p inducing points.

    Test points relate to the training data only through the inducing set,
    while their latent prior variance keeps its exact diagonal.  ``L`` is
    the model's p x p system factor and the latent variance
    ``k** + noise - |Phi|^2 + |L^{-1} Phi|^2``: O(p^2) per test point.
    """

    inducing: InducingSet
    Luu: np.ndarray  # chol(K_uu + jitter)

    def features(self, model, X_star, T_star) -> np.ndarray:
        Ku = kernels.product_kernel_matrix(
            self.inducing.X, self.inducing.T, X_star, T_star, model.spec
        )
        return solve_lower(self.Luu, Ku)

    def latent_var(self, model, X_star, T_star, Phi, L, noise=0.0, W=None) -> np.ndarray:
        U = solve_lower(L, Phi)
        prior = kernels.product_kernel_diag(X_star, T_star, model.spec)
        prior += noise
        return prior - np.einsum("ij,ij->j", Phi, Phi) + np.einsum("ij,ij->j", U, U)


def fit_fitc(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedRegressor:
    """Fit the FITC regressor in O(n p^2).

    Its ``chol`` factorizes ``B = I_p + V Lam^{-1} V^T`` and its weights are
    ``B^{-1} V Lam^{-1} y``.  With the inducing set equal to the full
    training set this reproduces the exact GP posterior.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    Luu, V, lam, jitter = _fitc_parts(data, spec, tau2, inducing)
    Vs = V / np.sqrt(lam)
    B = np.eye(inducing.p) + Vs @ Vs.T
    LB, _ = chol_with_jitter(B, context=f"FITC system for kernel spec {spec}")
    return FittedRegressor(
        spec=spec, tau2=float(tau2), data=data, chol=LB, alpha=None,
        weights=solve_chol(LB, V @ (data.y / lam)), jitter=jitter,
        basis=InducingBasis(inducing, Luu),
    )


def fit_fitc_classifier(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedClassifier:
    """Laplace classification with the FITC surrogate latent covariance.

    Costs O(n p^2) per Newton step and never forms an n x n matrix.  The
    model's ``state.B_chol`` is the p x p factor of ``I_p + V R V^T`` (see
    :class:`LowRankDiag`) and its weights are ``V`` times the dual.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    if not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    Luu, V, lam, jitter = _fitc_parts(data, spec, tau2, inducing)
    state = laplace_mode(
        LowRankDiag(V, lam), data.y, context=f"FITC surrogate for kernel spec {spec}"
    )
    return FittedClassifier(
        spec=spec, tau2=float(tau2), data=data, state=state, weights=V @ state.dual,
        jitter=jitter, basis=InducingBasis(inducing, Luu),
    )
