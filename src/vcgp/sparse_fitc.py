"""FITC sparse approximation for the product-kernel GP.

The exact covariance is replaced by the fully-independent-training-
conditional surrogate ``Q + diag(K - Q)`` with ``Q = K_nu K_uu^{-1} K_un``
over p inducing points.  Neither model forms or factorizes an n x n matrix:
the regressor fits in O(n p^2); the classifier runs the exact classifier's
Laplace Newton iteration on the surrogate (plus the latent noise) held as
low rank plus diagonal, at O(n p^2) per Newton step.  Both predict in
O(p^2) per test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import NumericalError, chol_with_jitter, solve_lower
from .gp_core import VARIANCE_CLAMP, Dataset, PredictiveDistribution, _as_task_row
from .gp_classify import LaplaceState, LowRankDiag, laplace_mode, logistic_gaussian_integral
from .kernels import KernelSpec, as_task_array

__all__ = [
    "InducingSet",
    "select_inducing",
    "fit_fitc",
    "FittedFITCRegressor",
    "fit_fitc_classifier",
    "FittedFITCClassifier",
]


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


def _fitc_latent(model, X_star, T_star, L: np.ndarray, noise: float):
    """Shared O(p^2)-per-point FITC prediction pieces: ``(w, u, var)``.

    ``w = Luu^{-1} k_u*``, ``u = L^{-1} w`` for the model's p x p system
    factor ``L``, and the latent variance
    ``var = k** + noise - |w|^2 + |u|^2``, clamped at zero.
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    T_star = as_task_array(T_star, discrete=model.data.has_discrete_tasks)
    Ku = kernels.product_kernel_matrix(
        model.inducing.X, model.inducing.T, X_star, T_star, model.spec
    )
    w = solve_lower(model.Luu, Ku)
    u = solve_lower(L, w)
    prior = kernels.product_kernel_diag(X_star, T_star, model.spec) + noise
    var = prior - np.einsum("ij,ij->j", w, w) + np.einsum("ij,ij->j", u, u)
    if np.any(var < -VARIANCE_CLAMP):
        raise NumericalError("negative FITC predictive variance beyond clamp tolerance")
    return w, u, np.maximum(var, 0.0)


@dataclass(frozen=True)
class FittedFITCRegressor:
    """Posterior state of the FITC regressor; prediction is O(p^2) per point."""

    spec: KernelSpec
    tau2: float
    data: Dataset
    inducing: InducingSet
    Luu: np.ndarray       # chol(K_uu + jitter)
    LB: np.ndarray        # chol(I_p + V Lam^{-1} V^T)
    gamma: np.ndarray     # LB^{-1} V Lam^{-1} y
    jitter: float = 0.0

    def predict(self, x_star, t_star) -> PredictiveDistribution:
        mean, var = self.predict_batch(
            np.atleast_2d(np.asarray(x_star, dtype=float)),
            _as_task_row(t_star, self.data.T),
        )
        return PredictiveDistribution(float(mean[0]), float(var[0]), self.tau2)

    def predict_batch(self, X_star, T_star) -> tuple[np.ndarray, np.ndarray]:
        _, u, var = _fitc_latent(self, X_star, T_star, self.LB, 0.0)
        return u.T @ self.gamma, var


def fit_fitc(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedFITCRegressor:
    """Fit the FITC regressor in O(n p^2).

    With the inducing set equal to the full training set this reproduces the
    exact GP posterior.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    Luu, V, lam, jitter = _fitc_parts(data, spec, tau2, inducing)
    Vs = V / np.sqrt(lam)
    B = np.eye(inducing.p) + Vs @ Vs.T
    LB, _ = chol_with_jitter(B, context=f"FITC system for kernel spec {spec}")
    gamma = solve_lower(LB, V @ (data.y / lam))
    return FittedFITCRegressor(
        spec=spec, tau2=float(tau2), data=data, inducing=inducing,
        Luu=Luu, LB=LB, gamma=gamma, jitter=jitter,
    )


@dataclass(frozen=True)
class FittedFITCClassifier:
    """Laplace classifier whose latent covariance is the FITC surrogate.

    Test points relate to training data only through the inducing set (the
    surrogate cross-covariance ``V^T w``), while the latent prior variance at
    a test point keeps its exact diagonal plus the latent noise.  With
    ``w = Luu^{-1} k_u*`` the predictive mean is ``w^T beta`` and the
    variance ``k** + tau2 - |w|^2 + |Lc^{-1} w|^2``, where ``Lc`` is the
    p x p factor held in ``state.B_chol``: O(p^2) per test point.
    """

    spec: KernelSpec
    tau2: float
    data: Dataset
    inducing: InducingSet
    state: LaplaceState   # B_chol: chol(I_p + V R V^T), R = diag(W / (1 + W lam))
    Luu: np.ndarray       # chol(K_uu + jitter)
    beta: np.ndarray      # V @ state.dual
    jitter: float = 0.0

    @property
    def mode(self) -> np.ndarray:
        return self.state.mode

    def predict_proba(self, x_star, t_star) -> float:
        p = self.predict_proba_batch(
            np.atleast_2d(np.asarray(x_star, dtype=float)),
            _as_task_row(t_star, self.data.T),
        )
        return float(p[0])

    def predict_proba_batch(self, X_star, T_star) -> np.ndarray:
        w, _, var = _fitc_latent(self, X_star, T_star, self.state.B_chol, self.tau2)
        return logistic_gaussian_integral(w.T @ self.beta, var)

    def log_marginal_likelihood(self) -> float:
        return self.state.log_marginal_likelihood()


def fit_fitc_classifier(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet
) -> FittedFITCClassifier:
    """Laplace classification with the FITC surrogate latent covariance.

    Costs O(n p^2) per Newton step and never forms an n x n matrix.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    if not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    Luu, V, lam, jitter = _fitc_parts(data, spec, tau2, inducing)
    state = laplace_mode(
        LowRankDiag(V, lam), data.y, context=f"FITC surrogate for kernel spec {spec}"
    )
    return FittedFITCClassifier(
        spec=spec, tau2=float(tau2), data=data, inducing=inducing,
        state=state, Luu=Luu, beta=V @ state.dual, jitter=jitter,
    )
