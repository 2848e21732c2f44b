"""Reference methods and independent oracles.

The iid and concatenated-features GPs need no code of their own: they are
the exact regressor with a constant task kernel (``experiments.run_method``
builds them).  The kernel-local smoothing baseline solves one weighted
ridge problem per test point.  The primal weight-space oracle
performs the same Bayesian prediction as the product-kernel GP, but by
explicitly building the joint Gaussian over all stacked per-observation
coefficient vectors -- an O((n m)^3) route kept deliberately independent of
the GP code path so the two can validate each other.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from ._linalg import NumericalError, solve_chol
from .gp_core import Dataset, PredictiveDistribution
from .kernels import KernelSpec, Linear, Matern, as_task_array

__all__ = [
    "fan_zhang_fit_predict",
    "fan_zhang_cv",
    "matern_feature_map",
    "primal_oracle_predict",
]

PRIMAL_MAX_N = 50
PRIMAL_MAX_M = 10


# ---------------------------------------------------------------------------
# kernel-local smoothing (one weighted ridge solve per test point)
# ---------------------------------------------------------------------------


def matern_feature_map(data: Dataset, kernel: Matern, n_basis: int = 200, seed: int = 0):
    """Nonlinear feature map x -> (k(x, b_1), ..., k(x, b_p)).

    Basis points are a seeded subsample of min(n_basis, n) training
    instances.  Returns a callable mapping an (n, m) matrix to features.
    """
    rng = np.random.default_rng(seed)
    p = min(n_basis, data.n)
    idx = rng.choice(data.n, size=p, replace=False)
    basis = data.X[idx]

    def features(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return kernels.instance_gram(kernel, X, basis)

    return features


def fan_zhang_fit_predict(
    data: Dataset,
    X_star,
    T_star,
    bandwidth: float,
    ridge: float,
    feature_map=None,
) -> np.ndarray:
    """Kernel-local smoothing: per test point, weighted ridge regression.

    Training points are weighted by a Gaussian smoothing kernel
    ``exp(-r^2 / (2 h^2))`` on the task distance r to the test task, the
    local coefficients solve ``(X^T D X + ridge*I) w = X^T D y``, and the
    prediction is ``x_star^T w``.  With ``feature_map`` given, instances are
    replaced by their feature expansion.  A singular system with
    ``ridge == 0`` raises an error suggesting a positive ridge.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    T_star = as_task_array(T_star, discrete=data.has_discrete_tasks)
    if data.has_discrete_tasks:
        T_tr = data.T.astype(float).reshape(-1, 1)
        T_te = T_star.astype(float).reshape(-1, 1)
    else:
        T_tr, T_te = data.T, T_star
    Phi = feature_map(data.X) if feature_map is not None else data.X
    Phi_star = feature_map(X_star) if feature_map is not None else X_star
    q = Phi.shape[1]
    preds = np.empty(X_star.shape[0])
    for j in range(X_star.shape[0]):
        r2 = np.sum((T_tr - T_te[j]) ** 2, axis=1)
        d = np.exp(-0.5 * r2 / bandwidth**2)
        XtD = Phi.T * d
        A = XtD @ Phi + ridge * np.eye(q)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            if ridge == 0:
                raise NumericalError(
                    "singular local system with ridge=0; pass a positive ridge"
                ) from None
            raise NumericalError("local weighted system is not positive definite") from None
        w = solve_chol(L, XtD @ data.y)
        preds[j] = Phi_star[j] @ w
    return preds


def fan_zhang_cv(
    data: Dataset,
    bandwidths,
    ridges,
    n_folds: int = 5,
    seed: int = 0,
    feature_map=None,
) -> tuple[float, float]:
    """Pick (bandwidth, ridge) by k-fold cross-validated absolute error."""
    n = data.n
    n_folds = min(n_folds, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, n_folds)
    best = None
    for h in bandwidths:
        for lam in ridges:
            errs = []
            for f in folds:
                mask = np.ones(n, dtype=bool)
                mask[f] = False
                if not mask.any():
                    continue
                train = data.subset(np.flatnonzero(mask))
                try:
                    pred = fan_zhang_fit_predict(
                        train, data.X[f], data.T[f], h, lam, feature_map=feature_map
                    )
                except NumericalError:
                    errs = None
                    break
                errs.extend(np.abs(pred - data.y[f]))
            if errs is None:
                continue
            score = float(np.mean(errs))
            if best is None or score < best[0]:
                best = (score, float(h), float(lam))
    if best is None:
        raise NumericalError("every (bandwidth, ridge) candidate failed")
    return best[1], best[2]


# ---------------------------------------------------------------------------
# primal weight-space oracle
# ---------------------------------------------------------------------------


def primal_oracle_predict(
    data: Dataset, spec: KernelSpec, tau2: float, x_star, t_star
) -> PredictiveDistribution:
    """Exact prediction via the stacked-coefficient joint Gaussian.

    Builds the (n+1)m x (n+1)m covariance of the per-observation coefficient
    vectors (task Gram over train plus test, Kronecker the identity), maps it
    through the block-diagonal design operator ``z_i = x_i^T w_i``, and
    conditions the joint Gaussian of (y, z_star) explicitly.  Restricted to
    the linear instance kernel and small problems; this is the slow reference
    route against which the GP predictions are validated.
    """
    if not isinstance(spec.instance_kernel, Linear):
        raise ValueError("the weight-space oracle requires a linear instance kernel")
    n, m = data.n, data.m
    if n > PRIMAL_MAX_N or m > PRIMAL_MAX_M:
        raise ValueError(
            f"oracle limited to n <= {PRIMAL_MAX_N}, m <= {PRIMAL_MAX_M} (got n={n}, m={m})"
        )
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_star.shape[0] != m:
        raise ValueError(f"x_star must have {m} features")
    t_star = np.asarray(t_star).reshape(-1 if data.has_discrete_tasks else (1, -1))
    T_all = np.concatenate([data.T, as_task_array(t_star, discrete=data.has_discrete_tasks)])

    KT = kernels.task_gram(spec.task_kernel, T_all, T_all)
    Sigma_w = np.kron(KT, np.eye(m))
    C = np.zeros((n + 1, (n + 1) * m))
    for i in range(n):
        C[i, i * m : (i + 1) * m] = data.X[i]
    C[n, n * m :] = x_star
    Cz = C @ Sigma_w @ C.T

    S11 = Cz[:n, :n] + tau2 * np.eye(n)
    s12 = Cz[:n, n]
    s22 = Cz[n, n]
    S11_inv = np.linalg.inv(S11)
    mean = float(s12 @ S11_inv @ data.y)
    latent = float(s22 - s12 @ S11_inv @ s12)
    return PredictiveDistribution(mean=mean, latent_var=latent, noise_var=tau2)
