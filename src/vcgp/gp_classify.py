"""Binary GP classification with a logistic likelihood and Laplace inference.

The latent model puts the observation noise inside the latent covariance:
latent values z have prior ``N(0, K + tau2*I)`` and labels follow
``y_i ~ Bernoulli(sigmoid(z_i))``.  The posterior mode is found by damped
Newton iteration; predictions integrate the logistic likelihood against the
Gaussian Laplace approximation with Gauss-Hermite quadrature.  The exact
and FITC classifiers are one class, :class:`FittedClassifier`, whose basis
(:class:`gp_core.DenseBasis` or :class:`sparse_fitc.InducingBasis`) carries
the Laplace posterior to test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import (
    NumericalError,
    add_diagonal,
    chol_with_jitter,
    solve_chol,
    solve_lower,
    solve_upper,
)
from .gp_core import Basis, Dataset, DenseBasis, SearchConfig, _as_task_row, _tune_grid
from .gp_core import _latent_predictive
from .kernels import KernelSpec

__all__ = [
    "FittedClassifier",
    "fit_classifier",
    "tune_classifier_hyperparameters",
]

NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1e-8
NEWTON_MAX_HALVINGS = 20
GH_NODES = 32

_gh_x, _gh_w = np.polynomial.hermite.hermgauss(GH_NODES)


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _log_likelihood(y: np.ndarray, z: np.ndarray) -> float:
    # sum_i [y_i z_i - log(1 + e^{z_i})], computed stably
    return float(y @ z - np.sum(np.logaddexp(0.0, z)))


def logistic_gaussian_integral(mu, var):
    """E[sigmoid(z)] for z ~ N(mu, var), via 32-node Gauss-Hermite quadrature."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    sd = np.sqrt(np.maximum(var, 0.0))
    z = mu[..., None] + math.sqrt(2.0) * sd[..., None] * _gh_x
    vals = sigmoid(z) @ _gh_w / math.sqrt(math.pi)
    return vals if vals.ndim else float(vals)


@dataclass(frozen=True)
class LaplaceState:
    """Converged Newton state for a latent Gaussian with covariance A."""

    mode: np.ndarray        # posterior mode of z
    dual: np.ndarray        # A^{-1} mode, maintained exactly by the iteration
    pi: np.ndarray          # sigmoid(mode)
    W: np.ndarray           # diagonal of the negative log-likelihood Hessian
    B_chol: np.ndarray      # lower Cholesky factor of the covariance's Laplace system
    half_logdet_B: float    # 0.5 log|I + sqrt(W) A sqrt(W)|
    log_lik: float          # log p(y | mode)
    iterations: int

    def log_marginal_likelihood(self) -> float:
        """Laplace approximation of log p(y | covariance)."""
        return float(self.log_lik - 0.5 * self.mode @ self.dual - self.half_logdet_B)


class DenseCovariance:
    """Dense latent covariance; the Laplace system ``B`` is factorized as is."""

    def __init__(self, A: np.ndarray):
        self.A = A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x

    def newton_factor(self, W: np.ndarray, context: str):
        """``(chol(B), x -> sqrt(W) B^{-1} sqrt(W) x)`` for ``B = I + sqrt(W) A sqrt(W)``."""
        sw = np.sqrt(W)
        B = sw[:, None] * self.A
        B *= sw[None, :]
        L, _ = chol_with_jitter(add_diagonal(B, 1.0), context=context, overwrite=True)

        def solve(x):
            return sw * solve_upper(L.T, solve_lower(L, sw * x))

        return L, solve

    def newton_half_logdet(self, W: np.ndarray, L: np.ndarray) -> float:
        return float(np.sum(np.log(np.diag(L))))


class LowRankDiag:
    """Latent covariance ``V^T V + diag(lam)`` with ``V`` of shape p x n.

    Never formed: products cost O(np), and the Laplace system goes through
    the Woodbury identity.  With ``R = diag(W / (1 + W lam))``,
    ``sqrt(W) B^{-1} sqrt(W) = R - R V^T C^{-1} V R`` where
    ``C = I_p + V R V^T``, and ``log|B| = sum log(1 + W lam) + log|C|``.
    A Newton step therefore costs O(np^2) and factorizes only p x p.
    """

    def __init__(self, V: np.ndarray, lam: np.ndarray):
        self.V = V
        self.lam = lam

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.V.T @ (self.V @ x) + self.lam * x

    def newton_factor(self, W: np.ndarray, context: str):
        """``(chol(C), x -> sqrt(W) B^{-1} sqrt(W) x)``."""
        V = self.V
        r = W / (1.0 + W * self.lam)
        C = np.eye(V.shape[0]) + (V * r) @ V.T
        Lc, _ = chol_with_jitter(C, context=context)

        def solve(x):
            rx = r * x
            return rx - r * (V.T @ solve_chol(Lc, V @ rx))

        return Lc, solve

    def newton_half_logdet(self, W: np.ndarray, Lc: np.ndarray) -> float:
        return float(0.5 * np.sum(np.log1p(W * self.lam)) + np.sum(np.log(np.diag(Lc))))


def laplace_mode(
    A: np.ndarray | LowRankDiag, y: np.ndarray, context: str = "covariance"
) -> LaplaceState:
    """Find the mode of ``log p(y|z) - 0.5 z^T A^{-1} z`` by damped Newton.

    ``A`` is a dense matrix or a :class:`LowRankDiag`; the iteration only
    multiplies by it and factorizes its Laplace system.  Works in the dual
    parameterization ``z = A a`` so the quadratic term is available without
    solves.  Each step is halved (up to 20 times) until the objective does
    not decrease; the objective is therefore non-decreasing across
    iterations.  Convergence is declared when the gradient infinity-norm
    falls below 1e-8.
    """
    cov = DenseCovariance(A) if isinstance(A, np.ndarray) else A
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    a = np.zeros(n)
    z = np.zeros(n)
    psi = _log_likelihood(y, z)
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        pi = sigmoid(z)
        grad = (y - pi) - a
        W = pi * (1.0 - pi)
        L = solve = None  # the previous step's factor goes before the next is made
        L, solve = cov.newton_factor(W, context=f"Laplace system for {context}")
        if np.max(np.abs(grad)) < NEWTON_GRAD_TOL:
            return LaplaceState(
                mode=z, dual=a, pi=pi, W=W, B_chol=L,
                half_logdet_B=cov.newton_half_logdet(W, L),
                log_lik=_log_likelihood(y, z), iterations=iteration - 1,
            )
        b = W * z + (y - pi)
        # Newton target in the dual: a_new = b - sqrt(W) B^{-1} sqrt(W) A b
        a_new = b - solve(cov @ b)
        direction = a_new - a
        step = 1.0
        roundoff = 1e-12 * (1.0 + abs(psi))
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            a_try = a + step * direction
            z_try = cov @ a_try
            psi_try = _log_likelihood(y, z_try) - 0.5 * a_try @ z_try
            if psi_try >= psi - roundoff:
                break
            step *= 0.5
        else:
            raise NumericalError(
                f"Newton step failed to improve the latent posterior after "
                f"{NEWTON_MAX_HALVINGS} halvings (gradient norm "
                f"{np.max(np.abs(grad)):.3e})"
            )
        a = a_try
        z = z_try
        psi = psi_try
    raise NumericalError(
        f"Laplace Newton iteration did not converge in {NEWTON_MAX_ITER} steps; "
        f"final gradient infinity-norm {np.max(np.abs((y - sigmoid(z)) - a)):.3e}"
    )


@dataclass(frozen=True)
class FittedClassifier:
    """Immutable Laplace-approximate posterior of a GP classifier.

    The latent mean is ``Phi^T weights`` for the test features ``Phi`` of
    ``basis``, which also gives the latent variance from ``state.B_chol``
    (dense: weights ``state.dual``; FITC: the p x p :class:`LowRankDiag` factor).
    """

    spec: KernelSpec
    tau2: float
    data: Dataset
    state: LaplaceState
    weights: np.ndarray
    jitter: float = 0.0
    basis: Basis = DenseBasis()

    @property
    def mode(self) -> np.ndarray:
        return self.state.mode

    @property
    def W(self) -> np.ndarray:
        return self.state.W

    def predict_proba(self, x_star, t_star) -> float:
        return float(self.predict_proba_batch(x_star, _as_task_row(t_star, self.data.T))[0])

    def predict_proba_batch(self, X_star, T_star) -> np.ndarray:
        """Probability of class 1 at each test point."""
        mean, var = _latent_predictive(
            self, X_star, T_star, self.state.B_chol, self.tau2, self.state.W
        )
        return logistic_gaussian_integral(mean, var)

    def log_marginal_likelihood(self) -> float:
        """Laplace approximation of log p(y | X, T, hyperparameters)."""
        return self.state.log_marginal_likelihood()


def fit_classifier(data: Dataset, spec: KernelSpec, tau2: float) -> FittedClassifier:
    """Fit the Laplace-approximate GP classifier.

    Labels must be 0/1.  Raises :class:`NumericalError` if the Newton
    iteration does not converge within 100 steps.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    y = data.y
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    A = add_diagonal(kernels.product_kernel_matrix(data.X, data.T, data.X, data.T, spec), tau2)
    # factorization check (and jitter) up front so failures name the spec;
    # the factor itself is dropped at once
    jitter = chol_with_jitter(A, context=f"kernel spec {spec}")[1]
    if jitter:
        add_diagonal(A, jitter)
    state = laplace_mode(A, y, context=f"kernel spec {spec}")
    return FittedClassifier(
        spec=spec, tau2=float(tau2), data=data, state=state, weights=state.dual, jitter=jitter
    )


def tune_classifier_hyperparameters(
    data: Dataset, spec_template: KernelSpec, search: SearchConfig
) -> FittedClassifier:
    """Grid search maximizing the Laplace-approximate marginal likelihood.

    Returns the fitted best classifier; the chosen hyperparameters are its
    ``spec`` and ``tau2``.  The Laplace evidence has no cheap analytic
    gradient through the mode, so classification tuning always uses the grid
    method.  Raises :class:`NumericalError` when every candidate fails.
    """
    if search.grid is None:
        raise ValueError("classifier tuning requires a grid search configuration")
    return _tune_grid(fit_classifier, data, spec_template, search)
