"""Binary GP classification with a logistic likelihood and Laplace inference.

The latent model puts the observation noise inside the latent covariance:
latent values z have prior ``N(0, K + tau2*I)`` and labels follow
``y_i ~ Bernoulli(sigmoid(z_i))``.  The posterior mode is found by damped
Newton iteration; predictions integrate the logistic likelihood against the
Gaussian Laplace approximation with Gauss-Hermite quadrature.  The latent
covariance comes from the regressor's one builder (dense, a task forest's
:class:`gp_core.TreePrecision`, or the weight-space or FITC
:class:`gp_core.LowRankDiag`), each covariance forms its own Newton target,
and :func:`_fit_laplace` finishes every classifier, exact or FITC, into one
class, :class:`FittedClassifier`, whose basis (:class:`gp_core.DenseBasis`,
:class:`gp_core.TreeBasis` or :class:`gp_core.LowRankBasis`) carries the
posterior to test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import NumericalError, add_diagonal, chol_with_jitter
from .gp_core import Basis, Dataset, DenseBasis, DenseCovariance, LowRankDiag, SearchConfig
from .gp_core import TreePrecision
from .gp_core import _batch_of_one, _covariance, _latent_predictive, _tune_grid, _Workspace
from .kernels import KernelSpec, Matern

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


def laplace_mode(
    A: np.ndarray | DenseCovariance | LowRankDiag | TreePrecision, y: np.ndarray,
    context: str = "covariance", dual: np.ndarray | None = None,
) -> LaplaceState:
    """Find the mode of ``log p(y|z) - 0.5 z^T A^{-1} z`` by damped Newton.

    ``A`` is a dense matrix or a covariance of :mod:`gp_core`; the iteration
    only multiplies by it and asks it for the Newton target
    ``(I + W A)^{-1} b``, which each covariance forms from its own factor
    (the weight-space, FITC and tree routes in one shared Woodbury step),
    and for the converged step's model factor and log-determinant.
    Works in the dual parameterization ``z = A a`` so the quadratic term is
    available without solves.  Each step is halved (up to 20 times) until
    the objective does not decrease; the objective is therefore
    non-decreasing across iterations.  Convergence is declared when the
    gradient infinity-norm falls below 1e-8.  The iteration starts from the
    dual ``dual`` (length n, not modified), or from zero when it is None.
    """
    cov = DenseCovariance(A) if isinstance(A, np.ndarray) else A
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.shape[0]
    if dual is None:
        a, z = np.zeros(n), np.zeros(n)
    else:
        a = np.array(dual, dtype=float)
        z = cov @ a
    psi = _log_likelihood(y, z) - 0.5 * a @ z
    for iteration in range(1, NEWTON_MAX_ITER + 1):
        pi = sigmoid(z)
        grad = (y - pi) - a
        W = pi * (1.0 - pi)
        L = target = None  # the previous step's factor goes before the next is made
        L, target = cov.newton_factor(W, context=f"Laplace system for {context}")
        if np.max(np.abs(grad)) < NEWTON_GRAD_TOL:
            B_chol, half_logdet_B = cov.newton_finish(W, L)
            return LaplaceState(
                mode=z, dual=a, pi=pi, W=W, B_chol=B_chol, half_logdet_B=half_logdet_B,
                log_lik=_log_likelihood(y, z), iterations=iteration - 1,
            )
        b = W * z + (y - pi)
        direction = target(b) - a
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
    (dense: the n x n Laplace factor, weights ``state.dual``; weight space and
    FITC: the p x p :class:`LowRankDiag` Newton factor, weights ``V dual``;
    tree precision: each node's pivot factor and posterior covariance, weights
    the nodes' latent mean coefficients).
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
        return float(self.predict_proba_batch(*_batch_of_one(self, x_star, t_star))[0])

    def predict_proba_batch(self, X_star, T_star) -> np.ndarray:
        """Probability of class 1 at each test point."""
        mean, var = _latent_predictive(
            self, X_star, T_star, self.state.B_chol, self.tau2, self.state.W
        )
        return logistic_gaussian_integral(mean, var)

    def log_marginal_likelihood(self) -> float:
        """Laplace approximation of log p(y | X, T, hyperparameters)."""
        return self.state.log_marginal_likelihood()


def fit_classifier(
    data: Dataset, spec: KernelSpec, tau2: float, *, workspace: _Workspace | None = None,
    inducing=None,
) -> FittedClassifier:
    """Fit the Laplace-approximate GP classifier on :func:`gp_core._covariance`, FITC given ``inducing``.

    Labels must be 0/1.  Raises :class:`NumericalError` if the Newton
    iteration does not converge within 100 steps.  A search's ``workspace``
    also carries Newton's start from candidate to candidate (:func:`_fit_laplace`).
    """
    cov, basis = _covariance(data, spec, tau2, workspace, inducing)
    return _fit_laplace(data, spec, tau2, cov, basis, workspace=workspace)


def _fit_laplace(
    data: Dataset, spec: KernelSpec, tau2: float, cov, basis: Basis, *,
    workspace: _Workspace | None = None,
) -> FittedClassifier:
    """The classifier of the latent covariance ``cov``; its jitter starts at the builder's.

    Newton factorizes ``B = I + sqrt(W) A sqrt(W)`` (or its low-rank or
    tree form) and nothing else.  Every instance Gram is positive
    semidefinite, and so is every task Gram but a held one whose ``factor``
    is None (:func:`_may_be_indefinite`); the Hadamard product of two such
    Grams is too (Schur), so ``B`` has eigenvalues of at least 1 and needs
    no jitter.  Only a dense ``K + tau2 I`` whose task Gram may be
    indefinite is factorized up front, the factor dropped at once, so an
    indefinite one fails naming the spec or takes the jitter that makes it
    definite.

    With a search's ``workspace``, Newton starts from the dual that the
    previous candidate left in ``workspace.dual`` (zero for the first) and
    leaves its own converged dual there; a warm start that fails is retried
    from zero before the fit fails.
    """
    if not np.all(np.isin(data.y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    context, jitter = f"kernel spec {spec}", cov.jitter
    if isinstance(cov, DenseCovariance) and _may_be_indefinite(spec):
        added = chol_with_jitter(cov.A, context=context)[1]
        if added:
            add_diagonal(cov.A, added)
        jitter += added
    start = None if workspace is None else workspace.dual
    try:
        state = laplace_mode(cov, data.y, context, start)
    except NumericalError:
        if start is None:
            raise
        state = laplace_mode(cov, data.y, context)
    if workspace is not None:
        workspace.dual = state.dual
    return FittedClassifier(
        spec=spec, tau2=float(tau2), data=data, state=state, weights=cov.weights(state.dual),
        jitter=jitter, basis=basis,
    )


def _may_be_indefinite(spec: KernelSpec) -> bool:
    """Whether the product Gram of ``spec`` can be indefinite: its held task Gram has no factor.

    A forest precision (a ``Tree``'s, or a ``Laplacian``'s over a forest)
    makes the Gram definite without the k x k ``eigh`` of ``factor``.
    """
    task = spec.task_kernel
    return not isinstance(task, Matern) and task.precision is None and task.factor is None


def tune_classifier_hyperparameters(
    data: Dataset, spec_template: KernelSpec, search: SearchConfig, *, inducing=None
) -> FittedClassifier:
    """Grid search maximizing the Laplace-approximate marginal likelihood.

    Returns the fitted best classifier; the chosen hyperparameters are its
    ``spec`` and ``tau2``.  The Laplace evidence has no cheap analytic
    gradient through the mode, so classification tuning always uses the grid
    method, whose candidates start Newton from their predecessor's dual
    (:func:`gp_core._tune_grid`).  With ``inducing`` points every candidate
    is a FITC fit.  Raises :class:`NumericalError` when every candidate fails.
    """
    if search.method != "grid":
        raise ValueError("classifier tuning requires a grid search configuration")
    return _tune_grid(fit_classifier, data, spec_template, search, inducing)
