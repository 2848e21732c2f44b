"""Exact Bayesian regression for varying-coefficient GP models.

Fitting assembles the product-kernel Gram matrix K over the training data,
factorizes ``K + tau2*I`` once, and caches the factor together with
``alpha = (K + tau2*I)^{-1} y``.  A linear instance kernel times a task
Gram ``G = C C^T`` is Bayesian regression on stacked per-task coefficients
(the paper's Theorem 1), and when those are fewer than half the points the
fit runs in that weight space instead (:func:`fit_regressor`).  Either
route, and FITC, is one :class:`FittedRegressor` whose *basis* maps test
points to the features ``Phi`` of the predictive mean ``Phi^T weights`` and
gives the latent variance: :class:`DenseBasis`, :class:`WeightBasis` or
:class:`sparse_fitc.InducingBasis`.  The log marginal likelihood and its
analytic gradients with respect to log-hyperparameters drive tuning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Protocol, Sequence

import numpy as np
import scipy.optimize

from . import kernels
from ._linalg import NumericalError, add_diagonal, chol_with_jitter, solve_chol, solve_lower
from .kernels import KernelSpec, Linear, Matern, TaskPoint, as_task_array, matern_gram_grads

__all__ = [
    "Basis",
    "Dataset",
    "DenseBasis",
    "PredictiveDistribution",
    "FittedRegressor",
    "WeightBasis",
    "SearchConfig",
    "fit_regressor",
    "lml_and_gradient",
    "tune_hyperparameters",
]

# predictive variances within this of zero are treated as rounding noise
VARIANCE_CLAMP = 1e-8

_LOG_BOUNDS = {
    "lengthscale": (math.log(1e-6), math.log(1e6)),
    "amplitude": (math.log(1e-6), math.log(1e6)),
    "tau2": (math.log(1e-8), math.log(1e6)),
}


@dataclass(frozen=True)
class Dataset:
    """Training data: instances X (n, m), task descriptors T, labels y (n,).

    ``T`` is a float array of shape (n, d) for continuous tasks or an int
    array of shape (n,) holding 1-based ids for discrete tasks; all rows must
    use the same variant.
    """

    X: np.ndarray
    T: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        T = as_task_array(self.T)
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if not (X.shape[0] == y.shape[0] == T.shape[0]):
            raise ValueError(
                f"row counts disagree: X {X.shape[0]}, T {T.shape[0]}, y {y.shape[0]}"
            )
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("X and y must be finite")
        # private copies so freezing cannot affect caller-owned arrays
        for name, arr in (("X", X), ("T", T), ("y", y)):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def has_discrete_tasks(self) -> bool:
        return self.T.ndim == 1

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(X=self.X[idx], T=self.T[idx], y=self.y[idx])


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian predictive at one test point: mean, latent and noise variance."""

    mean: float
    latent_var: float
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "latent_var", _clamp_variance(self.latent_var))

    @property
    def total_var(self) -> float:
        return self.latent_var + self.noise_var


def _clamp_variance(v: float) -> float:
    """Clamp small negative variances to zero; larger ones signal a bug."""
    if v < -VARIANCE_CLAMP:
        raise NumericalError(f"predictive variance {v!r} is more negative than -{VARIANCE_CLAMP}")
    return max(float(v), 0.0)


def _as_task_row(t_star, like: np.ndarray) -> np.ndarray:
    """Normalize one task descriptor for a single test point.

    Returns a length-1 array matching the training variant: shape (1,) for
    discrete ids, shape (1, d) for continuous coordinates.
    """
    if isinstance(t_star, TaskPoint):
        arr = as_task_array([t_star])
        if (arr.ndim == 1) != (like.ndim == 1):
            raise ValueError("test task variant differs from training tasks")
    elif like.ndim == 1:
        arr = np.asarray(t_star)
        if arr.size != 1 or not np.issubdtype(arr.dtype, np.number):
            raise ValueError("discrete tasks need a single integer id per test point")
        arr = as_task_array(arr.reshape(1).astype(int), discrete=True)
    else:
        arr = np.atleast_2d(np.asarray(t_star, dtype=float))
        if arr.shape[0] != 1:
            raise ValueError("expected one task descriptor, got several")
    if arr.ndim == 2 and arr.shape[1] != like.shape[1]:
        raise ValueError("test task dimension differs from training tasks")
    return arr


def _latent_predictive(model, X_star, T_star, L, noise=0.0, W=None):
    """Latent means ``Phi^T weights`` and clamped variances through ``model.basis``."""
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.shape[1] != model.data.m:
        raise ValueError(
            f"test instances have {X_star.shape[1]} features, training has {model.data.m}"
        )
    T_star = as_task_array(T_star, discrete=model.data.has_discrete_tasks)
    Phi = model.basis.features(model, X_star, T_star)
    var = model.basis.latent_var(model, X_star, T_star, Phi, L, noise, W)
    if (var < -VARIANCE_CLAMP).any():
        raise NumericalError("negative latent predictive variance beyond clamp tolerance")
    return Phi.T @ model.weights, np.maximum(var, 0.0, out=var)


class Basis(Protocol):
    """How a fitted model carries its posterior to test points (:func:`_latent_predictive`)."""

    def features(self, model, X_star, T_star) -> np.ndarray:
        """Test features ``Phi``, one column per test point."""

    def latent_var(self, model, X_star, T_star, Phi, L, noise=0.0, W=None) -> np.ndarray:
        """Latent variances, before clamping, from ``Phi`` and the model's factor ``L``."""


@dataclass(frozen=True)
class DenseBasis:
    """Features ``Phi = K(train, *)``, one row per training point.

    ``L`` factorizes ``K + tau2 I`` (regressor, ``s = 1``, no noise) or the
    Laplace system ``I + sqrt(W) (K + tau2 I) sqrt(W)`` (classifier,
    ``s = sqrt(W)``, noise tau2); the latent variance is
    ``k** + noise - |L^{-1} s Phi|^2``.
    """

    def features(self, model, X_star, T_star) -> np.ndarray:
        return kernels.product_kernel_matrix(model.data.X, model.data.T, X_star, T_star, model.spec)

    def latent_var(self, model, X_star, T_star, Phi, L, noise=0.0, W=None) -> np.ndarray:
        U = solve_lower(L, Phi if W is None else np.sqrt(W)[:, None] * Phi)
        prior = kernels.product_kernel_diag(X_star, T_star, model.spec)
        prior += noise
        return prior - np.einsum("ij,ij->j", U, U)


@dataclass(frozen=True)
class WeightBasis:
    """Features ``Phi = x* kron C[t*]`` of the r stacked coefficients, ``G = C C^T``.

    ``L`` factorizes ``V^T V + s I_r`` with ``s = tau2 + jitter``, and the
    latent variance ``v*^T (I - V^T A^{-1} V) v*`` is ``s |L^{-1} Phi|^2``.
    """

    C: np.ndarray

    def features(self, model, X_star, T_star) -> np.ndarray:
        return _weight_features(model.spec, self.C, X_star, T_star).T

    def latent_var(self, model, X_star, T_star, Phi, L, noise=0.0, W=None) -> np.ndarray:
        U = solve_lower(L, Phi)
        return (model.tau2 + model.jitter) * np.einsum("ij,ij->j", U, U)


@dataclass(frozen=True)
class FittedRegressor:
    """Immutable posterior state of a product-kernel GP regressor.

    The predictive mean is ``Phi^T weights`` for the test features ``Phi``
    of ``basis``, which also gives the latent variance from ``chol``, the
    factor of ``K + (tau2 + jitter) I`` (:class:`DenseBasis`, weights
    ``alpha``), of the r x r ``V^T V + (tau2 + jitter) I``
    (:class:`WeightBasis`, weights the r coefficients' posterior mean) or of
    FITC's p x p system (:class:`sparse_fitc.InducingBasis`).
    ``alpha = (K + tau2*I)^{-1} y`` gives the evidence; FITC has none (None).
    """

    spec: KernelSpec
    tau2: float
    data: Dataset
    chol: np.ndarray
    alpha: np.ndarray | None
    weights: np.ndarray
    jitter: float = 0.0
    basis: Basis = DenseBasis()

    def predict(self, x_star, t_star) -> PredictiveDistribution:
        """Predictive distribution at a single test point."""
        mean, var = self.predict_batch(x_star, _as_task_row(t_star, self.data.T))
        return PredictiveDistribution(float(mean[0]), float(var[0]), self.tau2)

    def predict_batch(self, X_star, T_star) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and latent variances at many test points."""
        return _latent_predictive(self, X_star, T_star, self.chol)

    def log_marginal_likelihood(self) -> float:
        if self.alpha is None:
            raise NotImplementedError("FITC regression has no evidence yet")
        n = self.data.n
        # |V V^T + s I_n| = s^(n - r) |V^T V + s I_r| for the r x r factor; r = n if dense
        half_logdet = np.sum(np.log(np.diag(self.chol)))
        half_logdet += 0.5 * (n - self.chol.shape[0]) * math.log(self.tau2 + self.jitter)
        return float(
            -0.5 * self.data.y @ self.alpha - half_logdet - 0.5 * n * math.log(2.0 * math.pi)
        )


def fit_regressor(data: Dataset, spec: KernelSpec, tau2: float) -> FittedRegressor:
    """Fit the exact GP regressor, in weight space where that is smaller.

    With a linear instance kernel and a task kernel whose Gram has a PSD
    factor ``G = C C^T`` (constant, tree, Laplacian, explicit Gram; see
    :func:`kernels.task_factor`), ``K = V V^T`` where row i of ``V`` is
    ``x_i kron C[t_i]``, of width ``r = m * rank(G)``.  When ``r <= n / 2``
    the fit factorizes the r x r matrix ``V^T V + tau2 I`` instead of the
    n x n ``K + tau2 I``: O(n r^2) to fit, O(r^2) per predicted point and
    O(n r) memory, against O(n^3), O(n^2) and O(n^2).  Both routes give the
    same model to rounding.  Every other spec, and a task Gram with a
    negative eigenvalue, takes the dense route.

    Raises :class:`NumericalError` (naming the kernel spec) if the matrix
    to factorize is not positive definite even after the jitter escalation.
    """
    if not tau2 > 0:
        raise ValueError("tau2 must be positive")
    C = kernels.task_factor(spec.task_kernel) if isinstance(spec.instance_kernel, Linear) else None
    if C is None or 2 * data.m * C.shape[1] > data.n:
        return _fit_dense(data, spec, tau2)
    return _fit_weight_space(data, spec, tau2, C)


def _fit_dense(data: Dataset, spec: KernelSpec, tau2: float) -> FittedRegressor:
    """Factorize ``K + tau2 * I``."""
    A = add_diagonal(kernels.product_kernel_matrix(data.X, data.T, data.X, data.T, spec), tau2)
    L, jitter = chol_with_jitter(A, context=f"kernel spec {spec}", overwrite=True)
    alpha = solve_chol(L, data.y)
    return FittedRegressor(
        spec=spec, tau2=float(tau2), data=data, chol=L, alpha=alpha, weights=alpha, jitter=jitter
    )


def _weight_features(spec: KernelSpec, C: np.ndarray, X: np.ndarray, T) -> np.ndarray:
    """The rows ``x_i kron C[t_i]``: ``V V^T`` is the linear-instance product Gram."""
    rows = kernels.task_factor_rows(spec.task_kernel, C, T)
    return (X[:, :, None] * rows[:, None, :]).reshape(X.shape[0], -1)


def _fit_weight_space(
    data: Dataset, spec: KernelSpec, tau2: float, C: np.ndarray
) -> FittedRegressor:
    """Factorize ``V^T V + tau2 * I`` for a linear instance kernel and task factor ``C``.

    ``w = (V^T V + s I)^{-1} V^T y`` and ``alpha = (y - V w) / s`` with
    ``s = tau2 + jitter``, by the Woodbury identity.
    """
    V = _weight_features(spec, C, data.X, data.T)
    M = add_diagonal(V.T @ V, tau2)
    L, jitter = chol_with_jitter(M, context=f"kernel spec {spec}", overwrite=True)
    w = solve_chol(L, V.T @ data.y)
    alpha = (data.y - V @ w) / (tau2 + jitter)
    return FittedRegressor(
        spec=spec, tau2=float(tau2), data=data, chol=L, alpha=alpha, weights=w, jitter=jitter,
        basis=WeightBasis(C),
    )


# ---------------------------------------------------------------------------
# hyperparameters: named access, analytic gradients, search
# ---------------------------------------------------------------------------


def _matern_param_names(kernel: Matern, prefix: str) -> list[str]:
    if kernel.ard:
        names = [f"{prefix}.lengthscale[{d}]" for d in range(len(kernel.lengthscale))]
    else:
        names = [f"{prefix}.lengthscale"]
    return names + [f"{prefix}.amplitude"]


def free_param_names(spec: KernelSpec) -> list[str]:
    """Names of the continuously tunable parameters of a kernel spec and tau2.

    Only Matern kernels carry free parameters; tree, Laplacian, constant and
    fixed-Gram task kernels are fixed by their structure.
    """
    names: list[str] = []
    if isinstance(spec.instance_kernel, Matern):
        names += _matern_param_names(spec.instance_kernel, "instance")
    if isinstance(spec.task_kernel, Matern):
        names += _matern_param_names(spec.task_kernel, "task")
    return names + ["tau2"]


def _get_param(spec: KernelSpec, tau2: float, name: str) -> float:
    if name == "tau2":
        return float(tau2)
    side, _, attr = name.partition(".")
    kernel = spec.instance_kernel if side == "instance" else spec.task_kernel
    if attr.startswith("lengthscale["):
        d = int(attr[len("lengthscale[") : -1])
        return float(np.atleast_1d(kernel.lengthscale)[d])
    return float(getattr(kernel, attr))


def _set_params(spec: KernelSpec, tau2: float, values: Mapping[str, float]) -> tuple[KernelSpec, float]:
    inst, task = spec.instance_kernel, spec.task_kernel
    for side in ("instance", "task"):
        kernel = inst if side == "instance" else task
        if not isinstance(kernel, Matern):
            continue
        ls = np.atleast_1d(np.asarray(kernel.lengthscale, dtype=float)).copy()
        amp = kernel.amplitude
        changed = False
        for name, v in values.items():
            if not name.startswith(side + "."):
                continue
            attr = name[len(side) + 1 :]
            if attr == "lengthscale":
                ls[:] = v
            elif attr.startswith("lengthscale["):
                ls[int(attr[len("lengthscale[") : -1])] = v
            elif attr == "amplitude":
                amp = float(v)
            else:
                raise KeyError(f"unknown parameter {name!r}")
            changed = True
        if changed:
            new_ls = float(ls[0]) if ls.size == 1 else tuple(float(v) for v in ls)
            kernel = replace(kernel, lengthscale=new_ls, amplitude=amp)
            if side == "instance":
                inst = kernel
            else:
                task = kernel
    new_tau2 = float(values.get("tau2", tau2))
    return KernelSpec(instance_kernel=inst, task_kernel=task), new_tau2


def _evidence_weights(L: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights W with ``vdot(W, S) = alpha^T S alpha - tr(A^{-1} S)`` for symmetric S.

    ``L`` is the lower Cholesky factor of A, F-ordered with a zero upper
    triangle, and is overwritten.  LAPACK ``potri`` turns it into the lower
    triangle of ``A^{-1}``; weighting that triangle 2x off the diagonal and
    1x on it makes its ``vdot`` with a symmetric S equal ``tr(A^{-1} S)``,
    and a rank-1 ``ger`` adds ``alpha alpha^T``.  Returns the C-contiguous
    transpose view of W (``vdot`` of symmetric S with W or W^T agree, and
    a C-ordered W keeps ``vdot`` from copying) and ``tr(A^{-1})``.
    """
    P, info = scipy.linalg.lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"LAPACK potri failed with info={info}")
    trace_inv = float(np.trace(P))
    P *= -2.0
    P.flat[:: P.shape[0] + 1] *= 0.5
    W = scipy.linalg.blas.dger(1.0, alpha, alpha, a=P, overwrite_a=1)
    return W.T, trace_inv


def lml_and_gradient(
    data: Dataset, spec: KernelSpec, tau2: float
) -> tuple[float, dict[str, float]]:
    """Log marginal likelihood and its gradient w.r.t. log-hyperparameters.

    The gradient follows the standard identity
    ``d lml / d theta = 0.5 * tr((alpha alpha^T - A^{-1}) dK/dtheta)`` with
    ``A = K + tau2*I`` (Rasmussen & Williams 2006, eq. 5.9), combined with
    the product rule for the instance/task Gram factors.  Keys match
    :func:`free_param_names`.

    Cost: one Cholesky and one LAPACK ``potri`` (O(n^3) each), then O(n^2)
    per parameter.  The weights ``W`` of the identity are formed once, and
    ``W * KT`` and ``W * KX`` at most once each; every lengthscale gradient is
    one ``vdot`` with its derivative matrix, both amplitude gradients are the
    single number ``vdot(W * KT, KX)`` (the derivative is 2K), and the tau2
    gradient is ``0.5 * (alpha . alpha - tr A^{-1}) * tau2``.  No n x n array
    is made per parameter.
    """
    X, T, y = data.X, data.T, data.y
    n = data.n
    inst, task = spec.instance_kernel, spec.task_kernel

    if isinstance(inst, Matern):
        KX, dKX = matern_gram_grads(inst, X)
    else:
        KX, dKX = kernels.instance_gram(inst, X, X), {}
    if isinstance(task, Matern):
        KT, dKT = matern_gram_grads(task, as_task_array(T, discrete=False))
    else:
        KT, dKT = kernels.task_gram(task, T, T), {}

    A = add_diagonal(KX * KT, tau2)
    L, _ = chol_with_jitter(A, context=f"kernel spec {spec}", overwrite=True)
    alpha = solve_chol(L, y)
    lml = float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi))

    W, trace_inv = _evidence_weights(L, alpha)
    del L
    grad: dict[str, float] = {}
    amplitude = None
    if dKX:
        WT = W * KT
        for name, dK in dKX.items():
            grad[f"instance.{name}"] = 0.5 * float(np.vdot(WT, dK))
        amplitude = float(np.vdot(WT, KX))
        grad["instance.amplitude"] = amplitude
        del WT
    if dKT:
        W *= KX
        for name, dK in dKT.items():
            grad[f"task.{name}"] = 0.5 * float(np.vdot(W, dK))
        grad["task.amplitude"] = float(np.vdot(W, KT)) if amplitude is None else amplitude
    grad["tau2"] = 0.5 * (float(alpha @ alpha) - trace_inv) * tau2
    return lml, grad


@dataclass(frozen=True)
class SearchConfig:
    """How to search hyperparameters when tuning by marginal likelihood.

    ``method="gradient"`` runs multi-start quasi-Newton ascent on the
    log-parameters with analytic gradients (``n_restarts`` seeded random
    restarts at unit-normal offsets of the template's log-parameters, stopping
    when the gradient infinity-norm drops below ``grad_tol`` or after
    ``max_iter`` iterations).
    ``method="grid"`` evaluates the Cartesian product of the per-parameter
    value lists in ``grid`` (parameters absent from the grid keep their
    template values); this is the fallback for task kernels whose parameters
    are fixed by structure.
    """

    method: str = "gradient"
    n_restarts: int = 5
    max_iter: int = 200
    grad_tol: float = 1e-5
    seed: int = 0
    tau2_init: float = 0.1
    grid: Mapping[str, Sequence[float]] | None = None

    def __post_init__(self):
        if self.method not in ("gradient", "grid"):
            raise ValueError("search method must be 'gradient' or 'grid'")
        if self.method == "grid" and not self.grid:
            raise ValueError("grid search needs a non-empty grid")
        if not self.tau2_init > 0:
            raise ValueError("tau2_init must be positive")


def _bounds_for(name: str) -> tuple[float, float]:
    key = "tau2" if name == "tau2" else name.split(".", 1)[1].split("[", 1)[0]
    return _LOG_BOUNDS[key]


def tune_hyperparameters(
    data: Dataset, spec_template: KernelSpec, search: SearchConfig
) -> FittedRegressor:
    """Fit the regressor whose hyperparameters maximize the log marginal likelihood.

    Returns the fitted best model; the chosen hyperparameters are its
    ``spec`` and ``tau2``.  Deterministic given ``search.seed``.  Raises
    :class:`NumericalError` when every candidate fails to factorize.
    """
    if data.n < 2:
        raise ValueError("tuning needs at least two training points")
    if search.method == "grid":
        return _tune_grid(fit_regressor, data, spec_template, search)
    return _tune_gradient(data, spec_template, search)


def grid_candidates(spec: KernelSpec, tau2_0: float, grid: Mapping) -> list[tuple[KernelSpec, float]]:
    """Cartesian grid of (spec, tau2) candidates, in deterministic order.

    Grid entries naming parameters the given kernel spec does not have
    (e.g. a task lengthscale when the task kernel is constant) are ignored,
    and the resulting duplicate candidates are dropped.
    """
    relevant = set(free_param_names(spec))
    names = sorted(grid)
    out = []
    seen = set()
    for combo in itertools.product(*(grid[name] for name in names)):
        values = {n: float(v) for n, v in zip(names, combo) if n in relevant}
        key = tuple(sorted(values.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(_set_params(spec, tau2_0, values))
    return out


def _tune_grid(fit, data: Dataset, spec: KernelSpec, search: SearchConfig):
    """Fit every grid candidate with ``fit(data, spec, tau2)``; return the best model.

    Candidates that raise :class:`NumericalError` are skipped.  A model is
    dropped as soon as it loses, so at most one is held besides the fit in
    progress.
    """
    best, best_lml = None, -math.inf
    for cand_spec, cand_tau2 in grid_candidates(spec, search.tau2_init, search.grid):
        try:
            model = fit(data, cand_spec, cand_tau2)
        except NumericalError:
            continue
        lml = model.log_marginal_likelihood()
        if best is None or lml > best_lml:
            best, best_lml = model, lml
        del model
    if best is None:
        raise NumericalError("every grid candidate failed to fit")
    return best


def _tune_gradient(data: Dataset, spec: KernelSpec, search: SearchConfig) -> FittedRegressor:
    names = free_param_names(spec)
    tau2_0 = search.tau2_init
    theta0 = np.array([math.log(_get_param(spec, tau2_0, n)) for n in names])
    bounds = [_bounds_for(n) for n in names]
    fail_penalty = 1e25

    def objective(theta):
        values = dict(zip(names, np.exp(theta)))
        cand_spec, cand_tau2 = _set_params(spec, tau2_0, values)
        try:
            lml, grad = lml_and_gradient(data, cand_spec, cand_tau2)
        except NumericalError:
            return fail_penalty, np.zeros_like(theta)
        g = np.array([grad.get(n, 0.0) for n in names])
        return -lml, -g

    rng = np.random.default_rng(search.seed)
    starts = [theta0] + [
        theta0 + rng.standard_normal(theta0.shape)
        for _ in range(max(search.n_restarts - 1, 0))
    ]
    best = None
    for start in starts:
        start = np.clip(start, [b[0] for b in bounds], [b[1] for b in bounds])
        res = scipy.optimize.minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": search.max_iter, "gtol": search.grad_tol},
        )
        if res.fun < fail_penalty and (best is None or res.fun < best[0]):
            best = (res.fun, res.x)
    if best is None:
        raise NumericalError("hyperparameter search failed for every restart")
    values = dict(zip(names, np.exp(best[1])))
    return fit_regressor(data, *_set_params(spec, tau2_0, values))
