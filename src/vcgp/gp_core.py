"""Bayesian regression for varying-coefficient GP models.

Every fit is a covariance builder followed by a likelihood finisher.  The
one builder, :func:`_covariance`, gives ``K + tau2 I`` over the training
data as a :class:`DenseCovariance`; but a linear instance kernel times a
task Gram ``G`` is Bayesian linear regression on stacked per-task
coefficients (the paper's Theorem 1), a :class:`_Woodbury` solve.  With a
tree or forest precision ``Q = G^{-1}`` (the paper's Prop. 2) their prior
is the sparse ``Q kron I`` of :class:`TreePrecision`, which eliminates the
block-tree posterior precision leaves first; with a factor ``G = C C^T``,
``K = V^T V``, and when the features ``V`` are fewer than half the points
the weight-space :class:`LowRankDiag` puts an identity prior on them, the
shape of FITC's surrogate too, which the builder takes first given
inducing points.  Every covariance offers products, a Gaussian fit and
the Laplace Newton step, so one finisher per likelihood serves every
route: :func:`_fit_gaussian` here and :func:`gp_classify._fit_laplace`.
Every route is one :class:`FittedRegressor` whose *basis* carries the
posterior to test points (the predictive mean and latent variance) and
names the arrays a model file holds for it: :class:`DenseBasis`,
:class:`TreeBasis`, :class:`WeightSpaceBasis` or FITC's
:class:`sparse_fitc.FITCBasis`.  The log marginal likelihood and its
analytic gradients with respect to log-hyperparameters drive tuning; each
search's candidates share one :class:`_Workspace`, its buffers and
whatever a kernel held fixed lets them share.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Protocol, Sequence

import numpy as np
import scipy.optimize
import scipy.sparse

from . import kernels
from ._linalg import NumericalError, add_diagonal, chol_with_jitter, solve_chol, solve_lower
from ._linalg import solve_upper
from .kernels import Constant, KernelSpec, Linear, Matern, TaskForest, as_task_array
from .kernels import matern_gram_grads

__all__ = [
    "Basis",
    "Dataset",
    "DenseBasis",
    "DenseCovariance",
    "PredictiveDistribution",
    "FittedRegressor",
    "LowRankBasis",
    "LowRankDiag",
    "SearchConfig",
    "TreeBasis",
    "TreePrecision",
    "WeightSpaceBasis",
    "fit_regressor",
    "lml_and_gradient",
    "tune_hyperparameters",
]

# predictive variances within this of zero are treated as rounding noise
VARIANCE_CLAMP = 1e-8

# gradient-search bounds on the log of every kernel parameter, and of tau2
_KERNEL_LOG_BOUNDS = (math.log(1e-6), math.log(1e6))
_TAU2_LOG_BOUNDS = (math.log(1e-8), math.log(1e6))

# every name free_param_names produces, for any spec
_PARAM_NAME = re.compile(r"tau2|(instance|task)\.(amplitude|lengthscale(\[(0|[1-9][0-9]*)\])?)")


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
        _freeze_rows(self, y=np.asarray(self.y, dtype=float).reshape(-1))

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


def _freeze_rows(obj, **more: np.ndarray) -> None:
    """Set ``obj.X`` (n, m), ``obj.T`` and each of ``more`` (n rows) to checked read-only copies.

    ``T`` is normalized by :func:`kernels.as_task_array`; every other array
    must be finite.  Private copies, so freezing cannot affect caller-owned
    arrays.  Shared by :class:`Dataset` and :class:`sparse_fitc.InducingSet`.
    """
    what = type(obj).__name__
    arrays = {"X": np.atleast_2d(np.asarray(obj.X, dtype=float)), "T": as_task_array(obj.T), **more}
    if arrays["X"].shape[0] < 1:
        raise ValueError(f"{what} needs at least one row")
    if len({arr.shape[0] for arr in arrays.values()}) > 1:
        raise ValueError(f"{what} row counts disagree: "
                         + ", ".join(f"{name} {arr.shape[0]}" for name, arr in arrays.items()))
    finite = [name for name in arrays if name != "T"]
    if not all(np.all(np.isfinite(arrays[name])) for name in finite):
        raise ValueError(f"{what} {' and '.join(finite)} must be finite")
    for name, arr in arrays.items():
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _batch_of_one(model, x_star, t_star):
    """One test point as the batch ``(X_star, T_star)`` that :func:`_latent_predictive` checks.

    ``t_star`` is one task id or one coordinate row; the training tasks'
    variant decides which.
    """
    t_star = np.asarray(t_star).reshape(-1 if model.data.has_discrete_tasks else (1, -1))
    return np.asarray(x_star).reshape(1, -1), t_star


def _latent_predictive(model, X_star, T_star, L, noise=0.0, W=None):
    """Latent means and clamped variances through ``model.basis``.

    The one check of the test inputs: the basis and the kernel functions it
    calls take them as they are, and the training data as :class:`Dataset`
    checked it.
    """
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.shape[1] != model.data.m:
        raise ValueError(
            f"test instances have {X_star.shape[1]} features, training has {model.data.m}"
        )
    if not np.isfinite(X_star).all():
        row = np.flatnonzero(~np.isfinite(X_star).all(axis=1))[0]
        raise ValueError(f"test instances must be finite; row {row} is not")
    T_star = kernels.check_tasks(model.spec.task_kernel, T_star, model.data.has_discrete_tasks)
    if T_star.shape[1:] != model.data.T.shape[1:]:  # check_tasks matched the variant
        raise ValueError(f"test tasks have {T_star.shape[1]} coordinates, training tasks have "
                         f"{model.data.T.shape[1]}")
    if T_star.shape[0] != X_star.shape[0]:
        raise ValueError(f"instance rows and task rows disagree: {X_star.shape[0]} vs "
                         f"{T_star.shape[0]}")
    mean, var = model.basis.latent(model, X_star, T_star, L, noise, W)
    if (var < -VARIANCE_CLAMP).any():
        row = np.flatnonzero(var < -VARIANCE_CLAMP)[0]
        raise NumericalError(f"negative latent predictive variance beyond clamp tolerance; row {row} "
                             f"has {float(var[row])!r}")
    return mean, np.maximum(var, 0.0, out=var)


class Basis(Protocol):
    """How a fitted model carries its posterior to test points (:func:`_latent_predictive`).

    In a model file (:mod:`model_io`) the kind starts with ``tag`` and the
    basis's own arrays are its attributes named in ``file_names``.
    """

    tag: str
    file_names: tuple[str, ...]

    def latent(self, model, X_star, T_star, L, noise=0.0, W=None) -> tuple[np.ndarray, np.ndarray]:
        """Latent means and variances, before clamping, from ``model.weights`` and its factor ``L``.

        ``T_star`` has passed :func:`kernels.check_tasks`.
        """

    def half_logdet(self, L, n: int, lam: float, W=None) -> float:
        """The fit's ``0.5 log|A|`` from its factor ``L``, ``lam = tau2 + jitter``.

        ``A`` is the covariance or, with Newton weights ``W``, its Laplace system.
        """

    def factor_shapes(self, data: Dataset) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The shapes of the model's factor and of its weights."""

    @classmethod
    def from_file(cls, arrays: Mapping[str, np.ndarray], spec: KernelSpec, data: Dataset) -> Basis:
        """The basis of a model file's arrays; ``ValueError`` unless they fit ``spec`` and ``data``."""


def _check_file_shapes(arrays: Mapping[str, np.ndarray], wants: Mapping[str, tuple]) -> None:
    """Raise ``ValueError`` naming the first model file array whose shape is not wanted.

    ``wants`` maps an array's name to its shape, with None for any size.
    """
    for name, want in wants.items():
        shape = arrays[name].shape
        if len(shape) != len(want) or any(w not in (None, s) for s, w in zip(shape, want)):
            text = ", ".join("*" if w is None else str(w) for w in want)
            raise ValueError(f"model file array {name!r} has shape {shape}, expected "
                             f"({text}{',' if len(want) == 1 else ''})")


@dataclass(frozen=True)
class DenseBasis:
    """Features ``Phi = K(train, *)``, one row per training point.

    ``L`` factorizes ``K + tau2 I`` (regressor, ``s = 1``, no noise) or the
    Laplace system ``I + sqrt(W) (K + tau2 I) sqrt(W)`` (classifier,
    ``s = sqrt(W)``, noise tau2); the latent variance is
    ``k** + noise - |L^{-1} s Phi|^2``.  A model file holds no array for it.
    """

    tag = ""
    file_names = ()

    def latent(self, model, X_star, T_star, L, noise=0.0, W=None):
        Phi = kernels._product_gram(model.data.X, model.data.T, X_star, T_star, model.spec)
        U = solve_lower(L, Phi if W is None else np.sqrt(W)[:, None] * Phi)
        var = kernels._product_diag(X_star, T_star, model.spec)
        var += noise
        var -= np.einsum("ij,ij->j", U, U)
        return Phi.T @ model.weights, var

    def half_logdet(self, L, n, lam, W=None) -> float:
        return float(np.sum(np.log(np.diag(L))))

    def factor_shapes(self, data: Dataset):
        return (data.n, data.n), (data.n,)

    @classmethod
    def from_file(cls, arrays, spec, data) -> DenseBasis:
        return cls()


class LowRankBasis:
    """Features ``Phi`` of a finite feature map, for the covariance ``V^T V + diag(lam)``.

    The columns of ``V`` are the training points' features: ``x kron C[t]``
    for a task factor (:class:`WeightSpaceBasis`), ``Luu^{-1} k_u(x, t)``
    over inducing points (:class:`sparse_fitc.FITCBasis`).  ``L`` is the
    p x p Woodbury factor of :class:`LowRankDiag` and the latent variance is
    ``residual + noise + |L^{-1} Phi|^2``: O(p^2) per test point.  The
    residual, ``k** - |Phi|^2``, is the prior variance the features miss.
    """

    def latent(self, model, X_star, T_star, L, noise=0.0, W=None):
        Phi = self.features(model, X_star, T_star)
        U = solve_lower(L, Phi)
        var = self.residual(model, X_star, T_star, Phi) + noise + np.einsum("ij,ij->j", U, U)
        return Phi.T @ model.weights, var

    def half_logdet(self, L, n, lam, W=None) -> float:
        return _woodbury_half_logdet(lam, np.diag(L), n, W)


@dataclass(frozen=True)
class WeightSpaceBasis(LowRankBasis):
    """The features ``x kron C[t]`` of a task factor ``G = C C^T`` (weight space).

    ``V^T V`` is the product Gram itself, so the residual is exactly 0 and
    not computed.  A model file holds the factor as ``task_factor``.
    """

    task_factor: np.ndarray
    tag = "weight-space-woodbury-"
    file_names = ("task_factor",)

    def features(self, model, X_star, T_star) -> np.ndarray:
        return _weight_features(model.spec, self.task_factor, X_star, T_star).T

    def residual(self, model, X_star, T_star, Phi):
        return 0.0

    def factor_shapes(self, data: Dataset):
        r = data.m * self.task_factor.shape[1]
        return (r, r), (r,)

    @classmethod
    def from_file(cls, arrays, spec, data) -> WeightSpaceBasis:
        """Needs a linear instance kernel and a held task Gram with a row of ``task_factor`` per task."""
        if not isinstance(spec.instance_kernel, Linear) or isinstance(spec.task_kernel, Matern):
            raise ValueError(
                f"a weight-space model needs a linear instance kernel and a constant or "
                f"discrete task kernel, not {spec}"
            )
        _check_file_shapes(arrays, {"task_factor": (spec.task_kernel.k, None)})
        return cls(arrays["task_factor"])


@dataclass(frozen=True)
class TreeBasis:
    """Each test point's coefficients are its task's node of a :class:`TreePrecision` fit.

    The weights are the posterior means ``mu_t`` of the k nodes' m
    coefficients, and ``L[t, 1]`` is node t's posterior covariance
    ``Sigma_t`` (:func:`_tree_factor`), so a test point costs O(m^2): mean
    ``x^T mu_t`` and latent variance ``x^T Sigma_t x + noise``.  The task
    forest comes from the kernel spec, so a model file holds no array for it.
    """

    forest: TaskForest
    tag = "tree-precision-"
    file_names = ()

    def latent(self, model, X_star, T_star, L, noise=0.0, W=None):
        rows = model.spec.task_kernel._index(T_star)
        mean = np.einsum("ij,ij->i", X_star, model.weights.reshape(-1, X_star.shape[1])[rows])
        var = np.einsum("ij,ijk,ik->i", X_star, L[rows, 1], X_star)
        var += noise
        return mean, var

    def half_logdet(self, L, n, lam, W=None) -> float:
        return _tree_half_logdet(self.forest, L[:, 0], n, lam, W)

    def factor_shapes(self, data: Dataset):
        k, m = self.forest.k, data.m
        return (k, 2, m, m), (k * m,)

    @classmethod
    def from_file(cls, arrays, spec, data) -> TreeBasis:
        """Needs a linear instance kernel and a task kernel with a forest precision."""
        task = _linear_task(spec)
        if task is None or task.precision is None:
            raise ValueError(
                f"a tree-precision model needs a linear instance kernel and a tree or forest "
                f"Laplacian task kernel, not {spec}"
            )
        return cls(task.precision)


@dataclass(frozen=True)
class FittedRegressor:
    """Immutable posterior state of a product-kernel GP regressor.

    ``basis`` gives the predictive mean from ``weights`` and the latent
    variance from ``chol``: the factor of ``A = K + (tau2 + jitter) I``
    (:class:`DenseBasis`, weights ``alpha``), the p x p Woodbury factor of
    ``A = V^T V + diag(lam)`` (:class:`LowRankBasis`, weights ``V alpha``;
    see :class:`LowRankDiag`) or each node's pivot factor and posterior
    covariance (:class:`TreeBasis`, weights the nodes' posterior means; see
    :class:`TreePrecision`).
    ``alpha = A^{-1} y`` and ``half_logdet = 0.5 log|A|`` give the evidence.
    """

    spec: KernelSpec
    tau2: float
    data: Dataset
    chol: np.ndarray
    alpha: np.ndarray
    weights: np.ndarray
    half_logdet: float
    jitter: float = 0.0
    basis: Basis = DenseBasis()

    def predict(self, x_star, t_star) -> PredictiveDistribution:
        """Predictive distribution at a single test point."""
        mean, var = self.predict_batch(*_batch_of_one(self, x_star, t_star))
        return PredictiveDistribution(float(mean[0]), float(var[0]), self.tau2)

    def predict_batch(self, X_star, T_star) -> tuple[np.ndarray, np.ndarray]:
        """Predictive means and latent variances at many test points."""
        return _latent_predictive(self, X_star, T_star, self.chol)

    def log_marginal_likelihood(self) -> float:
        return float(
            -0.5 * self.data.y @ self.alpha
            - self.half_logdet
            - 0.5 * self.data.n * math.log(2.0 * math.pi)
        )


def fit_regressor(
    data: Dataset, spec: KernelSpec, tau2: float, *, workspace: _Workspace | None = None,
    inducing=None,
) -> FittedRegressor:
    """Fit the GP regressor on :func:`_covariance`: exact, or FITC over ``inducing`` points.

    Raises :class:`NumericalError` (naming the kernel spec) if the matrix
    to factorize is not positive definite even after the jitter escalation.
    """
    return _fit_gaussian(data, spec, tau2, *_covariance(data, spec, tau2, workspace, inducing))


def _same_kernel(a, b) -> bool:
    return a is b or (isinstance(b, (Matern, Linear, Constant)) and type(a) is type(b) and a == b)


def _weight_features(spec: KernelSpec, C: np.ndarray, X: np.ndarray, T) -> np.ndarray:
    """The rows ``x_i kron C[t_i]``: ``V V^T`` is the linear-instance product Gram.

    ``T`` has passed :func:`kernels.check_tasks`.
    """
    rows = C[spec.task_kernel._index(T)]
    return (X[:, :, None] * rows[:, None, :]).reshape(X.shape[0], X.shape[1] * C.shape[1])


def _linear_task(spec: KernelSpec):
    """The task kernel of a linear instance kernel's spec if it holds a Gram (is not Matern), else None.

    Only such specs have the Bayesian-linear routes: its ``precision``
    (tree precision) or its ``factor`` (weight space).
    """
    task = spec.task_kernel
    return task if isinstance(spec.instance_kernel, Linear) and not isinstance(task, Matern) else None


def _covariance(
    data: Dataset, spec: KernelSpec, tau2: float, workspace: _Workspace | None = None,
    inducing=None,
) -> tuple[DenseCovariance | LowRankDiag | TreePrecision, Basis]:
    """``(covariance, basis)`` of ``K + tau2 I`` over the training points.

    The route follows from ``inducing``, the spec and the data's size alone:

    - inducing points, whatever the spec: FITC's surrogate from
      :meth:`sparse_fitc.InducingSet.covariance`, O(n p^2) to fit and
      O(p^2) per prediction.  Every other route is exact.
    - a linear instance kernel times a ``Tree``, or a ``Laplacian`` whose M
      is a forest with positive edge weights, whose R is non-negative and
      reaches each component (the task kernel's ``precision``, see
      :func:`kernels._task_forest`): :class:`TreePrecision` and :class:`TreeBasis`.
      Fits cost O(n m^2 + k m^3), in one Python step per tree level, and
      predictions O(m^2) per point; no k x k array is built.
    - a linear instance kernel times any other held task Gram with a PSD
      factor ``G = C C^T`` (its ``factor``; any other Laplacian,
      ``FixedGram``, ``Constant``): ``K = V^T V``, column i of ``V`` being
      ``x_i kron C[t_i]``, of height ``r = m * rank(G)``.  When
      ``r <= n / 2`` the covariance is the weight-space :class:`LowRankDiag`,
      whose fits cost O(n r^2) and predictions O(r^2) per point.
    - every other spec, a Matern instance kernel among them: the n x n
      :class:`DenseCovariance`, O(n^3) to fit and O(n^2) per prediction.

    A search passes its ``workspace`` (:class:`_Workspace`), so that its
    candidates share the tree route's rows and per-node statistics; a tree
    fit without one makes its own.  The numbers are the same either way.
    """
    if not 0 < tau2 < math.inf:
        raise ValueError("tau2 must be positive and finite")
    if inducing is not None:
        return inducing.covariance(data, spec, tau2)
    task = _linear_task(spec)
    if task is not None and task.precision is not None:
        workspace = _Workspace(data.n) if workspace is None else workspace
        return TreePrecision(task, data, float(tau2), workspace), TreeBasis(task.precision)
    C = None if task is None else task.factor
    if C is None or 2 * data.m * C.shape[1] > data.n:
        if workspace is None:
            K = kernels.product_kernel_matrix(data.X, data.T, data.X, data.T, spec)
        else:  # a new array: the fit factorizes it in place
            K = workspace.gram("instance", spec.instance_kernel, data)
            K = K * workspace.gram("task", spec.task_kernel, data)
        return DenseCovariance(add_diagonal(K, tau2)), DenseBasis()
    kernels.check_tasks(task, data.T, data.has_discrete_tasks)  # the features only index
    return LowRankDiag(_weight_features(spec, C, data.X, data.T).T, float(tau2)), WeightSpaceBasis(C)


def _fit_gaussian(data: Dataset, spec: KernelSpec, tau2: float, cov, basis: Basis) -> FittedRegressor:
    """The regressor of the covariance ``cov`` of ``y``; its jitter is the builder's and the fit's."""
    L, alpha, weights, half_logdet, added = cov.gaussian_fit(data.y, f"kernel spec {spec}")
    return FittedRegressor(
        spec=spec, tau2=float(tau2), data=data, chol=L, alpha=alpha, weights=weights,
        half_logdet=half_logdet, jitter=cov.jitter + added, basis=basis,
    )


class DenseCovariance:
    """Covariance ``A``, an n x n array; :meth:`gaussian_fit` factorizes it in its own buffer."""

    jitter = 0.0  # what the builder added to a Gram it factorized: FITC's K_uu alone

    def __init__(self, A: np.ndarray):
        self.A = A

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x

    def gaussian_fit(self, y: np.ndarray, context: str):
        """``(chol(A), alpha, alpha, 0.5 log|A|, jitter)`` with ``alpha = A^{-1} y``."""
        L, jitter = chol_with_jitter(self.A, context=context, overwrite=True)
        alpha = solve_chol(L, y)
        return L, alpha, alpha, float(np.sum(np.log(np.diag(L)))), jitter

    def weights(self, dual: np.ndarray) -> np.ndarray:
        """Weights of the features ``K(train, *)``: the dual itself."""
        return dual

    def newton_factor(self, W: np.ndarray, context: str):
        """``(chol(B), b -> (I + W A)^{-1} b)`` for ``B = I + sqrt(W) A sqrt(W)``.

        The Newton target is ``b - sqrt(W) B^{-1} sqrt(W) A b``.
        """
        sw = np.sqrt(W)
        B = sw[:, None] * self.A
        B *= sw[None, :]
        L, _ = chol_with_jitter(add_diagonal(B, 1.0), context=context, overwrite=True)

        def target(b):
            return b - sw * solve_upper(L.T, solve_lower(L, sw * (self.A @ b)))

        return L, target

    def newton_finish(self, W: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, float]:
        """The converged step's ``(chol(B), 0.5 log|B|)``; ``|B| = |I + W A|``."""
        return L, float(np.sum(np.log(np.diag(L))))


class _Woodbury:
    """``A = Phi S Phi^T + lam I``: Bayesian linear regression on weights of prior covariance ``S``.

    A subclass supplies ``lam`` (one number, or a length-n vector), the
    latent mean weights ``weights(dual) = S Phi^T dual``, ``_phi(w) = Phi w``
    and ``_woodbury(rho, context) -> (factor, solve)``: the factor of
    ``P = S^{-1} + Phi^T diag(rho) Phi`` and ``solve(u) = (u - rho Phi t, t)``,
    ``t = P^{-1} Phi^T u``, which by Woodbury is ``M^{-1} (u / rho)`` and
    its weights for ``M = diag(1 / rho) + Phi S Phi^T``.  ``A`` is never formed.
    """

    jitter = 0.0

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._phi(self.weights(x)) + self.lam * x

    def newton_factor(self, W: np.ndarray, context: str):
        """``(factor, b -> (I + W A)^{-1} b)`` with ``rho = W / (1 + W lam)``.

        ``I + W A = D + W Phi S Phi^T`` with ``D = 1 + W lam``, so the Newton
        target is ``u - rho Phi P^{-1} Phi^T u`` with ``u = b / D``; no
        product with ``A`` is formed, which would cancel catastrophically at
        large latent scale.
        """
        d = 1.0 + W * self.lam
        factor, solve = self._woodbury(W / d, context)
        return factor, lambda b: solve(b / d)[0]


class LowRankDiag(_Woodbury):
    """Covariance ``A = V^T V + diag(lam)`` with ``V`` of shape p x n: features of identity prior.

    ``Phi = V^T``: the weight-space route's features ``x kron C[t]`` or
    FITC's ``Luu^{-1} k_u(x, t)``.  ``lam`` is a length-n vector, or one
    number for every point.  Products cost O(np), and solves go through
    the p x p factor of ``C = I_p + V diag(rho) V^T``, O(np^2) to build.
    The Gaussian likelihood uses ``rho = 1 / lam`` (:meth:`gaussian_fit`),
    the Laplace Newton step ``rho = W / (1 + W lam)``.  ``C`` is at least
    ``I`` in exact arithmetic, so its factor needs no jitter.
    """

    def __init__(self, V: np.ndarray, lam, jitter: float = 0.0):
        self.V = V
        self.lam = lam
        self.jitter = jitter  # FITC's K_uu jitter

    def _phi(self, w: np.ndarray) -> np.ndarray:
        return self.V.T @ w

    def weights(self, dual: np.ndarray) -> np.ndarray:
        """Weights of the features (the columns of ``V``): ``V dual``."""
        return self.V @ dual

    def gaussian_fit(self, y: np.ndarray, context: str):
        """``(chol(C), alpha, V alpha, 0.5 log|A|, 0.0)``, ``alpha = A^{-1} y``, rho = 1/lam."""
        L, solve = self._woodbury(1.0 / self.lam, context=f"low-rank system for {context}")
        alpha, weights = solve(y / self.lam)
        return L, alpha, weights, _woodbury_half_logdet(self.lam, np.diag(L), y.shape[0]), 0.0

    def _woodbury(self, rho, context: str):
        V = self.V
        if np.ndim(rho):
            C = (V * rho) @ V.T
        else:  # one number for all points: scale the p x p product, not V
            C = V @ V.T
            C *= rho
        L, _ = chol_with_jitter(add_diagonal(C, 1.0), context=context, overwrite=True)

        def solve(u):
            t = solve_chol(L, V @ u)
            return u - rho * (V.T @ t), t

        return L, solve

    def newton_finish(self, W: np.ndarray, L: np.ndarray) -> tuple[np.ndarray, float]:
        return L, _woodbury_half_logdet(self.lam, np.diag(L), W.shape[0], W)


class TreePrecision(_Woodbury):
    """Covariance ``A = Phi (Q^{-1} kron I_m) Phi^T + lam I`` of a task forest's precision ``Q``.

    Row i of ``Phi`` holds ``x_i`` in the m columns of its task's node
    ``rows[i]``, so ``A`` is the linear-instance product Gram plus noise:
    the weights are the nodes' coefficients, whose prior is held by its
    sparse precision ``Q kron I_m`` (a :class:`kernels.TaskForest`).
    ``P = Q kron I_m + Phi^T diag(rho) Phi`` has blocks
    ``Q_tt I + X_t^T diag(rho_t) X_t`` on the diagonal and
    ``Q_{t,parent} I`` off it: :func:`_tree_factor` factors it leaves first
    with no fill or cancellation, one step per tree level, and
    :func:`_tree_model_factor` adds each node's posterior covariance for the
    model's factor ``L``.  ``rho = 1 / lam`` for the Gaussian fit,
    ``W / (1 + W lam)`` for the Laplace Newton step.  The Gaussian fit's
    per-node statistics, each node's ``X_t^T X_t`` and ``X_t^T y``, and
    ``rows``, the task kernel's Gram rows of the training tasks, are held by
    ``workspace`` for the task kernel and the data (:func:`_covariance`).
    """

    def __init__(self, task, data: Dataset, lam: float, workspace: _Workspace):
        self.forest, self.X, self.lam = task.precision, data.X, lam

        def held(role, labels, build):
            return workspace.held(role, task, (data.X, data.T, *labels), build)

        self._held = held
        self.rows = held("rows", (), lambda: task.rows(data.T))

    @cached_property
    def _E(self):
        """``E @ v`` sums v over each node's points; row k is the forest's dummy row."""
        n = self.X.shape[0]
        return scipy.sparse.csc_array((np.ones(n), self.rows, np.arange(n + 1)),
                                      shape=(self.forest.k + 1, n))

    @cached_property
    def _outer(self) -> np.ndarray:
        """Each ``x_i x_i^T``, flattened."""
        return (self.X[:, :, None] * self.X[:, None, :]).reshape(self.X.shape[0], -1)

    def node_outer(self, rho=None) -> np.ndarray:
        """Each node's ``X_t^T diag(rho_t) X_t`` (k + 1 blocks); ``rho`` None for ones."""
        Z = self._outer if rho is None else self._outer * rho[:, None]
        return (self._E @ Z).reshape(-1, *self.X.shape[1:] * 2)

    def phi_t(self, v: np.ndarray) -> np.ndarray:
        """``Phi^T v`` as k + 1 node rows of m."""
        return self._E @ (self.X * v[:, None])

    def _phi(self, w: np.ndarray) -> np.ndarray:
        """``Phi w`` for node coefficients ``w``: rows of m (k, or k + 1 with the dummy), or flattened."""
        return np.einsum("ij,ij->i", self.X, w.reshape(-1, self.X.shape[1])[self.rows])

    def weights(self, dual: np.ndarray) -> np.ndarray:
        """The nodes' latent mean coefficients ``(Q^{-1} kron I_m) Phi^T dual``, flattened."""
        Binv = np.eye(self.X.shape[1]) / np.append(self.forest.pivot, 1.0)[:, None, None]
        return _forest_solve(self.forest, Binv, self.phi_t(dual))[:-1].ravel()

    def gaussian_fit(self, y: np.ndarray, context: str):
        """``(L, alpha, mu, 0.5 log|A|, 0.0)``: ``mu = P^{-1} Phi^T y / lam``, ``alpha = (y - Phi mu) / lam``.

        ``mu`` is the nodes' posterior mean, flattened, and ``alpha = A^{-1} y``.
        """
        XtX = self._held("XtX", (), self.node_outer)
        Xty = self._held("Xty", (y,), lambda: self.phi_t(y))
        U, Binv = _tree_factor(self.forest, XtX / self.lam, f"tree-precision system for {context}")
        mu = _forest_solve(self.forest, Binv, Xty / self.lam)
        alpha = (y - self._phi(mu)) / self.lam
        half_logdet = _tree_half_logdet(self.forest, U[:-1], y.shape[0], self.lam)
        return _tree_model_factor(self.forest, U, Binv), alpha, mu[:-1].ravel(), half_logdet, 0.0

    def _woodbury(self, rho, context: str):
        """The factor is :func:`_tree_factor`'s ``(U, Binv)``; :meth:`newton_finish` adds node covariances."""
        U, Binv = _tree_factor(self.forest, self.node_outer(rho), f"tree-precision system for {context}")

        def solve(u):
            t = _forest_solve(self.forest, Binv, self.phi_t(u))
            return u - rho * self._phi(t), t

        return (U, Binv), solve

    def newton_finish(self, W: np.ndarray, factor) -> tuple[np.ndarray, float]:
        U, Binv = factor
        half_logdet = _tree_half_logdet(self.forest, U[:-1], W.shape[0], self.lam, W)
        return _tree_model_factor(self.forest, U, Binv), half_logdet


def _forest_solve(forest: TaskForest, Binv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``P^{-1} b`` for node rows ``b`` (k + 1, the dummy zero), from the pivots' inverses ``Binv``.

    Leaves first, each level's right-hand sides update their parents'; then
    root first, ``x_t = Binv_t (b_t - Q_{t,parent} x_parent)``.
    """
    b = b.copy()
    for nodes, parents in forest.levels:
        np.add.at(b, parents, forest.weight[nodes, None] * np.einsum("ijk,ik->ij", Binv[nodes], b[nodes]))
    x = np.zeros_like(b)
    for nodes, parents in reversed(forest.levels):
        r = b[nodes] + forest.weight[nodes, None] * x[parents]
        x[nodes] = np.einsum("ijk,ik->ij", Binv[nodes], r)
    return x


def _tree_factor(forest: TaskForest, S: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """``(U, Binv)``: each node's pivot factor ``U_t`` and the pivot's inverse (k + 1, the dummy zero).

    ``S`` holds each node's ``X_t^T diag(rho_t) X_t`` (k + 1, the last the
    dummy) and is overwritten.  The block form of
    :func:`kernels._task_forest`'s elimination, leaves first, level by
    level: node t's excess ``E_t = reg_t I + S_t + sum_c w_c Binv_c E_c``
    over its children c, and its pivot ``D_t = U_t U_t^T = E_t + w_t I``,
    with ``w_t = -Q_{t,parent}``, its edge's weight.  No term cancels: each
    ``w_c Binv_c E_c = w_c I - w_c^2 Binv_c`` is positive semidefinite.
    """
    U, Binv, eye = np.zeros_like(S), np.zeros_like(S), np.eye(S.shape[-1])
    S[:-1] += forest.reg[:, None, None] * eye
    for nodes, parents in forest.levels:  # final excesses once the deeper levels are eliminated
        w, excess = forest.weight[nodes, None, None], S[nodes]
        try:
            U[nodes] = L = np.linalg.cholesky(excess + w * eye)
        except np.linalg.LinAlgError:
            raise NumericalError(f"Cholesky factorization failed for {context}") from None
        inv = np.linalg.inv(L)
        Binv[nodes] = G = np.swapaxes(inv, 1, 2) @ inv
        np.add.at(S, parents, w * (G @ excess))
    return U, Binv


def _tree_model_factor(forest: TaskForest, U: np.ndarray, Binv: np.ndarray) -> np.ndarray:
    """``L``: ``L[t]`` stacks node t's pivot factor ``U_t`` and its posterior covariance ``Sigma_t``.

    ``Sigma_t``, the diagonal blocks of ``P^{-1}``, come root first
    (selected inversion, Takahashi, Fagan & Chin 1973):
    ``Sigma_t = Binv_t + Q_{t,parent}^2 Binv_t Sigma_parent Binv_t``, as
    w_t given its parent is Gaussian with covariance ``Binv_t`` and mean
    shift ``-Q_{t,parent} Binv_t w_parent``.  ``L`` is Fortran-ordered, the
    layout in which a model file restores it (:mod:`model_io`), so a loaded
    model predicts the same bits.
    """
    S = np.zeros_like(Binv)
    for nodes, parents in reversed(forest.levels):
        G = Binv[nodes]
        S[nodes] = G + (forest.weight[nodes] ** 2)[:, None, None] * (G @ S[parents] @ G)
    return np.asfortranarray(np.stack([U[:-1], S[:-1]], axis=1))


def _woodbury_half_logdet(lam, pivots: np.ndarray, n: int, W=None, prior_logdet: float = 0.0) -> float:
    """``0.5 log|A| = 0.5 (sum log lam + log|P| - log|S^{-1}|)`` of a :class:`_Woodbury` covariance.

    ``pivots`` is the diagonal of P's factor and ``prior_logdet`` is
    ``log|S^{-1}|``.  With Newton weights ``W``, ``0.5 log|I + W A|``:
    ``sum log(1 + W lam)`` in place of ``sum log lam``, lam counted n times.
    """
    noise = np.log(np.broadcast_to(lam, n)) if W is None else np.log1p(W * lam)
    return float(0.5 * np.sum(noise) + np.sum(np.log(pivots)) - 0.5 * prior_logdet)


def _tree_half_logdet(forest: TaskForest, U: np.ndarray, n: int, lam, W=None) -> float:
    """:func:`_woodbury_half_logdet` of the k nodes' pivot factors ``U``; ``log|Q kron I_m| = m log|Q|``."""
    # a C-ordered copy: the sum's order follows the layout, and a loaded U is Fortran-ordered
    pivots = np.diagonal(U, axis1=1, axis2=2).copy()
    return _woodbury_half_logdet(lam, pivots, n, W, U.shape[-1] * forest.logdet)


# ---------------------------------------------------------------------------
# hyperparameters: one layout, analytic gradients, search
# ---------------------------------------------------------------------------


def _matern_kernels(spec: KernelSpec) -> list[tuple[str, Matern, tuple[float, ...]]]:
    """``(side, kernel, lengthscales)`` for each Matern kernel of a spec, instance first."""
    sides = (("instance", spec.instance_kernel), ("task", spec.task_kernel))
    return [(side, k, k.lengthscale if k.ard else (k.lengthscale,))
            for side, k in sides if isinstance(k, Matern)]


def free_param_names(spec: KernelSpec) -> list[str]:
    """Names of the continuously tunable parameters of a kernel spec and tau2.

    Only Matern kernels carry free parameters; tree, Laplacian, constant and
    fixed-Gram task kernels are fixed by their structure.  This order is the
    layout of every parameter vector: :func:`_param_values`,
    :func:`_with_param_values` and the gradient of :func:`lml_and_gradient`.
    """
    names: list[str] = []
    for side, kernel, ls in _matern_kernels(spec):
        index = [f"[{d}]" for d in range(len(ls))] if kernel.ard else [""]
        names += [f"{side}.lengthscale{i}" for i in index] + [f"{side}.amplitude"]
    return names + ["tau2"]


def _param_values(spec: KernelSpec, tau2: float) -> list[float]:
    """The values of :func:`free_param_names`, in its order."""
    values: list[float] = []
    for _, kernel, ls in _matern_kernels(spec):
        values += [*ls, kernel.amplitude]
    return values + [float(tau2)]


def _with_param_values(spec: KernelSpec, values: Sequence[float]) -> tuple[KernelSpec, float]:
    """The (spec, tau2) whose :func:`_param_values` are ``values``."""
    it = iter(values)
    kernels_by_side = {
        f"{side}_kernel": replace(kernel, lengthscale=tuple(next(it) for _ in ls), amplitude=next(it))
        for side, kernel, ls in _matern_kernels(spec)
    }
    return replace(spec, **kernels_by_side), float(next(it))


# order below which _invert_lower hands a diagonal block to LAPACK trtri
_INVERSE_BASE = 64


def _invert_lower(L: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite the lower-triangular ``L`` (zero upper triangle) with ``L^{-1}``.

    The recursive 2 x 2 block inverse (Elmroth, Gustavson, Jonsson &
    Kagstrom 2004): invert both diagonal blocks, then set the off-diagonal
    one to ``-X22 (L21 X11)`` with two matrix products, so the work runs at
    the speed of BLAS ``gemm``; LAPACK ``trtri`` inverts blocks of order
    :data:`_INVERSE_BASE` and below.  The product ``L21 X11`` goes to the
    front of ``scratch``, a flat array of at least ``n^2 / 4`` entries, as
    one contiguous block: in-place arithmetic on a strided view of ``L``
    would copy it.
    """
    n = L.shape[0]
    if n <= _INVERSE_BASE:
        X, info = scipy.linalg.lapack.dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"LAPACK trtri failed with info={info}")
        if X is not L:  # a block of a larger L comes back as a copy
            L[...] = X
        return
    h = n // 2
    X11, L21, X22 = L[:h, :h], L[h:, :h], L[h:, h:]
    _invert_lower(X11, scratch)
    _invert_lower(X22, scratch)
    T = scratch[: (n - h) * h].reshape(n - h, h)
    np.matmul(L21, X11, out=T)
    np.negative(T, out=T)
    np.matmul(X22, T, out=L21)


def _evidence_weights(L: np.ndarray, alpha: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights W with ``vdot(W, S) = alpha^T S alpha - tr(A^{-1} S)`` for symmetric S.

    ``L`` is the lower Cholesky factor of A, F-ordered with a zero upper
    triangle, and is overwritten: :func:`_invert_lower` turns it into
    ``L^{-1}`` (``scratch``, an n x n array, holds its products) and LAPACK
    ``lauum`` into the lower triangle of ``L^{-T} L^{-1} = A^{-1}``.
    Weighting that triangle 2x off the diagonal and 1x on it makes its
    ``vdot`` with a symmetric S equal ``tr(A^{-1} S)``, and a rank-1 ``ger``
    adds ``alpha alpha^T``.  Returns the C-contiguous transpose view of W
    (``vdot`` of symmetric S with W or W^T agree, and a C-ordered W keeps
    ``vdot`` from copying) and ``tr(A^{-1})``.
    """
    _invert_lower(L, scratch.reshape(-1))
    P, info = scipy.linalg.lapack.dlauum(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"LAPACK lauum failed with info={info}")
    trace_inv = float(np.trace(P))
    P *= -2.0
    P.flat[:: P.shape[0] + 1] *= 0.5
    W = scipy.linalg.blas.dger(1.0, alpha, alpha, a=P, overwrite_a=1)
    return W.T, trace_inv


class _Workspace:
    """What one search over ``n`` training points reuses from candidate to candidate.

    :func:`_tune_grid` and :func:`_tune_gradient` each hold one and drop it
    before any final fit.  ``workspace[role]`` is a scratch n x n array that
    each :func:`lml_and_gradient` call overwrites, so no evaluation
    page-faults in afresh what the last freed: ``instance.K``, ``task.K`` and
    each Matern side's ``grad0``, ``grad1``, ... (:func:`kernels.matern_gram_grads`);
    ``cov`` for ``KX * KT + tau2 I``, its factor and the evidence weights;
    ``scratch`` for each Matern slope, then the inverse's products
    (:func:`_evidence_weights`), then ``W * KT``.  :meth:`held` keeps a
    read-only array per role (each side's Gram, each isotropic Matern side's
    distances ``instance.dist`` and ``task.dist``, a task forest's training
    rows and per-node ``XtX`` and ``Xty``) while the kernel and points (and
    labels) it was built from stay; one per role suffices, as
    :func:`grid_candidates` varies tau2 fastest.  Matern, linear and
    constant kernels match by value, discrete task kernels (whose ``==``
    compares arrays) and points by identity.  Its n x n buffers are made on
    first use, so a single tree fit's own workspace holds no such array.
    ``dual`` is the last classifier candidate's converged Laplace dual, an
    n-vector that the next candidate's Newton iteration starts from
    (:func:`gp_classify._fit_laplace`); None until a classifier converges.
    """

    def __init__(self, n: int):
        self.n = n
        self.dual: np.ndarray | None = None
        self._arrays: dict[str, np.ndarray] = {}
        self._held: dict[str, tuple] = {}

    def __getitem__(self, role: str) -> np.ndarray:
        if role not in self._arrays:
            self._arrays[role] = np.empty((self.n, self.n))
        return self._arrays[role]

    def held(self, role: str, kernel, points: tuple, build) -> np.ndarray:
        """``build()``, made again only when ``kernel`` or ``points`` differ from the last ones."""
        kept = self._held.pop(role, (None, ()))
        if not (_same_kernel(kept[0], kernel) and all(map(operator.is_, kept[1], points))):
            del kept  # a value that is replaced goes before the next is built
            kept = (kernel, points, build())
            kept[2].setflags(write=False)
        self._held[role] = kept
        return kept[2]

    def gram(self, side: str, kernel, data: Dataset) -> np.ndarray:
        """``kernel``'s Gram over the instances (``side="instance"``) or tasks of ``data``."""
        points = data.X if side == "instance" else data.T
        build = kernels.instance_gram if side == "instance" else kernels.task_gram
        return self.held(side, kernel, (points,), lambda: build(kernel, points, points))

    def distances(self, side: str, data: Dataset, Z: np.ndarray) -> np.ndarray:
        """``cdist(Z, Z)`` over ``Z``, the instances (``side="instance"``) or task coordinates of ``data``.

        Held against the points alone: ``cdist`` itself stands where :meth:`held` takes a kernel.
        """
        points = data.X if side == "instance" else data.T
        return self.held(f"{side}.dist", kernels.cdist, (points,), lambda: kernels.cdist(Z, Z))

    def matern_buffer(self, side: str):
        """``buffer`` for :func:`kernels.matern_gram_grads` on one side.

        The slope and nu = 5/2's spare go to ``scratch`` and ``cov``, which
        are free until both Grams are built.
        """
        shared = {"slope": "scratch", "spare": "cov"}
        return lambda role: self[shared.get(role, f"{side}.{role}")]


def lml_and_gradient(
    data: Dataset, spec: KernelSpec, tau2: float, *, _workspace: _Workspace | None = None
) -> tuple[float, dict[str, float]]:
    """Log marginal likelihood and its gradient w.r.t. log-hyperparameters.

    The gradient follows the standard identity
    ``d lml / d theta = 0.5 * tr((alpha alpha^T - A^{-1}) dK/dtheta)`` with
    ``A = K + tau2*I`` (Rasmussen & Williams 2006, eq. 5.9), combined with
    the product rule for the instance/task Gram factors.  Keys are
    :func:`free_param_names`, in its order.

    Cost: one Cholesky, one inverse of its factor and one LAPACK ``lauum``
    (O(n^3) each, all at BLAS-3 speed; see :func:`_evidence_weights`), then
    O(n^2) per parameter.  The weights ``W`` of the identity are formed
    once, and ``W * KT`` and ``W * KX`` at most once each; every lengthscale
    gradient is one ``vdot`` with its derivative matrix, both amplitude
    gradients are the single number ``vdot(W * KT, KX)`` (the derivative is
    2K), and the tau2 gradient is ``0.5 * (alpha . alpha - tr A^{-1}) * tau2``.
    No n x n array is made per parameter.  Every n x n array a Matern side
    or the solve needs is an array of ``_workspace`` (a :class:`_Workspace`
    over the ``data.n`` points; a fresh one when omitted).  A search's
    workspace also keeps a side with no free parameter's Gram and each
    isotropic Matern side's ``cdist``, so an evaluation only divides it by
    the lengthscale; a lone call holds neither distance.  The numbers do
    not depend on the workspace.
    """
    ws = _Workspace(data.n) if _workspace is None else _workspace
    inst, task = spec.instance_kernel, spec.task_kernel

    def grams(side, kernel):
        if not isinstance(kernel, Matern):
            return ws.gram(side, kernel, data), []
        Z = data.X if side == "instance" else as_task_array(data.T, discrete=False)
        dist = None if _workspace is None or kernel.ard else ws.distances(side, data, Z)
        return matern_gram_grads(kernel, Z, ws.matern_buffer(side), dist)

    KX, dKX = grams("instance", inst)
    KT, dKT = grams("task", task)

    cov = DenseCovariance(add_diagonal(np.multiply(KX, KT, out=ws["cov"]), tau2))
    fit = _fit_gaussian(data, spec, tau2, cov, DenseBasis())
    lml, alpha = fit.log_marginal_likelihood(), fit.alpha
    W, trace_inv = _evidence_weights(fit.chol, alpha, ws["scratch"])
    del fit
    grad: list[float] = []
    amplitude = None
    if dKX:
        WT = np.multiply(W, KT, out=ws["scratch"])
        amplitude = float(np.vdot(WT, KX))
        grad += [0.5 * float(np.vdot(WT, dK)) for dK in dKX] + [amplitude]
    if dKT:
        W *= KX
        amplitude = float(np.vdot(W, KT)) if amplitude is None else amplitude
        grad += [0.5 * float(np.vdot(W, dK)) for dK in dKT] + [amplitude]
    grad.append(0.5 * (float(alpha @ alpha) - trace_inv) * tau2)
    return lml, dict(zip(free_param_names(spec), grad))


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
    are fixed by structure.  Grid keys are names :func:`free_param_names`
    produces for some spec, each mapped to a non-empty list of finite
    numbers above 0; any other key or value raises ``ValueError``.
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
        for name, values in (self.grid or {}).items():
            if not _PARAM_NAME.fullmatch(str(name)):
                raise ValueError(f"unknown grid parameter {name!r}; use tau2 or instance./task. "
                                 "followed by lengthscale, lengthscale[i] or amplitude")
            if not isinstance(values, (list, tuple, np.ndarray)) or not len(values):
                raise ValueError(f"grid parameter {name!r} must list some numbers, got {values!r}")
            for i, value in enumerate(values):
                _check_positive(f"grid parameter {name!r}[{i}]", value)
        _check_positive("tau2_init", self.tau2_init)
        _check_positive("grad_tol", self.grad_tol)
        for name in ("n_restarts", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def _check_positive(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a finite number above 0 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number above 0, got {value!r}")


def tune_hyperparameters(
    data: Dataset, spec_template: KernelSpec, search: SearchConfig, *, inducing=None
) -> FittedRegressor:
    """Fit the regressor whose hyperparameters maximize the log marginal likelihood.

    Returns the fitted best model; the chosen hyperparameters are its
    ``spec`` and ``tau2``.  Deterministic given ``search.seed``.  Raises
    :class:`NumericalError` when every candidate fails to factorize.
    Given ``inducing`` points, a grid search tunes FITC on its own evidence.
    """
    if data.n < 2:
        raise ValueError("tuning needs at least two training points")
    if search.method == "grid":
        return _tune_grid(fit_regressor, data, spec_template, search, inducing)
    if inducing is not None:
        raise ValueError("FITC tuning requires a grid search configuration")
    return _tune_gradient(data, spec_template, search)


def grid_candidates(spec: KernelSpec, tau2_0: float, grid: Mapping) -> list[tuple[KernelSpec, float]]:
    """Cartesian grid of (spec, tau2) candidates, in deterministic order.

    The product runs over the grid entries, sorted by name, that name a
    parameter of the given spec; the others (e.g. a task lengthscale when
    the task kernel is constant) are ignored.  A value repeated within an
    entry counts once.  Sorted names put ``instance.*`` before ``task.*``
    before ``tau2``, so tau2 varies fastest and the instance kernel slowest.
    """
    position = {name: i for i, name in enumerate(free_param_names(spec))}
    entries = [name for name in sorted(grid) if name in position]
    out = []
    for combo in itertools.product(*(dict.fromkeys(map(float, grid[name])) for name in entries)):
        values = _param_values(spec, tau2_0)
        for name, v in zip(entries, combo):
            values[position[name]] = v
        out.append(_with_param_values(spec, values))
    return out


def _tune_grid(fit, data: Dataset, spec: KernelSpec, search: SearchConfig, inducing=None):
    """Fit each grid candidate with ``fit``, given ``workspace`` and ``inducing``; return the best.

    The candidates share one :class:`_Workspace`, dropped when the grid
    returns.  Candidates that raise :class:`NumericalError` are skipped.  A
    model is dropped as soon as it loses, so at most one is held besides
    the fit in progress.  A classifier candidate starts Newton from the
    dual its predecessor left in ``workspace.dual``, which moves the last
    bits of its fit; a winner that started so is fitted again from zero,
    so the model returned is a fresh fit's bit for bit (or, should Newton
    fail from zero, the warm fit).  The refit goes through the same
    workspace and reuses what it still holds for the winner; a winner
    before the last candidate's Grams builds its own again.  Any other
    winner is returned as it was fitted.
    """
    workspace = _Workspace(data.n)
    candidates = grid_candidates(spec, search.tau2_init, search.grid)
    best, best_lml, failure, warm = None, -math.inf, None, False
    for cand_spec, cand_tau2 in candidates:
        started = workspace.dual is not None
        try:
            model = fit(data, cand_spec, cand_tau2, workspace=workspace, inducing=inducing)
        except NumericalError as exc:
            failure = exc.with_traceback(None)  # its frames would keep the candidate's arrays
            continue
        lml = model.log_marginal_likelihood()
        if best is None or lml > best_lml:
            best, best_lml, warm = model, lml, started
        del model
    if best is None:
        raise NumericalError(f"every grid candidate failed to fit ({len(candidates)} "
                             f"candidates); the last: {failure}") from failure
    if warm:
        workspace.dual = None
        try:
            best = fit(data, best.spec, best.tau2, workspace=workspace, inducing=inducing)
        except NumericalError:
            pass  # Newton fails from zero where the warm start converged: keep that fit
    return best


def _tune_gradient(data: Dataset, spec: KernelSpec, search: SearchConfig) -> FittedRegressor:
    theta0 = np.array([math.log(v) for v in _param_values(spec, search.tau2_init)])
    bounds = [_KERNEL_LOG_BOUNDS] * (theta0.size - 1) + [_TAU2_LOG_BOUNDS]
    fail_penalty = 1e25
    workspace = _Workspace(data.n)

    def objective(theta):
        try:
            lml, grad = lml_and_gradient(
                data, *_with_param_values(spec, np.exp(theta)), _workspace=workspace
            )
        except NumericalError:
            return fail_penalty, np.zeros_like(theta)
        return -lml, -np.array(list(grad.values()))

    rng = np.random.default_rng(search.seed)
    best = None
    for restart in range(search.n_restarts):
        start = theta0 + rng.standard_normal(theta0.shape) if restart else theta0
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
    del objective, workspace  # the final fit must not hold the search's arrays too
    if best is None:
        raise NumericalError("hyperparameter search failed for every restart")
    return fit_regressor(data, *_with_param_values(spec, np.exp(best[1])))
