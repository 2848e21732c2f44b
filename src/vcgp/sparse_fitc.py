"""FITC sparse approximation for the product-kernel GP.

The exact covariance is replaced by the fully-independent-training-
conditional surrogate ``Q + diag(K - Q)`` with ``Q = K_nu K_uu^{-1} K_un``
over p inducing points (Snelson & Ghahramani 2006).  FITC is a route of
the one covariance builder, :func:`gp_core._covariance`: given an
:class:`InducingSet`, the builder takes :meth:`InducingSet.covariance`,
the surrogate plus the latent noise as :class:`gp_core.LowRankDiag`, the
covariance of the exact models' weight-space route.  So the exact fits
and tuners take FITC by one keyword, ``inducing``:
:func:`gp_core.fit_regressor`, :func:`gp_classify.fit_classifier`,
:func:`gp_core.tune_hyperparameters` and
:func:`gp_classify.tune_classifier_hyperparameters`.  Neither fit forms or
factorizes an n x n matrix: the Gaussian fit costs O(n p^2), and each
Laplace Newton step O(n p^2).  The fits return the exact model classes
with a :class:`FITCBasis` over the inducing points, which predicts in
O(p^2) per test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._linalg import chol_with_jitter, solve_lower
from .gp_classify import FittedClassifier, fit_classifier
from .gp_core import Dataset, LowRankBasis, LowRankDiag, _check_file_shapes, _freeze_rows
from .gp_core import _Workspace
from .kernels import KernelSpec

__all__ = ["FITCBasis", "InducingSet", "select_inducing"]

# the FITC classifier is the exact class with a FITCBasis; the name
# stays because the benchmark's tracer (benchmark/layertrace.py) looks it up
FittedFITCClassifier = FittedClassifier


@dataclass(frozen=True)
class InducingSet:
    """Inducing inputs for the sparse approximation: pass one as a fit's or tuner's ``inducing``."""

    X: np.ndarray
    T: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        _freeze_rows(self)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int).copy()
            idx.setflags(write=False)
            object.__setattr__(self, "indices", idx)

    def covariance(self, data: Dataset, spec: KernelSpec, tau2: float):
        """``(covariance, basis)``: FITC's surrogate plus noise over ``data``, and its basis.

        The covariance is :class:`gp_core.LowRankDiag` ``(V, lam)``:
        ``V = Luu^{-1} K_un`` carries the low-rank part and ``lam`` is the FITC
        diagonal ``diag(K - Q) + tau2``, floored away from zero for safety; its
        ``jitter`` is what the factor ``Luu`` of ``K_uu`` took.  Inducing tasks
        of another variant or dimension than the training tasks raise ``ValueError``.
        """
        if self.T.shape[1:] != data.T.shape[1:]:
            have = [f"{T.shape[1]}-coordinate tasks" if T.ndim == 2 else "discrete task ids"
                    for T in (self.T, data.T)]
            raise ValueError("inducing points have {}, training points have {}".format(*have))
        Kuu = kernels.product_kernel_matrix(self.X, self.T, self.X, self.T, spec)
        Luu, jitter = chol_with_jitter(Kuu, context=f"inducing Gram for kernel spec {spec}")
        Kun = kernels.product_kernel_matrix(self.X, self.T, data.X, data.T, spec)
        V = solve_lower(Luu, Kun)
        kdiag = kernels.product_kernel_diag(data.X, data.T, spec)
        lam = kdiag - np.einsum("ij,ij->j", V, V) + tau2
        lam = np.maximum(lam, 1e-12 * max(float(np.mean(kdiag)), 1.0))
        return LowRankDiag(V, lam, jitter), FITCBasis(self.X, self.T, Luu, lam)


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


def fit_fitc_classifier(
    data: Dataset, spec: KernelSpec, tau2: float, inducing: InducingSet, *,
    workspace: _Workspace | None = None,
) -> FittedClassifier:
    """:func:`gp_classify.fit_classifier` with ``inducing``, the one FITC classifier fit.

    The name stays because the benchmark's worker and tracer
    (``benchmark/worker.py``, ``benchmark/layertrace.py``) call it.
    """
    return fit_classifier(data, spec, tau2, workspace=workspace, inducing=inducing)
