"""Hierarchical-Bayes multitask generative process and its verification.

The generative process draws one coefficient vector per tree node: the root
from ``N(0, sigma_1^2 I)`` and each child from a Gaussian centered at its
parent.  A draw is a plain k x m array, row l - 1 holding node l's
coefficients (:func:`sample_hb`; a stack of n draws from
:func:`sample_hb_batch`).  The closed-form task covariance of that process is
:func:`vcgp.kernels.tree_task_kernel`; the operations here verify, by Monte
Carlo and by explicit weight-space inference, that the closed form, the
graph-Laplacian construction, and product-kernel GP prediction all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .gp_core import Dataset, fit_regressor
from .kernels import KernelSpec, Linear, TaskTree, Tree, tree_laplacian, tree_task_kernel

__all__ = [
    "CheckReport",
    "sample_hb",
    "sample_hb_batch",
    "verify_prop1",
    "verify_prop2",
    "end_to_end_equivalence",
    "random_tree",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check: pass iff statistic < threshold."""

    name: str
    statistic: float
    threshold: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """``statistic < threshold``; a NaN statistic fails."""
        return bool(self.statistic < self.threshold)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}\tstatistic={self.statistic:.6g}\tthreshold={self.threshold:g}\t{verdict}"


def random_tree(k: int, rng: np.random.Generator, sigma_low=0.1, sigma_high=10.0) -> TaskTree:
    """Uniform random tree over k nodes with uniform sigma values."""
    parent = {l: int(rng.integers(1, l)) for l in range(2, k + 1)}
    sigma = rng.uniform(sigma_low, sigma_high, size=k)
    return TaskTree(parent=parent, sigma=tuple(sigma))


def sample_hb_batch(tree: TaskTree, m: int, n_samples: int, seed) -> np.ndarray:
    """Vectorized draws from the hierarchical process: shape (n, k, m)."""
    rng = np.random.default_rng(seed)
    k = tree.k
    eps = rng.standard_normal((n_samples, k, m))
    W = np.empty_like(eps)
    for node in tree.topological_order():
        i = node - 1
        if node == 1:
            W[:, i] = tree.sigma[0] * eps[:, i]
        else:
            W[:, i] = W[:, tree.parent[node] - 1] + tree.sigma[i] * eps[:, i]
    return W


def sample_hb(tree: TaskTree, m: int, seed) -> np.ndarray:
    """One draw of the per-task coefficient matrix, k tasks by m features; deterministic per seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return sample_hb_batch(tree, m, 1, seed)[0]


def verify_prop1(
    tree: TaskTree, m: int, n_samples: int, seed, se_limit: float = 4.0,
    batch: int = 100_000,
) -> CheckReport:
    """Monte-Carlo check that stacked coefficients have covariance G kron I_m.

    Accumulates the km x km second-moment matrix of ``vec(Wbar^T)`` over
    independent batches (the process has mean zero, so the second moment is
    the covariance and its estimator has exact Gaussian standard errors
    ``sqrt((C_aa C_bb + C_ab^2) / N)``).  Batch seeds are spawned from the
    given seed via ``numpy.random.SeedSequence`` so batches can run
    independently.  Passes when every entry deviates from the target by
    fewer than ``se_limit`` standard errors.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples for a meaningful check")
    k = tree.k
    km = k * m
    target = np.kron(tree_task_kernel(tree), np.eye(m))
    n_batches = (n_samples + batch - 1) // batch
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    S = np.zeros((km, km))
    done = 0
    for b in range(n_batches):
        nb = min(batch, n_samples - done)
        W = sample_hb_batch(tree, m, nb, seeds[b])
        V = W.reshape(nb, km)
        S += V.T @ V
        done += nb
    emp = S / n_samples
    se = np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / n_samples
    )
    stat = float(np.max(np.abs(emp - target) / se))
    return CheckReport(
        name=f"prop1-mc/k={k},m={m},n={n_samples}",
        statistic=stat,
        threshold=se_limit,
        details={"max_abs_dev": float(np.max(np.abs(emp - target)))},
    )


def verify_prop2(tree: TaskTree, tol: float = 1e-8) -> CheckReport:
    """Check that the regularized-Laplacian inverse equals the tree covariance."""
    G = tree_task_kernel(tree)
    L = tree_laplacian(tree)
    Linv = kernels.laplacian_task_kernel(tree)
    ident = float(np.max(np.abs(G @ L - np.eye(tree.k))))
    rel = float(np.max(np.abs(Linv - G)) / np.max(np.abs(G)))
    stat = max(ident, rel)
    return CheckReport(
        name=f"prop2/k={tree.k}",
        statistic=stat,
        threshold=tol,
        details={"identity_dev": ident, "inverse_rel_dev": rel},
    )


def hb_weight_covariance(tree: TaskTree, m: int) -> np.ndarray:
    """Covariance of the stacked coefficients, from the recursion's matrix form.

    Uses ``(I - Abar)^{-1} S (I - Abar)^{-T}`` with ``Abar`` the child-row
    adjacency Kronecker the identity -- an independent route from the
    shared-ancestry recursion in :func:`tree_task_kernel`.
    """
    k = tree.k
    A = np.zeros((k, k))
    for child, pa in tree.parent.items():
        A[child - 1, pa - 1] = 1.0
    Abar = np.kron(A, np.eye(m))
    S = np.diag(np.repeat(np.asarray(tree.sigma) ** 2, m))
    inv = np.linalg.inv(np.eye(k * m) - Abar)
    return inv @ S @ inv.T


def end_to_end_equivalence(
    tree: TaskTree,
    data: Dataset,
    tau2: float = 0.1,
    X_star=None,
    T_star=None,
    tol: float = 1e-8,
) -> CheckReport:
    """Check product-kernel GP prediction against weight-space inference.

    Route A fits the GP with the tree task kernel.  Route B performs exact
    conjugate inference over the km stacked per-task coefficients with the
    covariance from :func:`hb_weight_covariance`, then conditions the joint
    Gaussian explicitly.  The two predictive means and variances must agree
    at every test point; the stacked covariance must also equal
    ``G kron I_m``.  Defaults to predicting at the training points plus one
    unit probe per task.
    """
    if not data.has_discrete_tasks:
        raise ValueError("equivalence check needs discrete task ids")
    k, m, n = tree.k, data.m, data.n
    if X_star is None:
        X_star = np.vstack([data.X, np.ones((k, m))])
        T_star = np.concatenate([data.T, np.arange(1, k + 1)])
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    T_star = np.asarray(T_star, dtype=int)

    spec = KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree=tree))
    model = fit_regressor(data, spec, tau2)
    mean_a, var_a = model.predict_batch(X_star, T_star)

    Sigma = hb_weight_covariance(tree, m)
    kron_dev = float(np.max(np.abs(Sigma - np.kron(tree_task_kernel(tree), np.eye(m)))))

    # design operator: row i places x_i in task t_i's block of the stacked vector
    def design(X, T):
        Phi = np.zeros((X.shape[0], k * m))
        for i in range(X.shape[0]):
            block = (T[i] - 1) * m
            Phi[i, block : block + m] = X[i]
        return Phi

    Phi = design(data.X, data.T)
    Phi_star = design(X_star, T_star)
    C_yy = Phi @ Sigma @ Phi.T + tau2 * np.eye(n)
    C_sy = Phi_star @ Sigma @ Phi.T
    C_ss = Phi_star @ Sigma @ Phi_star.T
    C_inv = np.linalg.inv(C_yy)
    mean_b = C_sy @ C_inv @ data.y
    var_b = np.diag(C_ss - C_sy @ C_inv @ C_sy.T)

    dev = max(
        float(np.max(np.abs(mean_a - mean_b))),
        float(np.max(np.abs(var_a - np.maximum(var_b, 0.0)))),
        kron_dev,
    )
    return CheckReport(
        name=f"end-to-end/k={k},m={m},n={n}",
        statistic=dev,
        threshold=tol,
        details={"kron_dev": kron_dev},
    )
