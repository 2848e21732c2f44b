"""Kernels for varying-coefficient Gaussian process models.

An observation carries an instance vector ``x`` and a task descriptor ``t``
(either a point in R^d or a discrete task id).  The model covariance is the
product of an instance kernel and a scalar task kernel,

    k((x, t), (x', t')) = k_X(x, x') * k_T(t, t'),

which is the covariance that an isotropic multivariate GP prior over the
coefficient function induces on the observed outputs.  This module provides
the instance kernels (linear, Matern), the task kernels (constant, Matern,
tree-structured, graph-Laplacian, explicit Gram), Gram-matrix assembly, and
the closed-form task covariances for tree-structured task hierarchies.

The constant, tree, graph-Laplacian and explicit-Gram task kernels hold a
k x k Gram over tasks (k = 1 for the constant kernel, whose one task every
descriptor maps to), computed once, when they are constructed: O(k^2) for a
tree and O(k^3) for a Laplacian.  Gram assembly and prediction then only
index it.  Its PSD factor ``G = C C^T`` (:func:`task_factor`, O(k^3) by
``eigh``) is computed on first use and held as well.

All kernel evaluations are pure functions and all types are immutable after
construction, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "TaskPoint",
    "TaskTree",
    "Linear",
    "Matern",
    "Constant",
    "Tree",
    "Laplacian",
    "FixedGram",
    "KernelSpec",
    "matern",
    "instance_gram",
    "task_gram",
    "task_factor",
    "task_factor_rows",
    "product_kernel_matrix",
    "product_kernel_diag",
    "tree_task_kernel",
    "tree_laplacian",
    "laplacian_task_kernel",
    "kernel_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

_MATERN_NUS = (0.5, 1.5, 2.5)


# ---------------------------------------------------------------------------
# task descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskPoint:
    """A single task descriptor: continuous coordinates or a discrete id.

    Exactly one of ``coords`` and ``task_id`` must be given.  Discrete ids
    are 1-based, matching the node numbering of :class:`TaskTree`.
    """

    coords: tuple[float, ...] | None = None
    task_id: int | None = None

    def __post_init__(self):
        if (self.coords is None) == (self.task_id is None):
            raise ValueError("TaskPoint takes exactly one of coords or task_id")
        if self.coords is not None:
            c = tuple(float(v) for v in np.atleast_1d(self.coords))
            if not all(math.isfinite(v) for v in c):
                raise ValueError("TaskPoint coords must be finite")
            object.__setattr__(self, "coords", c)
        else:
            t = int(self.task_id)
            if t < 1:
                raise ValueError("task_id must be >= 1")
            object.__setattr__(self, "task_id", t)

    @property
    def is_discrete(self) -> bool:
        return self.task_id is not None


def as_task_array(t, *, discrete: bool | None = None) -> np.ndarray:
    """Normalize task descriptors to the internal array form.

    Continuous tasks become a float array of shape ``(n, d)``; discrete tasks
    an int array of shape ``(n,)`` with 1-based ids.  Accepts arrays, single
    :class:`TaskPoint` objects, or sequences of them.  ``discrete`` picks the
    variant, inferred when None; task points of the other variant, and
    discrete ids that are not integral numbers, raise ``ValueError``.
    """
    if isinstance(t, TaskPoint):
        t = [t]
    if isinstance(t, (list, tuple)) and t and isinstance(t[0], TaskPoint):
        if discrete is None:
            discrete = t[0].is_discrete
        if any(p.is_discrete != discrete for p in t):
            raise ValueError(f"task points must all be {'task ids' if discrete else 'coordinates'}")
        if discrete:
            return np.array([p.task_id for p in t], dtype=int)
        return np.array([p.coords for p in t], dtype=float)
    arr = np.asarray(t)
    if discrete is None:
        discrete = arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer)
    if discrete:
        if arr.dtype.kind not in "iu":  # integer ids pay for no check
            if arr.dtype.kind != "f":
                raise ValueError(f"discrete task ids must be integers, got dtype {arr.dtype}")
            ids = arr.reshape(-1)
            bad = ~np.isfinite(ids) | (ids != np.round(ids))
            if bad.any():
                raise ValueError(f"discrete task ids must be integers, got {float(ids[bad][0])}")
        arr = np.asarray(arr, dtype=int).reshape(-1)
        if arr.size and arr.min() < 1:
            raise ValueError("discrete task ids must be >= 1")
        return arr
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("task coordinates must be finite")
    return arr


@dataclass(frozen=True)
class TaskTree:
    """A directed tree over tasks 1..k with per-node standard deviations.

    ``parent`` maps each non-root node l in {2..k} to its parent; node 1 is
    always the root.  ``sigma[l-1]`` is the standard deviation of node l's
    conditional (the root's marginal for l=1).
    """

    parent: Mapping[int, int]
    sigma: tuple[float, ...]

    def __post_init__(self):
        sigma = tuple(float(s) for s in np.atleast_1d(np.asarray(self.sigma, dtype=float)))
        object.__setattr__(self, "sigma", sigma)
        k = len(sigma)
        if k < 1:
            raise ValueError("tree needs at least one node")
        if any(not (s > 0.0) or not math.isfinite(s) for s in sigma):
            raise ValueError("all sigma values must be positive and finite")
        parent = {int(c): int(p) for c, p in dict(self.parent).items()}
        object.__setattr__(self, "parent", parent)
        if set(parent) != set(range(2, k + 1)):
            raise ValueError(f"parent map must cover exactly nodes 2..{k}")
        if any(not 1 <= p <= k for p in parent.values()):
            raise ValueError("parent ids must lie in 1..k")
        # every node must reach the root without revisiting a node
        for node in range(2, k + 1):
            seen = {node}
            cur = node
            while cur != 1:
                cur = parent[cur]
                if cur in seen:
                    raise ValueError(f"parent map contains a cycle through node {node}")
                seen.add(cur)

    @property
    def k(self) -> int:
        return len(self.sigma)

    def root_path(self, node: int) -> list[int]:
        """Nodes from the root down to ``node``, inclusive."""
        path = []
        cur = int(node)
        while cur != 1:
            path.append(cur)
            cur = self.parent[cur]
        path.append(1)
        path.reverse()
        return path

    def topological_order(self) -> list[int]:
        """Node order in which every parent precedes its children."""
        return sorted(range(1, self.k + 1), key=lambda n: len(self.root_path(n)))


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Linear:
    """Linear instance kernel ``k(x, x') = x^T x'``."""


@dataclass(frozen=True)
class Matern:
    """Matern kernel with smoothness nu in {1/2, 3/2, 5/2}.

    ``lengthscale`` may be a positive scalar or a per-dimension vector
    (automatic relevance determination); ``amplitude`` is the output scale s,
    so the kernel value at zero distance is ``s**2``.
    """

    nu: float = 1.5
    lengthscale: Union[float, tuple[float, ...]] = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if float(self.nu) not in _MATERN_NUS:
            raise ValueError(f"nu must be one of {_MATERN_NUS}")
        object.__setattr__(self, "nu", float(self.nu))
        ls = np.atleast_1d(np.asarray(self.lengthscale, dtype=float))
        if np.any(ls <= 0) or not np.all(np.isfinite(ls)):
            raise ValueError("lengthscale must be positive and finite")
        if ls.size == 1:
            object.__setattr__(self, "lengthscale", float(ls[0]))
        else:
            object.__setattr__(self, "lengthscale", tuple(float(v) for v in ls))
        if not (float(self.amplitude) > 0.0):
            raise ValueError("amplitude must be positive")
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def ard(self) -> bool:
        return isinstance(self.lengthscale, tuple)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _HeldGram:
    """A task kernel given by a k x k Gram over tasks, held in ``gram``, and its factor.

    The constant kernel is the one-task case; the tree, Laplacian and
    explicit-Gram kernels take task ids 1..k.  :meth:`rows` maps task
    descriptors to Gram rows, so every use of the kernel only indexes.
    """

    def rows(self, T) -> np.ndarray:
        """The 0-based Gram row of each task id in T; ``ValueError`` for an id outside 1..k."""
        T = as_task_array(T, discrete=True)
        k = self.gram.shape[0]
        if T.size and T.max() > k:  # as_task_array rejected ids below 1
            raise ValueError(f"task ids must lie in 1..{k}")
        return T - 1

    @cached_property
    def factor(self) -> np.ndarray | None:
        """``C`` (k x rank) with ``C @ C.T == gram`` to rounding; None if the Gram is indefinite.

        From ``eigh``: the columns are the eigenvectors scaled by the square
        roots of the eigenvalues above the pseudoinverse cutoff of
        :func:`laplacian_task_kernel_from_parts`, so a singular PSD Gram gets
        a factor of its own rank and no jitter.  An eigenvalue below minus
        that cutoff makes the Gram indefinite.  Computed on first use.
        """
        evals, evecs = np.linalg.eigh(self.gram)
        cutoff = _eig_cutoff(evals)
        if evals[0] < -cutoff:
            return None
        keep = evals > cutoff
        return _freeze(evecs[:, keep] * np.sqrt(evals[keep]))


@dataclass(frozen=True)
class Tree(_HeldGram):
    """Task kernel over discrete tasks given by a tree-structured hierarchy.

    The Gram matrix is the covariance of the hierarchical generative process
    in which each node's coefficient vector is Gaussian around its parent's:
    entry (t, t') accumulates the variances along the shared ancestry of t
    and t' (see :func:`tree_task_kernel`).  It is computed once, at
    construction, and held read-only in ``gram``.
    """

    tree: TaskTree
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gram", _freeze(tree_task_kernel(self.tree)))


@dataclass(frozen=True)
class Laplacian(_HeldGram):
    """Task kernel given by the pseudoinverse of a regularized graph Laplacian.

    ``M`` is a symmetric weighted adjacency matrix over tasks and ``R`` a
    diagonal regularizer; the Gram matrix is ``pinv(D + R - M)`` with ``D``
    the weighted degree matrix, computed once at construction and held
    read-only in ``gram``.  :meth:`from_tree` builds the (M, R) pair whose
    kernel equals the tree-structured task covariance.
    """

    M: np.ndarray
    R: np.ndarray
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if not np.allclose(M, M.T):
            raise ValueError("M must be symmetric")
        if R.shape != M.shape or not np.allclose(R, np.diag(np.diag(R))):
            raise ValueError("R must be diagonal and match M's shape")
        object.__setattr__(self, "M", _freeze(M.copy()))
        object.__setattr__(self, "R", _freeze(R.copy()))
        object.__setattr__(self, "gram", _freeze(laplacian_task_kernel_from_parts(M, R)))

    @classmethod
    def from_tree(cls, tree: TaskTree) -> "Laplacian":
        return cls(*_tree_laplacian_parts(tree))


@dataclass(frozen=True)
class FixedGram(_HeldGram):
    """Task kernel over discrete tasks given by an explicit PSD Gram matrix."""

    gram: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("gram must be square")
        if not np.allclose(G, G.T):
            raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", _freeze(G.copy()))


@dataclass(frozen=True)
class Constant(_HeldGram):
    """Constant task kernel ``k(t, t') = value`` (default 1).

    The Gram of one task, ``[[value]]``, shared by every task descriptor of
    either variant: one coefficient vector for all points.
    """

    value: float = 1.0
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (float(self.value) > 0.0):
            raise ValueError("constant kernel value must be positive")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "gram", _freeze(np.array([[self.value]])))

    def rows(self, T) -> np.ndarray:
        return np.zeros(as_task_array(T).shape[0], dtype=int)


InstanceKernel = Union[Linear, Matern]
TaskKernel = Union[Constant, Matern, Tree, Laplacian, FixedGram]

_INSTANCE_KINDS = (Linear, Matern)
_TASK_KINDS = (Constant, Matern, Tree, Laplacian, FixedGram)
_TASK_KINDS_MESSAGE = "task kernel must be Constant, Matern, Tree, Laplacian or FixedGram"


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel: an instance kernel paired with a task kernel."""

    instance_kernel: InstanceKernel
    task_kernel: TaskKernel = field(default_factory=Constant)

    def __post_init__(self):
        if not isinstance(self.instance_kernel, _INSTANCE_KINDS):
            raise ValueError("instance kernel must be Linear or Matern")
        if not isinstance(self.task_kernel, _TASK_KINDS):
            raise ValueError(_TASK_KINDS_MESSAGE)

    def __str__(self):
        return f"{type(self.instance_kernel).__name__} x {type(self.task_kernel).__name__}"


# ---------------------------------------------------------------------------
# scalar Matern evaluation
# ---------------------------------------------------------------------------


def _exp_neg(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(-x)`` in ``out``, or in one new array (0-d for a scalar ``x``)."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    return np.exp(out, out=out)


def _matern_shape(
    u: np.ndarray, nu: float, K: np.ndarray, S: np.ndarray | None = None,
    spare: np.ndarray | None = None,
) -> None:
    """Write the unit-amplitude Matern profile m_nu(u) into ``K``; with ``S``, its slope too.

    The one routine of every Matern Gram, :func:`matern` and
    :func:`matern_gram_grads`: one ``exp`` gives the profile and the slope
    ``-m_nu'(u) / u``.  Without ``S``, ``K`` may be ``u`` itself, so a Gram
    is written over its own distances.  With ``S``, ``K``, ``S`` and
    ``spare`` (nu = 5/2 scratch; None takes a new array) are distinct from
    each other and from ``u``, which is left as it is.  The slope is finite
    at u = 0 for nu = 3/2 and 5/2 (``3 e`` and ``(5/3)(1 + sqrt5 u) e``);
    for nu = 1/2 it is ``e / u``, unbounded as u -> 0, and set to 0 at
    u = 0: it only enters multiplied by u^2 or by a squared coordinate
    difference, both 0 there.
    """
    if nu == 0.5:
        _exp_neg(u, out=K)
        if S is not None:
            S.fill(0.0)  # the division below skips u = 0
            np.divide(K, u, out=S, where=u > 0)
    elif nu == 1.5:
        np.multiply(_SQRT3, u, out=K)
        e = _exp_neg(K, out=S)
        K += 1.0
        K *= e
        if S is not None:
            S *= 3.0
    elif nu == 2.5:
        su = K if S is None else S  # sqrt5 u, then 1 + sqrt5 u
        np.multiply(_SQRT5, u, out=su)
        e = _exp_neg(su, out=spare)
        sq = np.multiply(su, su, out=None if S is None else K)
        sq /= 3.0
        su += 1.0
        np.add(su, sq, out=K)
        K *= e
        if S is not None:
            S *= e
            S *= 5.0 / 3.0
    else:
        raise ValueError(f"nu must be one of {_MATERN_NUS}")


def matern(r, nu: float = 1.5, lengthscale: float = 1.0, amplitude: float = 1.0):
    """Matern covariance as a function of distance.

    Parameters
    ----------
    r : float or ndarray
        Non-negative distances.
    nu : float
        Smoothness, one of 1/2, 3/2, 5/2.
    lengthscale, amplitude : float
        Positive scale parameters; the value at ``r=0`` is ``amplitude**2``.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("distances must be finite")
    if np.any(r < 0):
        raise ValueError("distances must be non-negative")
    if not lengthscale > 0 or not amplitude > 0:
        raise ValueError("lengthscale and amplitude must be positive")
    out = np.asarray(r / lengthscale)  # a new array, 0-d for a scalar r
    _matern_shape(out, float(nu), out)
    out *= amplitude**2
    return out if out.ndim else float(out)


def _scaled_dist(
    Z1: np.ndarray, Z2: np.ndarray, kernel: Matern, out: np.ndarray | None = None
) -> np.ndarray:
    ls = np.atleast_1d(np.asarray(kernel.lengthscale, dtype=float))
    if ls.size not in (1, Z1.shape[1]):
        raise ValueError(
            f"lengthscale has {ls.size} entries but points have {Z1.shape[1]} dimensions"
        )
    return cdist(Z1 / ls, Z2 / ls, out=out)


def _matern_gram(kernel: Matern, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    K = _scaled_dist(Z1, Z2, kernel)  # cdist's new array: the profile overwrites it
    _matern_shape(K, kernel.nu, K)
    K *= kernel.amplitude**2
    return K


def matern_gram_grads(
    kernel: Matern, Z: np.ndarray, buffer=None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gram matrix of a Matern kernel plus its lengthscale derivatives.

    Returns the symmetric Gram K over ``Z`` and a list of matrices
    ``d K / d log(lengthscale)``: one, or one per dimension in the ARD
    case.  The derivative w.r.t. ``log(amplitude)`` is ``2 K`` and is not
    returned.

    K and the slope ``S = s^2 * (-m'(u) / u)`` come from one call of
    :func:`_matern_shape`, the routine of every other Matern Gram, so K
    equals :func:`instance_gram`'s bit for bit.  The isotropic derivative
    is ``S * u^2`` and the ARD one ``S * (dz_i / l_i)^2``.

    Every n x n array is ``buffer(role)``, overwritten whatever it holds:
    ``"K"`` and ``"grad0"``, ``"grad1"``, ... for the results, ``"slope"``
    for S and, for nu = 5/2 only, ``"spare"`` for scratch.  A caller that
    evaluates many kernels over the same points passes arrays it keeps;
    without ``buffer`` each role gets a fresh array and the same code runs.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if buffer is None:
        def buffer(role):
            return np.empty((n, n))
    K, S = buffer("K"), buffer("slope")
    grads = [buffer(f"grad{d}") for d in range(len(kernel.lengthscale) if kernel.ard else 1)]
    u = grads[0]  # the distances, until the derivatives overwrite them
    _scaled_dist(Z, Z, kernel, out=u)
    _matern_shape(u, kernel.nu, K, S, buffer("spare") if kernel.nu == 2.5 else None)
    s2 = kernel.amplitude**2
    K *= s2
    S *= s2
    if not kernel.ard:
        u *= u
        u *= S
        return K, grads
    for d, (dK, ls) in enumerate(zip(grads, kernel.lengthscale)):
        z = Z[:, d] / ls
        np.subtract.outer(z, z, out=dK)
        dK *= dK
        dK *= S
    return K, grads


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def instance_gram(kernel: InstanceKernel, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Instance-kernel Gram matrix between the rows of X1 and X2."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(f"feature dimensions differ: {X1.shape[1]} vs {X2.shape[1]}")
    if isinstance(kernel, Linear):
        return X1 @ X2.T
    if isinstance(kernel, Matern):
        return _matern_gram(kernel, X1, X2)
    raise TypeError(f"not an instance kernel: {kernel!r}")


def task_gram(kernel: TaskKernel, T1, T2) -> np.ndarray:
    """Task-kernel Gram matrix between two sets of task descriptors."""
    if isinstance(kernel, Matern):
        T1 = as_task_array(T1, discrete=False)
        T2 = as_task_array(T2, discrete=False)
        if T1.shape[1] != T2.shape[1]:
            raise ValueError("task coordinate dimensions differ")
        return _matern_gram(kernel, T1, T2)
    if not isinstance(kernel, _HeldGram):
        raise TypeError(f"not a task kernel: {kernel!r}")
    return kernel.gram[kernel.rows(T1)][:, kernel.rows(T2)]


def task_factor(kernel: TaskKernel) -> np.ndarray | None:
    """A factor ``C`` of the task Gram with one row per task, or None.

    ``C C^T`` is the k x k Gram of a held-Gram kernel (see ``factor`` on
    it; None when that Gram is indefinite), one row for a constant kernel.
    None for a Matern task kernel, whose Gram over n points has no fixed
    factor.
    """
    return None if isinstance(kernel, Matern) else kernel.factor


def task_factor_rows(kernel: TaskKernel, factor: np.ndarray, T) -> np.ndarray:
    """The row of ``factor`` (from :func:`task_factor`) for each task descriptor in T.

    Row products give the task Gram: ``R @ R.T == task_gram(kernel, T, T)``
    to rounding, with ``R`` the result.
    """
    return factor[kernel.rows(T)]


def product_kernel_matrix(X1, T1, X2, T2, spec: KernelSpec) -> np.ndarray:
    """Entrywise product of the instance Gram and the task Gram.

    Entry (i, j) is ``k_X(x1_i, x2_j) * k_T(t1_i, t2_j)``.  When the two
    point sets coincide the result is symmetric PSD.
    """
    KX = instance_gram(spec.instance_kernel, X1, X2)
    KT = task_gram(spec.task_kernel, T1, T2)
    if KX.shape != KT.shape:
        raise ValueError(
            f"instance rows and task rows disagree: {KX.shape} vs {KT.shape}"
        )
    KX *= KT  # instance_gram returns a fresh array, so no n x n temporary
    return KX


def product_kernel_diag(X, T, spec: KernelSpec) -> np.ndarray:
    """Diagonal of the product-kernel Gram of a point set with itself."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(spec.instance_kernel, Linear):
        dx = np.einsum("ij,ij->i", X, X)
    else:
        dx = np.full(X.shape[0], spec.instance_kernel.amplitude**2)
    tk = spec.task_kernel
    if isinstance(tk, Matern):
        dt = np.full(as_task_array(T, discrete=False).shape[0], tk.amplitude**2)
    else:
        dt = np.diagonal(tk.gram)[tk.rows(T)]
    if dx.shape != dt.shape:
        raise ValueError(f"instance rows and task rows disagree: {dx.shape} vs {dt.shape}")
    return dx * dt


# ---------------------------------------------------------------------------
# tree-structured task covariances
# ---------------------------------------------------------------------------


def tree_task_kernel(tree: TaskTree) -> np.ndarray:
    """Task covariance of the hierarchical tree process, in closed form.

    Node l's coefficient vector equals its parent's plus isotropic noise of
    variance sigma_l^2, with the root drawn around zero.  The covariance of
    any single coordinate between nodes t and t' is therefore the sum of
    sigma_l^2 over the nodes l shared by both root paths.  Computed row by
    row in topological order -- no matrix inversion: a child c of parent p
    shares p's covariance with every node placed before it, and
    ``G[c, c] = G[p, p] + sigma_c^2``.  Exact, with O(k^2) work in O(k)
    vectorized steps.  The result is symmetric positive definite.
    """
    order = tree.topological_order()
    pos = {node: i for i, node in enumerate(order)}
    var = np.asarray(tree.sigma, dtype=float) ** 2
    # H is G with rows and columns in topological order, so the nodes placed
    # before position i are the slice :i
    H = np.empty((tree.k, tree.k))
    H[0, 0] = var[0]
    for i, node in enumerate(order[1:], start=1):
        p = pos[tree.parent[node]]
        H[i, :i] = H[:i, i] = H[p, :i]
        H[i, i] = H[p, p] + var[node - 1]
    idx = np.argsort(order)
    return H[np.ix_(idx, idx)]


def tree_laplacian(tree: TaskTree) -> np.ndarray:
    """Regularized graph Laplacian ``L = D + R - M`` of a task tree.

    Edges run from each child to its parent with weight equal to the child's
    precision; the root's precision enters through the regularizer ``R``.
    ``L`` is the exact inverse of :func:`tree_task_kernel`'s Gram matrix.
    """
    M, R = _tree_laplacian_parts(tree)
    return np.diag(M.sum(axis=1)) + R - M


def _tree_laplacian_parts(tree: TaskTree) -> tuple[np.ndarray, np.ndarray]:
    """The (M, R) pair of :meth:`Laplacian.from_tree`."""
    k = tree.k
    # adjacency with rows indexed by child: A[l-1, pa(l)-1] = 1
    A = np.zeros((k, k))
    for child, pa in tree.parent.items():
        A[child - 1, pa - 1] = 1.0
    B = np.diag([0.0] + [1.0 / s**2 for s in tree.sigma[1:]])
    BA = B @ A
    M = BA + BA.T
    R = np.zeros((k, k))
    R[0, 0] = 1.0 / tree.sigma[0] ** 2
    return M, R


def laplacian_task_kernel_from_parts(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Pseudoinverse of ``D + R - M`` via symmetric eigendecomposition.

    Eigenvalues below ``1e-12 * max(eigenvalue)`` are treated as zero.  For a
    tree-derived (M, R) the Laplacian is invertible, so the pseudoinverse is
    the plain inverse.
    """
    M = np.asarray(M, dtype=float)
    R = np.asarray(R, dtype=float)
    D = np.diag(M.sum(axis=1))
    L = D + R - M
    evals, evecs = np.linalg.eigh(L)
    cutoff = _eig_cutoff(evals)
    inv = np.where(evals > cutoff, 1.0 / np.where(evals > cutoff, evals, 1.0), 0.0)
    return (evecs * inv) @ evecs.T


def _eig_cutoff(evals: np.ndarray) -> float:
    """Eigenvalues at or below this are zero: 1e-12 of the largest positive one."""
    return 1e-12 * max(evals.max(), 0.0)


def laplacian_task_kernel(tree: TaskTree) -> np.ndarray:
    """Task covariance obtained from the graph-Laplacian construction.

    Equals :func:`tree_task_kernel` for every valid tree; kept as an
    independent route for verification.
    """
    return laplacian_task_kernel_from_parts(*_tree_laplacian_parts(tree))


# ---------------------------------------------------------------------------
# (de)serialization of kernel specs, used by the experiment config format
# ---------------------------------------------------------------------------


def _kernel_to_dict(kernel) -> dict:
    if isinstance(kernel, Linear):
        return {"type": "linear"}
    if isinstance(kernel, Matern):
        ls = kernel.lengthscale
        return {
            "type": "matern",
            "nu": kernel.nu,
            "lengthscale": list(ls) if isinstance(ls, tuple) else ls,
            "amplitude": kernel.amplitude,
        }
    if isinstance(kernel, Constant):
        return {"type": "constant", "value": kernel.value}
    if isinstance(kernel, Tree):
        return {
            "type": "tree",
            "parent": {str(c): p for c, p in sorted(kernel.tree.parent.items())},
            "sigma": list(kernel.tree.sigma),
        }
    if isinstance(kernel, Laplacian):
        return {"type": "laplacian", "M": kernel.M.tolist(), "R": kernel.R.tolist()}
    if isinstance(kernel, FixedGram):
        return {"type": "fixed_gram", "gram": kernel.gram.tolist()}
    raise TypeError(f"cannot serialize kernel {kernel!r}")


def kernel_from_dict(d: Mapping, *, task: bool = False) -> InstanceKernel | TaskKernel:
    """Parse one kernel dict as written by :func:`spec_to_dict`.

    With ``task=True`` a kernel that is not a task kernel raises ``ValueError``.
    """
    kernel = _parse_kernel(d)
    if task and not isinstance(kernel, _TASK_KINDS):
        raise ValueError(_TASK_KINDS_MESSAGE)
    return kernel


def _key(d: Mapping, kind: str, key: str, types: tuple, want: str):
    """``d[key]``, or ``ValueError`` naming the kernel type and key if missing or not ``types``."""
    if key not in d:
        raise ValueError(f"{kind} kernel needs the key {key!r}")
    if not isinstance(d[key], types):
        raise ValueError(f"{kind} kernel key {key!r} must be {want}, got {d[key]!r}")
    return d[key]


def _number(kind: str, key: str, v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValueError(f"{kind} kernel key {key!r} must be a number, got {v!r}") from None


def _tree_from_dict(d: Mapping, kind: str) -> TaskTree:
    parent = _key(d, kind, "parent", (Mapping,), "a mapping from child node to parent node")
    sigma = _key(d, kind, "sigma", (list, tuple), "a list of per-node standard deviations")
    try:
        parent = {int(c): int(p) for c, p in parent.items()}
    except (TypeError, ValueError):
        raise ValueError(
            f"{kind} kernel key 'parent' must map node ids to node ids, got {parent!r}"
        ) from None
    return TaskTree(parent=parent, sigma=tuple(_number(kind, "sigma", s) for s in sigma))


def _matrix_from_dict(d: Mapping, kind: str, key: str) -> np.ndarray:
    rows = _key(d, kind, key, (list, tuple, np.ndarray), "a list of rows")
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            f"{kind} kernel key {key!r} must be rows of numbers, got {rows!r}"
        ) from None


def _parse_kernel(d: Mapping) -> InstanceKernel | TaskKernel:
    if not isinstance(d, Mapping) or "type" not in d:
        raise ValueError(f"a kernel must be a mapping with a 'type' key, got {d!r}")
    kind = d["type"]
    if kind == "linear":
        return Linear()
    if kind == "matern":
        ls = d.get("lengthscale", 1.0)
        if isinstance(ls, (list, tuple)):
            ls = tuple(_number(kind, "lengthscale", v) for v in ls)
        else:
            ls = _number(kind, "lengthscale", ls)
        return Matern(
            nu=_number(kind, "nu", d.get("nu", 1.5)),
            lengthscale=ls,
            amplitude=_number(kind, "amplitude", d.get("amplitude", 1.0)),
        )
    if kind == "constant":
        return Constant(value=_number(kind, "value", d.get("value", 1.0)))
    if kind == "tree":
        return Tree(tree=_tree_from_dict(d, kind))
    if kind == "laplacian":
        if "parent" in d:
            return Laplacian.from_tree(_tree_from_dict(d, kind))
        return Laplacian(M=_matrix_from_dict(d, kind, "M"), R=_matrix_from_dict(d, kind, "R"))
    if kind == "fixed_gram":
        return FixedGram(gram=_matrix_from_dict(d, kind, "gram"))
    raise ValueError(f"unknown kernel type {kind!r}")


def spec_to_dict(spec: KernelSpec) -> dict:
    """JSON-friendly representation of a :class:`KernelSpec`."""
    return {
        "instance_kernel": _kernel_to_dict(spec.instance_kernel),
        "task_kernel": _kernel_to_dict(spec.task_kernel),
    }


def spec_from_dict(d: Mapping) -> KernelSpec:
    """Inverse of :func:`spec_to_dict`."""
    if not isinstance(d, Mapping):
        raise ValueError(f"a kernel spec must be a mapping, got {d!r}")
    parsed = {}
    for key in ("instance_kernel", "task_kernel"):
        if key not in d:
            raise ValueError(f"kernel spec needs the key {key!r}")
        try:
            parsed[key] = kernel_from_dict(d[key])
        except ValueError as exc:
            raise ValueError(f"kernel spec key {key!r}: {exc}") from exc
    return KernelSpec(**parsed)
