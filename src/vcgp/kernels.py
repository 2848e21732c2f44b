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
descriptor maps to), built on first use: O(k^2) for a tree, O(k^3) for a
Laplacian.  Gram assembly and prediction then only index it.  Its PSD
factor ``G = C C^T`` (``factor`` on the kernel, O(k^3) by ``eigh``) is
computed on first use and held as well.  A tree, and a Laplacian over a
suitable forest, also hold their sparse precision as a :class:`TaskForest`
(``precision``), in O(k).

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
    "TaskForest",
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
    "check_tasks",
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


def as_task_array(t, *, discrete: bool | None = None) -> np.ndarray:
    """Normalize task descriptors to the internal array form.

    Continuous tasks become a float array of shape ``(n, d)`` from one of
    shape ``(n, d)`` or ``(n,)``; discrete tasks an int array of shape
    ``(n,)`` with 1-based ids.  ``discrete`` picks the variant, inferred
    when None (a 1-d integer array is ids).  Discrete ids that are not
    integral numbers or are below 1, and coordinates that are not finite,
    raise ``ValueError``.
    """
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
    conditional (the root's marginal for l=1).  Every sigma lies in
    ``SIGMA_RANGE`` = [1e-75, 1e50], where the tree's Gram, its precision
    and the tree route's products of them (up to 1/sigma^4 and sigma^6) stay
    finite and positive.
    """

    SIGMA_RANGE = (1e-75, 1e50)

    parent: Mapping[int, int]
    sigma: tuple[float, ...]

    def __post_init__(self):
        sigma = tuple(float(s) for s in np.atleast_1d(np.asarray(self.sigma, dtype=float)))
        object.__setattr__(self, "sigma", sigma)
        k = len(sigma)
        if k < 1:
            raise ValueError("tree needs at least one node")
        low, high = self.SIGMA_RANGE
        for node, s in enumerate(sigma, start=1):
            if not low <= s <= high:
                raise ValueError(f"sigma of node {node} is {s:g}; it must lie in [{low:g}, {high:g}]")
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
        if not 0.0 < float(self.amplitude) < math.inf:
            raise ValueError("amplitude must be positive and finite")
        object.__setattr__(self, "amplitude", float(self.amplitude))

    @property
    def ard(self) -> bool:
        return isinstance(self.lengthscale, tuple)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _lower_mirrored(A: np.ndarray) -> np.ndarray:
    """A read-only copy of A's lower triangle, mirrored: one matrix whichever triangle a route reads."""
    return _freeze(np.where(np.tri(A.shape[0], dtype=bool), A, A.T))


class _HeldGram:
    """A task kernel given by a k x k Gram over tasks, held in ``gram``, and its factor.

    The constant kernel is the one-task case; the tree, Laplacian and
    explicit-Gram kernels take task ids 1..k.  :meth:`rows` maps task
    descriptors to Gram rows, so every use of the kernel only indexes.
    """

    # the task precision as a TaskForest, where the kernel has one
    precision = None

    @property
    def k(self) -> int:
        return self.gram.shape[0]

    def rows(self, T) -> np.ndarray:
        """The 0-based Gram row of each task id in T; ``ValueError`` for an id outside 1..k."""
        return self._index(check_tasks(self, T))

    def _index(self, T: np.ndarray) -> np.ndarray:
        """:meth:`rows` of task ids that :func:`check_tasks` has passed."""
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


@dataclass(frozen=True, eq=False)
class TaskForest:
    """The precision ``Q`` of a tree or forest task kernel, ordered for leaves-first elimination.

    ``Q = diag(reg) + sum_t w_t (e_t - e_parent)(e_t - e_parent)^T``: node t
    has a regularizer ``reg[t] >= 0`` and an edge to its parent of weight
    ``w_t = weight[t] = -Q[t, parent] > 0``.  ``levels`` holds each depth's
    nodes and their parents, deepest first, where a root's parent is ``k``:
    a dummy row that arrays of k + 1 rows carry, reached through a weight of
    0.  Eliminating a matrix of this pattern in that order creates no
    fill-in (Rue & Held 2005).  ``pivot`` holds the scalar pivots of that
    elimination (:func:`_task_forest`) and ``logdet`` is ``log|Q|``.
    """

    reg: np.ndarray
    weight: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    pivot: np.ndarray
    logdet: float

    @property
    def k(self) -> int:
        return self.reg.shape[0]


def _task_forest(neighbours: list, reg: np.ndarray, weight) -> TaskForest | None:
    """The :class:`TaskForest` of a graph over nodes 0..k-1; None unless its structure makes Q definite.

    Each component is rooted at its lowest node.  ``reg`` holds the nodes'
    regularizers and ``weight(children, parents)`` their edges' weights.
    The structure: a forest, every weight positive, every regularizer
    non-negative and a positive one in each component.  Leaves first, node
    t's excess is ``E_t = reg_t + sum_c w_c E_c / D_c`` over its children c
    and its pivot ``D_t = E_t + w_t``: the usual ``D_t`` (as
    ``w_c - w_c^2 / D_c = w_c E_c / D_c``), but summing no negative term.
    """
    k = len(neighbours)
    parent, depth, seen = [k] * k, [0] * k, [False] * k
    for root in range(k):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for node in queue:
            for nb in neighbours[node]:
                if nb == parent[node]:
                    continue
                if seen[nb]:
                    return None  # a second path to nb: a cycle
                seen[nb], parent[nb], depth[nb] = True, node, depth[node] + 1
                queue.append(nb)
        if not np.any(reg[queue] > 0):
            return None  # a component that no regularizer reaches: Q is singular
    nodes = np.arange(k)
    parent, depth = np.array(parent), np.array(depth)
    child = parent < k
    w = np.zeros(k)
    w[child] = weight(nodes[child], parent[child])
    if not (np.all(w[child] > 0) and np.all(reg >= 0)):
        return None
    by_depth = np.argsort(-depth, kind="stable")
    starts = np.flatnonzero(np.diff(depth[by_depth]))
    levels = tuple((lv, parent[lv]) for lv in np.split(by_depth, starts + 1))
    excess, pivot = np.append(reg, 0.0), np.empty(k)
    for lv, par in levels:  # a level's excesses are final once the deeper levels are eliminated
        pivot[lv] = excess[lv] + w[lv]
        np.add.at(excess, par, w[lv] * excess[lv] / pivot[lv])
    return TaskForest(reg, w, levels, pivot, float(np.sum(np.log(pivot))))


@dataclass(frozen=True)
class Tree(_HeldGram):
    """Task kernel over discrete tasks given by a tree-structured hierarchy.

    The Gram matrix is the covariance of the hierarchical generative process
    in which each node's coefficient vector is Gaussian around its parent's:
    entry (t, t') accumulates the variances along the shared ancestry of t
    and t' (see :func:`tree_task_kernel`).  It is computed on first use and
    held read-only in ``gram``.  Its inverse, the tree Laplacian
    (:func:`tree_laplacian`), has k - 1 edges and is held as ``precision``:
    a linear instance kernel's exact fits work on it alone
    (:class:`gp_core.TreePrecision`) and never build the Gram.
    """

    tree: TaskTree

    @property
    def k(self) -> int:
        return self.tree.k

    @cached_property
    def gram(self) -> np.ndarray:
        return _freeze(tree_task_kernel(self.tree))

    @cached_property
    def precision(self) -> TaskForest:
        """``tree_laplacian(tree)``: root 1 regularized by 1/sigma_1^2, edge weights 1/sigma_l^2."""
        tree = self.tree
        neighbours = [[] for _ in range(tree.k)]
        for child, pa in tree.parent.items():
            neighbours[child - 1].append(pa - 1)
            neighbours[pa - 1].append(child - 1)
        inv_var = 1.0 / np.asarray(tree.sigma) ** 2
        reg = np.zeros(tree.k)
        reg[0] = inv_var[0]
        return _task_forest(neighbours, reg, lambda child, parent: inv_var[child])


@dataclass(frozen=True)
class Laplacian(_HeldGram):
    """Task kernel given by the pseudoinverse of a regularized graph Laplacian.

    ``M`` is a symmetric weighted adjacency matrix over tasks and ``R`` a
    diagonal regularizer, held as M's lower triangle mirrored and R's
    diagonal; the Gram matrix is ``pinv(D + R - M)`` with ``D``
    the weighted degree matrix, computed on first use and held read-only in
    ``gram``.  :meth:`from_tree` builds the (M, R) pair whose kernel equals
    the tree-structured task covariance.  When M's edges form a forest with
    positive weights, R >= 0 and each component has a node with R > 0,
    ``D + R - M`` is the Gram's inverse and is held as ``precision`` too.
    """

    M: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("M must be square")
        if not (np.isfinite(M).all() and np.isfinite(R).all()):
            raise ValueError("M and R must be finite")
        if not np.allclose(M, M.T):
            raise ValueError("M must be symmetric")
        if R.shape != M.shape or not np.allclose(R, np.diag(np.diag(R))):
            raise ValueError("R must be diagonal and match M's shape")
        object.__setattr__(self, "M", _lower_mirrored(M))
        object.__setattr__(self, "R", _freeze(np.diag(np.diag(R))))

    @classmethod
    def from_tree(cls, tree: TaskTree) -> "Laplacian":
        return cls(*_tree_laplacian_parts(tree))

    @property
    def k(self) -> int:
        return self.M.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        return _freeze(laplacian_task_kernel_from_parts(self.M, self.R))

    @cached_property
    def precision(self) -> TaskForest | None:
        """``D + R - M`` when its structure makes it definite (:func:`_task_forest`); else None."""
        off = self.M - np.diag(np.diag(self.M))  # self-loops cancel in D - M
        neighbours = [list(np.flatnonzero(row)) for row in off]
        return _task_forest(neighbours, np.diag(self.R).copy(), lambda c, p: off[c, p])


@dataclass(frozen=True)
class FixedGram(_HeldGram):
    """Task kernel over discrete tasks given by an explicit PSD Gram matrix.

    The Gram is held as its lower triangle mirrored, so every route reads
    one symmetric matrix.
    """

    gram: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("gram must be square")
        if not np.isfinite(G).all():
            raise ValueError("gram must be finite")
        if not np.allclose(G, G.T):
            raise ValueError("gram must be symmetric")
        object.__setattr__(self, "gram", _lower_mirrored(G))


@dataclass(frozen=True)
class Constant(_HeldGram):
    """Constant task kernel ``k(t, t') = value`` (default 1).

    The Gram of one task, ``[[value]]``, shared by every task descriptor of
    either variant: one coefficient vector for all points.
    """

    value: float = 1.0
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < float(self.value) < math.inf:
            raise ValueError("constant kernel value must be positive and finite")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "gram", _freeze(np.array([[self.value]])))

    def _index(self, T: np.ndarray) -> np.ndarray:
        return np.zeros(T.shape[0], dtype=int)


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
    Z1: np.ndarray, Z2: np.ndarray, kernel: Matern, out: np.ndarray | None = None,
    dist: np.ndarray | None = None,
) -> np.ndarray:
    """Distances between the rows of Z1 and Z2 in lengthscale units, in ``out`` or a new array.

    The one place a Matern distance is computed.  An isotropic kernel's is
    ``cdist(Z1, Z2) / l``, dividing ``dist`` when the caller holds that
    ``cdist``, so a held and a fresh distance agree bit for bit; an ARD
    kernel's is ``cdist(Z1 / l, Z2 / l)`` and ignores ``dist``.
    """
    ls = np.atleast_1d(np.asarray(kernel.lengthscale, dtype=float))
    if ls.size not in (1, Z1.shape[1]):
        raise ValueError(
            f"lengthscale has {ls.size} entries but points have {Z1.shape[1]} dimensions"
        )
    if kernel.ard:
        return cdist(Z1 / ls, Z2 / ls, out=out)
    if dist is None:
        dist = out = cdist(Z1, Z2, out=out)
    return np.divide(dist, kernel.lengthscale, out=out)


def _matern_gram(kernel: Matern, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    K = _scaled_dist(Z1, Z2, kernel)  # cdist's new array: the profile overwrites it
    _matern_shape(K, kernel.nu, K)
    K *= kernel.amplitude**2
    return K


def matern_gram_grads(
    kernel: Matern, Z: np.ndarray, buffer=None, dist: np.ndarray | None = None
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
    The distances come from :func:`_scaled_dist`: an isotropic kernel's
    divide ``dist``, the caller's held ``cdist(Z, Z)``, by the lengthscale
    (computing that ``cdist`` when ``dist`` is None), and an ARD kernel's
    are computed over the scaled points every call.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if buffer is None:
        def buffer(role):
            return np.empty((n, n))
    K, S = buffer("K"), buffer("slope")
    grads = [buffer(f"grad{d}") for d in range(len(kernel.lengthscale) if kernel.ard else 1)]
    u = grads[0]  # the distances, until the derivatives overwrite them
    _scaled_dist(Z, Z, kernel, out=u, dist=dist)
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


def check_tasks(kernel: TaskKernel, T, discrete: bool | None = None) -> np.ndarray:
    """T normalized by :func:`as_task_array`, with ids checked against the kernel's 1..k.

    ``discrete`` is the variant; when None, a Matern kernel takes
    coordinates, the constant kernel either and the others task ids.  Once
    T has passed, the Gram functions whose names start with ``_`` take it
    as it is: prediction checks its test tasks here once.
    """
    if discrete is None and not isinstance(kernel, Constant):
        discrete = not isinstance(kernel, Matern)
    T = as_task_array(T, discrete=discrete)
    if T.ndim == 1 and T.size and not isinstance(kernel, (Matern, Constant)) and T.max() > kernel.k:
        raise ValueError(f"task ids must lie in 1..{kernel.k}")  # as_task_array rejected ids below 1
    return T


def task_gram(kernel: TaskKernel, T1, T2) -> np.ndarray:
    """Task-kernel Gram matrix between two sets of task descriptors."""
    if not isinstance(kernel, (Matern, _HeldGram)):
        raise TypeError(f"not a task kernel: {kernel!r}")
    return _task_gram(kernel, check_tasks(kernel, T1), check_tasks(kernel, T2))


def _task_gram(kernel: TaskKernel, T1: np.ndarray, T2: np.ndarray) -> np.ndarray:
    """:func:`task_gram` of tasks that :func:`check_tasks` has passed."""
    if not isinstance(kernel, Matern):
        return kernel.gram[kernel._index(T1)][:, kernel._index(T2)]
    T1, T2 = (T.reshape(T.shape[0], -1) for T in (T1, T2))  # a task id is one coordinate
    if T1.shape[1] != T2.shape[1]:
        raise ValueError("task coordinate dimensions differ")
    return _matern_gram(kernel, T1, T2)


def product_kernel_matrix(X1, T1, X2, T2, spec: KernelSpec) -> np.ndarray:
    """Entrywise product of the instance Gram and the task Gram.

    Entry (i, j) is ``k_X(x1_i, x2_j) * k_T(t1_i, t2_j)``.  When the two
    point sets coincide the result is symmetric PSD.
    """
    return _times(instance_gram(spec.instance_kernel, X1, X2), task_gram(spec.task_kernel, T1, T2))


def _product_gram(X1, T1: np.ndarray, X2, T2: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """:func:`product_kernel_matrix` of tasks that :func:`check_tasks` has passed."""
    return _times(instance_gram(spec.instance_kernel, X1, X2), _task_gram(spec.task_kernel, T1, T2))


def _times(KX: np.ndarray, KT: np.ndarray) -> np.ndarray:
    """``KX * KT`` in ``KX``, a fresh instance Gram, so no n x n temporary."""
    if KX.shape != KT.shape:
        raise ValueError(
            f"instance rows and task rows disagree: {KX.shape} vs {KT.shape}"
        )
    KX *= KT
    return KX


def product_kernel_diag(X, T, spec: KernelSpec) -> np.ndarray:
    """Diagonal of the product-kernel Gram of a point set with itself."""
    return _product_diag(X, check_tasks(spec.task_kernel, T), spec)


def _product_diag(X, T: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """:func:`product_kernel_diag` of tasks that :func:`check_tasks` has passed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(spec.instance_kernel, Linear):
        dx = np.einsum("ij,ij->i", X, X)
    else:
        dx = np.full(X.shape[0], spec.instance_kernel.amplitude**2)
    tk = spec.task_kernel
    if isinstance(tk, Matern):
        dt = np.full(T.shape[0], tk.amplitude**2)
    else:
        dt = np.diagonal(tk.gram)[tk._index(T)]
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
    BA = np.array([0.0] + [1.0 / s**2 for s in tree.sigma[1:]])[:, None] * A
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
    evals, evecs = np.linalg.eigh(np.diag(M.sum(axis=1)) + R - M)
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
