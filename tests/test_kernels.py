import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from vcgp import kernels
from vcgp._linalg import NumericalError
from vcgp.gp_core import Dataset, fit_regressor
from vcgp.kernels import (
    Constant,
    FixedGram,
    KernelSpec,
    Laplacian,
    Linear,
    Matern,
    TaskTree,
    Tree,
    as_task_array,
    instance_gram,
    kernel_from_dict,
    laplacian_task_kernel,
    matern,
    matern_gram_grads,
    product_kernel_diag,
    product_kernel_matrix,
    spec_from_dict,
    spec_to_dict,
    task_gram,
    tree_laplacian,
    tree_task_kernel,
)
from vcgp.multitask_hb import random_tree, sample_hb_batch


class TestMatern:
    def test_zero_distance_equals_amplitude_squared(self):
        assert matern(0.0, nu=1.5, lengthscale=1.0, amplitude=1.0) == 1.0
        assert matern(0.0, nu=2.5, lengthscale=0.3, amplitude=2.0) == pytest.approx(4.0)

    def test_closed_form_nu_half(self):
        # m_{1/2}(u) = exp(-u); at r=1, l=1, s=1 the value is e^{-1}
        assert matern(1.0, nu=0.5) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert matern(1.0, nu=0.5) == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_closed_form_nu_three_halves(self):
        # m_{3/2}(u) = (1 + sqrt(3) u) exp(-sqrt(3) u); at r=2, l=1, s=1
        expected = (1.0 + 2.0 * math.sqrt(3.0)) * math.exp(-2.0 * math.sqrt(3.0))
        assert matern(2.0, nu=1.5) == pytest.approx(expected, abs=1e-15)
        assert matern(2.0, nu=1.5) == pytest.approx(0.13973135019231467, abs=1e-12)

    def test_closed_form_nu_five_halves(self):
        u = 1.7
        expected = (1 + math.sqrt(5) * u + 5 * u**2 / 3) * math.exp(-math.sqrt(5) * u)
        assert matern(u, nu=2.5) == pytest.approx(expected, abs=1e-15)

    def test_range(self):
        r = np.linspace(0, 50, 200)
        for nu in (0.5, 1.5, 2.5):
            v = matern(r, nu=nu, lengthscale=0.7, amplitude=1.3)
            assert np.all(v > 0)
            assert np.all(v <= 1.3**2 + 1e-15)

    def test_strictly_decreasing(self):
        r = np.linspace(0.0, 20.0, 500)
        for nu in (0.5, 1.5, 2.5):
            v = matern(r, nu=nu, lengthscale=1.3, amplitude=0.8)
            assert np.all(np.diff(v) < 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            matern(-0.1)
        with pytest.raises(ValueError):
            matern(np.inf)
        with pytest.raises(ValueError):
            matern(np.nan)
        with pytest.raises(ValueError):
            matern(1.0, nu=1.0)
        with pytest.raises(ValueError):
            matern(1.0, lengthscale=0.0)
        with pytest.raises(ValueError):
            matern(1.0, amplitude=-1.0)

    @pytest.mark.parametrize("lengthscale", ["isotropic", "ard"])
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_scaled_dist_is_cdist_bit_for_bit_in_its_layout(self, m, lengthscale):
        # a single point on either side, its cdist taken in the other
        # orientation, changes no bit and no stride; a one-entry ARD
        # lengthscale is isotropic
        rng = np.random.default_rng(m)
        ls = rng.uniform(0.3, 2.0, m)
        kernel = Matern(lengthscale=tuple(ls) if lengthscale == "ard" else 0.7)
        for rows1 in (1, 7, 300):
            for rows2 in (1, 7, 300):
                Z1, Z2 = rng.standard_normal((rows1, m)), rng.standard_normal((rows2, m))
                want = cdist(Z1 / ls, Z2 / ls) if kernel.ard else cdist(Z1, Z2) / kernel.lengthscale
                got = kernels._scaled_dist(Z1, Z2, kernel)
                assert got.flags.c_contiguous and got.strides == want.strides
                assert np.array_equal(got, want), (rows1, rows2)

    @pytest.mark.parametrize("nu, bound", [(0.5, 1.1), (1.5, 2.1), (2.5, 3.1)])
    def test_gram_peak_memory_in_gram_arrays(self, nu, bound):
        # the profile is written over the distances: nu = 1/2 needs no array
        # besides the Gram, 3/2 one for the exp, 5/2 two (the exp and the square)
        Z = np.random.default_rng(6).standard_normal((300, 2))
        kernel = Matern(nu=nu, lengthscale=0.7, amplitude=1.3)
        tracemalloc.start()
        try:
            K = instance_gram(kernel, Z, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * K.nbytes, peak / K.nbytes


class TestProductKernel:
    def test_linear_times_scalar_task(self):
        # x_i = (1,2), x_j = (3,4): inner product 11, task kernel 0.5 -> 5.5
        G = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(G))
        K = product_kernel_matrix([[1.0, 2.0]], [1], [[3.0, 4.0]], [2], spec)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(5.5)

    def test_zero_task_kernel_annihilates(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(G))
        K = product_kernel_matrix([[5.0, -3.0]], [1], [[100.0, 7.0]], [2], spec)
        assert K[0, 0] == 0.0

    def test_psd_by_eigendecomposition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        T = rng.uniform(0, 1, size=(6, 2))
        spec = KernelSpec(
            instance_kernel=Matern(nu=1.5, lengthscale=1.2),
            task_kernel=Matern(nu=2.5, lengthscale=0.4),
        )
        K = product_kernel_matrix(X, T, X, T, spec)
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-10

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((15, 2))
        T = rng.uniform(0, 1, size=(15, 1))
        for spec in [
            KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5)),
            KernelSpec(instance_kernel=Matern(), task_kernel=Constant(1.0)),
        ]:
            K = product_kernel_matrix(X, T, X, T, spec)
            assert np.array_equal(K, K.T)

    def test_hadamard_product_structure(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 3))
        T = rng.uniform(0, 1, size=(10, 2))
        spec = KernelSpec(
            instance_kernel=Matern(nu=0.5, lengthscale=2.0, amplitude=1.5),
            task_kernel=Matern(nu=1.5, lengthscale=0.3, amplitude=0.7),
        )
        K = product_kernel_matrix(X, T, X, T, spec)
        KX = instance_gram(spec.instance_kernel, X, X)
        KT = task_gram(spec.task_kernel, T, T)
        np.testing.assert_allclose(K, KX * KT, atol=1e-12)

    def test_psd_random_battery(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 51))
            X = rng.standard_normal((n, 2))
            T = rng.uniform(0, 1, size=(n, 1))
            spec = KernelSpec(
                instance_kernel=Matern(nu=2.5, lengthscale=float(rng.uniform(0.5, 3))),
                task_kernel=Matern(nu=0.5, lengthscale=float(rng.uniform(0.1, 2))),
            )
            K = product_kernel_matrix(X, T, X, T, spec)
            assert np.min(np.linalg.eigvalsh(K + 1e-10 * np.eye(n))) >= 0

    def test_dimension_mismatch(self):
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Constant())
        with pytest.raises(ValueError):
            product_kernel_matrix([[1.0, 2.0]], [[0.0]], [[1.0]], [[0.0]], spec)


class TestTaskTree:
    def test_single_node(self):
        tree = TaskTree(parent={}, sigma=(2.0,))
        np.testing.assert_allclose(tree_task_kernel(tree), [[4.0]])

    def test_chain_two_nodes(self):
        # generative covariance: Var(w1)=1, Var(w2)=2, Cov=1
        tree = TaskTree(parent={2: 1}, sigma=(1.0, 1.0))
        np.testing.assert_allclose(tree_task_kernel(tree), [[1.0, 1.0], [1.0, 2.0]])

    def test_star_tree(self):
        tree = TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 0.5, 2.0))
        G = tree_task_kernel(tree)
        # siblings share only the root's variance
        assert G[1, 2] == pytest.approx(1.0)
        assert G[1, 1] == pytest.approx(1.25)
        assert G[2, 2] == pytest.approx(5.0)

    def test_matches_sampler_covariance(self):
        rng = np.random.default_rng(7)
        tree = random_tree(8, rng, sigma_low=0.5, sigma_high=1.5)
        G = tree_task_kernel(tree)
        n = 200_000
        W = sample_hb_batch(tree, 1, n, seed=11)[:, :, 0]
        emp = W.T @ W / n
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G**2) / n)
        assert np.max(np.abs(emp - G) / se) < 4.0

    def test_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            tree = random_tree(int(rng.integers(1, 30)), rng)
            np.linalg.cholesky(tree_task_kernel(tree))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskTree(parent={2: 3, 3: 2}, sigma=(1.0, 1.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskTree(parent={2: 1}, sigma=(1.0, -1.0))
        with pytest.raises(ValueError):
            TaskTree(parent={3: 1}, sigma=(1.0, 1.0))
        with pytest.raises(ValueError):
            TaskTree(parent={2: 5}, sigma=(1.0, 1.0))


def shared_ancestry_gram(tree: TaskTree) -> np.ndarray:
    """Reference tree Gram: entry (i, j) is the cumulative variance along i's
    root path up to the deepest node it shares with j's, pair by pair."""
    k = tree.k
    var = np.asarray(tree.sigma, dtype=float) ** 2
    paths = [tree.root_path(node) for node in range(1, k + 1)]
    cum = [np.cumsum([var[n - 1] for n in p]) for p in paths]
    G = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            depth = 0
            for a, b in zip(paths[i], paths[j]):
                if a != b:
                    break
                depth += 1
            G[i, j] = G[j, i] = cum[i][depth - 1]
    return G


@st.composite
def labelled_trees(draw, max_k=40, sigmas=st.floats(0.1, 10.0)):
    """Random trees whose node labels need not follow the tree's order."""
    k = draw(st.integers(1, max_k))
    order = [1] + draw(st.permutations(range(2, k + 1)))
    parent = {order[i]: order[draw(st.integers(0, i - 1))] for i in range(1, k)}
    sigma = draw(st.lists(sigmas, min_size=k, max_size=k))
    return TaskTree(parent=parent, sigma=tuple(sigma))


class TestDiscreteGramAtConstruction:
    @given(labelled_trees())
    def test_tree_gram_matches_reference_and_laplacian(self, tree):
        G = Tree(tree=tree).gram
        assert G.tobytes() == shared_ancestry_gram(tree).tobytes()
        assert G.tobytes() == tree_task_kernel(tree).tobytes()
        Linv = laplacian_task_kernel(tree)
        assert np.max(np.abs(Linv - G)) / np.max(np.abs(G)) < 1e-8

    def test_matrices_are_held_as_their_lower_triangle_mirrored(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((5, 5))
        G = A @ A.T
        G = (G + G.T) / 2  # exactly symmetric: held bit for bit
        assert FixedGram(G).gram.tobytes() == G.tobytes()
        lap = Laplacian.from_tree(random_tree(5, rng))
        assert Laplacian(lap.M, lap.R).M.tobytes() == lap.M.tobytes()
        off = G.copy()
        off[1, 3] *= 1 + 1e-9  # symmetric to allclose
        R = np.diag(np.diag(lap.R)) + 1e-12 * np.ones((5, 5))  # diagonal to allclose
        for held in (FixedGram(off).gram, Laplacian(off, R).M):
            assert (held == held.T).all() and (np.tril(held) == np.tril(off)).all()
        assert (Laplacian(off, R).R == np.diag(np.diag(R))).all()

    def test_gram_read_only_and_outside_repr_and_equality(self):
        tree = TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 0.5, 2.0))
        for kernel in (Tree(tree=tree), Laplacian.from_tree(tree), Constant(2.0)):
            assert not kernel.gram.flags.writeable
            assert "gram" not in repr(kernel)
        assert Tree(tree=tree) == Tree(tree=tree)
        assert Constant(2.0) == Constant(2.0) != Constant(3.0)
        assert repr(Constant(2.0)) == "Constant(value=2.0)"
        assert np.array_equal(Constant(2.0).gram, [[2.0]])

    @pytest.mark.parametrize("kind", ["tree", "laplacian"])
    def test_single_point_predict_builds_no_gram(self, kind, monkeypatch):
        rng = np.random.default_rng(3)
        tree = random_tree(30, rng)
        task = Tree(tree=tree) if kind == "tree" else Laplacian.from_tree(tree)
        data = Dataset(
            X=rng.standard_normal((60, 2)), T=rng.integers(1, 31, size=60),
            y=rng.standard_normal(60),
        )
        model = fit_regressor(data, KernelSpec(instance_kernel=Linear(), task_kernel=task), 0.1)
        builds = []
        for name in ("tree_task_kernel", "laplacian_task_kernel_from_parts"):
            def counting(*args, _name=name, _build=getattr(kernels, name)):
                builds.append(_name)
                return _build(*args)

            monkeypatch.setattr(kernels, name, counting)
        for t in (1, 7, 30):
            model.predict(rng.standard_normal(2), t)
        assert builds == []


def dense_precision(forest):
    """The k x k ``Q`` a TaskForest holds: its regularizer and a Laplacian term for each edge."""
    Q = np.diag(forest.reg)
    for nodes, parents in forest.levels:
        child = parents < forest.k
        t, p, w = nodes[child], parents[child], forest.weight[nodes[child]]
        np.add.at(Q, (t, t), w)
        np.add.at(Q, (p, p), w)
        Q[t, p] = Q[p, t] = -w
    return Q


class TestTaskForest:
    @given(labelled_trees())
    def test_tree_and_its_laplacian_hold_the_tree_laplacian(self, tree):
        L = tree_laplacian(tree)
        task, lap = Tree(tree=tree), Laplacian.from_tree(tree)
        for kernel in (task, lap):
            forest = kernel.precision
            np.testing.assert_allclose(dense_precision(forest), L, rtol=1e-14, atol=0)
            # |L| is the product of the nodes' 1/sigma^2 (slogdet of L itself is off by 1e-12)
            assert forest.logdet == pytest.approx(-2 * math.fsum(map(math.log, tree.sigma)),
                                                  rel=1e-12, abs=1e-12)
            assert len(forest.levels[-1][0]) == 1  # one root, eliminated last
        rng = np.random.default_rng(tree.k)
        data = Dataset(X=rng.standard_normal((10, 2)), T=rng.integers(1, tree.k + 1, size=10),
                       y=rng.standard_normal(10))
        fit_regressor(data, KernelSpec(Linear(), lap), 0.1)
        # neither precision needs its Gram, nor does a fit on it
        assert "gram" not in vars(task) and "gram" not in vars(lap)

    def test_kernels_without_a_usable_forest(self):
        tree = TaskTree(parent={2: 1, 3: 2}, sigma=(1.0, 2.0, 0.5))
        lap = Laplacian.from_tree(tree)
        assert Laplacian(lap.M, np.zeros((3, 3))).precision is None  # singular
        cycle = np.ones((3, 3)) - np.eye(3)
        assert Laplacian(cycle, np.eye(3)).precision is None
        assert FixedGram(np.eye(2)).precision is None and Constant().precision is None
        # a tree always has one: under children of precision 1e16 the root's
        # pivot is its regularizer, as the leaves' excess is 0
        forest = Tree(TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 1e-8, 1e-8))).precision
        assert forest.pivot[0] == 1.0  # 1/sigma^2 of the children rounds to 1e16 - 2
        assert forest.logdet == pytest.approx(math.log(1e32), rel=1e-15, abs=0)


def log_uniform(low, high):
    """Floats in [low, high], uniform in their logarithm."""
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: min(max(10.0**e, low), high))


def assert_linear_tree_fit_is_finite(tree, seed):
    """The tree has a precision, and a Linear x Tree regression on a few random points finite numbers."""
    assert Tree(tree).precision is not None
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 60)), int(rng.integers(1, 4))
    data = Dataset(X=rng.standard_normal((n, m)), T=rng.integers(1, tree.k + 1, size=n),
                   y=rng.standard_normal(n))
    model = fit_regressor(data, KernelSpec(Linear(), Tree(tree)), 0.1)
    mean, var = model.predict_batch(data.X, data.T)
    assert np.isfinite(model.log_marginal_likelihood())
    assert np.isfinite(mean).all() and np.isfinite(var).all()


class TestTreeSigmaRange:
    LOW, HIGH = TaskTree.SIGMA_RANGE

    @pytest.mark.parametrize("sigma, node", [((1e160, 1.0), 1), ((1e-160, 1.0), 1), ((1.0, 1e-160), 2)])
    def test_sigma_outside_the_range_is_rejected_naming_its_node(self, sigma, node):
        # 1e160 squared overflows and 1e-160's reciprocal square does: the
        # tree's Gram or its precision would not hold the tree
        with pytest.raises(ValueError, match=rf"sigma of node {node} is .*; it must lie in \[1e-75, 1e\+50\]"):
            TaskTree(parent={2: 1}, sigma=sigma)

    def test_the_range_ends_are_accepted(self):
        for sigma in ((self.LOW, self.HIGH), (self.HIGH, self.LOW)):
            assert Tree(TaskTree(parent={2: 1}, sigma=sigma)).precision is not None

    @given(labelled_trees(sigmas=log_uniform(TaskTree.SIGMA_RANGE[0], 1e6)), st.integers(0, 2**32 - 1))
    def test_linear_tree_fits_are_finite(self, tree, seed):
        # from the lower end up to 1e6: above it, a task with fewer points than
        # features leaves a posterior precision block of condition about
        # sigma^2 |x|^2 / tau2 that no longer factors in double precision
        assert_linear_tree_fit_is_finite(tree, seed)

    @given(labelled_trees(sigmas=log_uniform(*TaskTree.SIGMA_RANGE)), st.integers(0, 2**32 - 1))
    def test_linear_tree_fits_are_finite_or_fail_loudly(self, tree, seed):
        # over the whole range a fit either holds finite numbers or raises;
        # an overflow (a RuntimeWarning, an error under this suite) fails the test
        try:
            assert_linear_tree_fit_is_finite(tree, seed)
        except NumericalError:
            pass


class TestLaplacianKernel:
    def test_chain_closed_form(self):
        tree = TaskTree(parent={2: 1}, sigma=(1.0, 1.0))
        np.testing.assert_allclose(tree_laplacian(tree), [[2.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(
            laplacian_task_kernel(tree), [[1.0, 1.0], [1.0, 2.0]], atol=1e-12
        )

    def test_single_node(self):
        tree = TaskTree(parent={}, sigma=(0.5,))
        np.testing.assert_allclose(tree_laplacian(tree), [[4.0]])
        np.testing.assert_allclose(laplacian_task_kernel(tree), [[0.25]], atol=1e-14)

    def test_agrees_with_tree_kernel(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = int(rng.integers(1, 51))
            tree = random_tree(k, rng, sigma_low=0.1, sigma_high=10.0)
            G = tree_task_kernel(tree)
            Linv = laplacian_task_kernel(tree)
            assert np.max(np.abs(Linv - G)) / np.max(np.abs(G)) < 1e-8

    def test_from_tree_parts(self):
        tree = TaskTree(parent={2: 1, 3: 2}, sigma=(1.0, 2.0, 0.5))
        lap = Laplacian.from_tree(tree)
        # edge child->parent weighted by the child's precision
        assert lap.M[1, 0] == pytest.approx(0.25)
        assert lap.M[2, 1] == pytest.approx(4.0)
        assert lap.M[0, 1] == lap.M[1, 0]
        assert lap.R[0, 0] == pytest.approx(1.0)
        assert np.all(lap.R[1:, 1:] == 0)


class TestTaskFactor:
    def test_factors_reproduce_the_gram(self):
        rng = np.random.default_rng(12)
        tree = random_tree(30, rng)
        B = rng.standard_normal((6, 3))
        for kernel, rank in (
            (Tree(tree), 30),
            (Laplacian.from_tree(tree), 30),
            (FixedGram(B @ B.T), 3),  # a rank-3 Gram over 6 tasks
            (Constant(4.0), 1),  # the Gram of one task
        ):
            C = kernel.factor
            G = kernel.gram
            assert C.shape == (G.shape[0], rank)
            assert np.max(np.abs(C @ C.T - G)) < 1e-12 * np.max(np.abs(G))
            assert kernel.factor is C  # computed once per kernel

    def test_singular_laplacian_factor_has_its_own_rank(self):
        lap = Laplacian.from_tree(TaskTree(parent={2: 1, 3: 1, 4: 2}, sigma=(1.0, 0.5, 2.0, 0.7)))
        singular = Laplacian(lap.M, np.zeros((4, 4)))  # R = 0: D - M has a null vector
        C = singular.factor
        assert C.shape == (4, 3)
        np.testing.assert_allclose(C @ C.T, singular.gram, atol=1e-12)

    def test_indefinite_and_continuous_kernels_have_none(self):
        assert FixedGram(np.array([[1.0, 5.0], [5.0, 1.0]])).factor is None
        assert not hasattr(Matern(), "factor")

    def test_rows(self):
        C = Constant(4.0).factor
        assert np.array_equal(C, [[2.0]])
        rows = C[Constant(4.0).rows(np.zeros((3, 2)))]
        assert np.array_equal(rows, [[2.0], [2.0], [2.0]])
        tree_kernel = Tree(TaskTree(parent={2: 1}, sigma=(1.0, 1.0)))
        C = tree_kernel.factor
        rows = C[tree_kernel.rows(np.array([2, 1, 2]))]
        np.testing.assert_allclose(rows @ rows.T, task_gram(tree_kernel, [2, 1, 2], [2, 1, 2]), atol=1e-14)
        with pytest.raises(ValueError, match="task ids must lie in 1..2"):
            tree_kernel.rows(np.array([3]))


_TABLE_TREE = TaskTree(parent={2: 1, 3: 1, 4: 2}, sigma=(1.0, 0.5, 2.0, 0.7))
_TABLE_B = np.random.default_rng(21).standard_normal((4, 2))
_TABLE_IDS = np.array([1, 4, 2, 3, 4, 1])

# every task kernel, on the task descriptors it takes: (kernel, T, k of its held Gram or None)
TASK_KERNELS = pytest.mark.parametrize(
    "kernel, T, k",
    [
        (Constant(2.5), np.random.default_rng(22).uniform(0, 1, (6, 2)), 1),
        (Constant(2.5), _TABLE_IDS, 1),
        (Matern(lengthscale=0.4, amplitude=1.3), np.random.default_rng(23).uniform(0, 1, (6, 1)), None),
        (Tree(_TABLE_TREE), _TABLE_IDS, 4),
        (Laplacian.from_tree(_TABLE_TREE), _TABLE_IDS, 4),
        (FixedGram(_TABLE_B @ _TABLE_B.T + np.eye(4)), _TABLE_IDS, 4),
        (FixedGram(_TABLE_B @ _TABLE_B.T), _TABLE_IDS, 4),  # singular: rank 2
    ],
    ids=["constant-coords", "constant-ids", "matern", "tree", "laplacian", "fixed-gram-pd",
         "fixed-gram-singular"],
)


class TestTaskKernelTable:
    """One contract for every task kernel: Gram, factor rows and diagonal agree."""

    @TASK_KERNELS
    @pytest.mark.parametrize("instance", [Linear(), Matern(nu=2.5, amplitude=1.6)])
    def test_diag_is_the_task_gram_diagonal_times_the_instance_diagonal(self, kernel, T, k, instance):
        X = np.random.default_rng(24).standard_normal((6, 3))
        if isinstance(instance, Linear):
            dx = np.einsum("ij,ij->i", X, X)
        else:
            dx = np.diag(instance_gram(instance, X, X))
        expected = np.diag(task_gram(kernel, T, T)) * dx
        assert product_kernel_diag(X, T, KernelSpec(instance, kernel)).tobytes() == expected.tobytes()

    @TASK_KERNELS
    def test_factor_rows_reproduce_the_task_gram(self, kernel, T, k):
        if k is None:
            assert not hasattr(kernel, "factor")  # a Matern Gram over n points has no fixed one
            return
        C = kernel.factor
        R = C[kernel.rows(T)]
        G = task_gram(kernel, T, T)
        assert R.shape == (len(T), C.shape[1])
        assert np.max(np.abs(R @ R.T - G)) < 1e-12 * np.max(np.abs(G))

    @TASK_KERNELS
    def test_out_of_range_id_is_rejected_alike(self, kernel, T, k):
        if k is None or k == 1:  # coordinates, or one task that every descriptor maps to
            return
        X = np.ones((2, 3))
        bad = np.array([1, k + 1])
        message = f"task ids must lie in 1..{k}"
        with pytest.raises(ValueError, match=message):
            task_gram(kernel, bad, T)
        with pytest.raises(ValueError, match=message):
            task_gram(kernel, T, bad)
        with pytest.raises(ValueError, match=message):
            kernel.rows(bad)
        with pytest.raises(ValueError, match=message):
            product_kernel_diag(X, bad, KernelSpec(Linear(), kernel))

    @TASK_KERNELS
    @pytest.mark.parametrize("instance", [Linear(), Matern(nu=2.5, amplitude=1.6)])
    def test_rows_that_disagree_are_rejected_alike(self, kernel, T, k, instance):
        X = np.ones((3, 2))  # T has 6 rows
        spec = KernelSpec(instance, kernel)
        with pytest.raises(ValueError, match="instance rows and task rows disagree"):
            product_kernel_matrix(X, T, X, T, spec)
        with pytest.raises(ValueError, match="instance rows and task rows disagree"):
            product_kernel_diag(X, T, spec)

    def test_constant_maps_every_descriptor_to_its_one_task(self):
        G = task_gram(Constant(2.5), np.array([1, 7, 100]), np.zeros((2, 5)))
        assert G.shape == (3, 2) and np.all(G == 2.5)

    def test_an_instance_kernel_is_not_a_task_kernel(self):
        with pytest.raises(TypeError, match="not a task kernel"):
            task_gram(Linear(), np.zeros((2, 1)), np.zeros((2, 1)))


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(instance_kernel=Linear(), task_kernel=Constant(1.0)),
            KernelSpec(
                instance_kernel=Matern(nu=2.5, lengthscale=(1.0, 2.0), amplitude=0.5),
                task_kernel=Matern(nu=0.5, lengthscale=0.3),
            ),
            KernelSpec(
                instance_kernel=Linear(),
                task_kernel=Tree(tree=TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 0.4, 2.0))),
            ),
            KernelSpec(
                instance_kernel=Linear(),
                task_kernel=Laplacian.from_tree(TaskTree(parent={2: 1}, sigma=(1.0, 1.0))),
            ),
            KernelSpec(
                instance_kernel=Linear(),
                task_kernel=FixedGram(np.array([[2.0, 0.5], [0.5, 1.0]])),
            ),
        ],
    )
    def test_round_trip(self, spec):
        back = spec_from_dict(spec_to_dict(spec))
        T = [1, 2] if not isinstance(spec.task_kernel, (Constant, Matern)) else np.zeros((2, 1))
        K1 = task_gram(spec.task_kernel, T, T)
        K2 = task_gram(back.task_kernel, T, T)
        np.testing.assert_allclose(K1, K2, atol=1e-14)
        assert type(back.instance_kernel) is type(spec.instance_kernel)

    def test_laplacian_dict_takes_a_tree(self):
        parent, sigma = {2: 1, 3: 1, 4: 2}, [1.0, 0.5, 2.0, 0.7]
        d = {"type": "laplacian", "parent": {str(c): p for c, p in parent.items()}, "sigma": sigma}
        kernel = kernel_from_dict(d, task=True)
        expected = Laplacian.from_tree(TaskTree(parent=parent, sigma=tuple(sigma)))
        assert isinstance(kernel, Laplacian)
        assert kernel.gram.tobytes() == expected.gram.tobytes()

    def test_kernel_from_dict_task_role(self):
        assert kernel_from_dict({"type": "constant", "value": 2.0}, task=True) == Constant(2.0)
        assert kernel_from_dict({"type": "linear"}) == Linear()
        with pytest.raises(ValueError, match="task kernel must be"):
            kernel_from_dict({"type": "linear"}, task=True)
        for bad in ("matern", {"lengthscale": 1.0}):
            with pytest.raises(ValueError, match="'type' key"):
                kernel_from_dict(bad)

    @pytest.mark.parametrize(
        "task, message",
        [
            ({"type": "fixed_gram", "gram": 2.0}, "fixed_gram kernel key 'gram' must be a list"),
            ({"type": "laplacian", "M": [[1.0]], "R": [["x"]]}, "key 'R' must be rows of numbers"),
            ({"type": "tree", "parent": {2: None}, "sigma": [1, 1]}, "'parent' must map node ids"),
            ({"type": "tree", "parent": {2: 1}, "sigma": [1, "x"]}, "'sigma' must be a number"),
        ],
    )
    def test_task_kernel_errors_name_the_key(self, task, message):
        with pytest.raises(ValueError, match=f"kernel spec key 'task_kernel': .*{message}"):
            spec_from_dict({"instance_kernel": {"type": "linear"}, "task_kernel": task})

    @pytest.mark.parametrize(
        "d, message",
        [
            ([{"type": "linear"}], "kernel spec must be a mapping"),
            ({"task_kernel": {"type": "constant"}}, "needs the key 'instance_kernel'"),
            ({"instance_kernel": {"type": "linear"}}, "needs the key 'task_kernel'"),
            (
                {"instance_kernel": "linear", "task_kernel": {"type": "constant"}},
                "key 'instance_kernel': a kernel must be a mapping",
            ),
        ],
    )
    def test_spec_from_dict_errors_name_the_key(self, d, message):
        with pytest.raises(ValueError, match=message):
            spec_from_dict(d)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Constant(np.inf), "constant kernel value must be positive and finite"),
            (lambda: Constant(0.0), "constant kernel value must be positive and finite"),
            (lambda: Matern(amplitude=np.inf), "amplitude must be positive and finite"),
            (lambda: Matern(amplitude=np.nan), "amplitude must be positive and finite"),
            # np.allclose(inf, inf) holds, so the symmetry checks let these through
            (lambda: FixedGram(np.array([[1.0, np.inf], [np.inf, 1.0]])), "gram must be finite"),
            (lambda: Laplacian(np.array([[0.0, np.inf], [np.inf, 0.0]]), np.eye(2)),
             "M and R must be finite"),
            (lambda: Laplacian(np.zeros((2, 2)), np.diag([1.0, np.inf])), "M and R must be finite"),
        ],
    )
    def test_invalid_kernel_parameters(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_invalid_kernel_kinds(self):
        with pytest.raises(ValueError):
            KernelSpec(instance_kernel=Constant(), task_kernel=Constant())
        with pytest.raises(ValueError):
            KernelSpec(instance_kernel=Linear(), task_kernel=Linear())


def _scaled_lengthscale(ls, factor, d=None):
    out = np.array(ls, dtype=float, ndmin=1)
    if d is None:
        out *= factor
    else:
        out[d] *= factor
    return float(out[0]) if out.size == 1 else tuple(out)


class TestMaternGradients:
    def test_gram_grads_match_finite_differences(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 2))
        Z[5] = Z[2]  # a duplicate point: u = 0 off the diagonal
        h = 1e-6

        def fd_gram(hi, lo):
            return (kernels.instance_gram(hi, Z, Z) - kernels.instance_gram(lo, Z, Z)) / (2 * h)

        for nu in (0.5, 1.5, 2.5):
            for ls in (0.8, (0.8, 1.7)):
                kernel = Matern(nu=nu, lengthscale=ls, amplitude=1.2)
                K, grads = matern_gram_grads(kernel, Z)
                # one routine writes every Matern profile: the same bits as a plain Gram
                assert K.tobytes() == kernels.instance_gram(kernel, Z, Z).tobytes()
                assert len(grads) == (2 if kernel.ard else 1)
                for i, dK in enumerate(grads):
                    d = i if kernel.ard else None
                    name = f"lengthscale[{i}]" if kernel.ard else "lengthscale"
                    fd = fd_gram(
                        Matern(nu=nu, lengthscale=_scaled_lengthscale(ls, math.exp(h), d), amplitude=1.2),
                        Matern(nu=nu, lengthscale=_scaled_lengthscale(ls, math.exp(-h), d), amplitude=1.2),
                    )
                    np.testing.assert_allclose(dK, fd, atol=1e-7, err_msg=f"nu={nu} {name}")
                # the log-amplitude derivative is 2K, which matern_gram_grads leaves to the caller
                fd = fd_gram(
                    Matern(nu=nu, lengthscale=ls, amplitude=1.2 * math.exp(h)),
                    Matern(nu=nu, lengthscale=ls, amplitude=1.2 * math.exp(-h)),
                )
                np.testing.assert_allclose(2.0 * K, fd, atol=1e-7, err_msg=f"nu={nu} amplitude")

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("ls", [0.8, (0.8, 1.7)], ids=["isotropic", "ard"])
    def test_held_distances_change_no_bit(self, nu, ls):
        # a search holds cdist(Z, Z) and divides it by each isotropic lengthscale;
        # an ARD kernel ignores what is held, here deliberately wrong
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((70, 2))
        Z[5] = Z[2]
        kernel = Matern(nu=nu, lengthscale=ls, amplitude=1.2)
        K, grads = matern_gram_grads(kernel, Z)
        dist = np.zeros((70, 70)) if kernel.ard else cdist(Z, Z)
        K_held, grads_held = matern_gram_grads(kernel, Z, dist=dist)
        assert K_held.tobytes() == K.tobytes() == kernels.instance_gram(kernel, Z, Z).tobytes()
        assert [g.tobytes() for g in grads_held] == [g.tobytes() for g in grads]

    @pytest.mark.parametrize("ls", [0.8, (0.8, 1.7)], ids=["isotropic", "ard"])
    def test_nu_half_grads_are_finite_at_large_amplitude(self, ls):
        # the nu = 1/2 slope is unbounded at u = 0; scaled by s^2 = 1e10 it must not
        # turn the zero distances of the diagonal and of duplicate rows into NaN
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((6, 2))
        Z[5] = Z[2]
        h, amp = 1e-6, 1e5
        kernel = Matern(nu=0.5, lengthscale=ls, amplitude=amp)
        _, grads = matern_gram_grads(kernel, Z)
        for i, dK in enumerate(grads):
            assert np.all(np.isfinite(dK))
            d = i if kernel.ard else None
            hi = Matern(nu=0.5, lengthscale=_scaled_lengthscale(ls, math.exp(h), d), amplitude=amp)
            lo = Matern(nu=0.5, lengthscale=_scaled_lengthscale(ls, math.exp(-h), d), amplitude=amp)
            fd = (kernels.instance_gram(hi, Z, Z) - kernels.instance_gram(lo, Z, Z)) / (2 * h)
            # the atol of the unit-amplitude check above, on the s^2 scale
            np.testing.assert_allclose(dK, fd, atol=1e-7 * amp**2)
