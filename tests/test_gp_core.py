import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp import gp_core, kernels
from vcgp._linalg import NumericalError, add_diagonal, chol_with_jitter, solve_lower
from vcgp.baselines import primal_oracle_predict
from vcgp.gp_classify import fit_classifier, laplace_mode, logistic_gaussian_integral
from vcgp.multitask_hb import hb_weight_covariance, random_tree
from vcgp.gp_core import (
    Dataset,
    DenseBasis,
    DenseCovariance,
    SearchConfig,
    LowRankBasis,
    LowRankDiag,
    TreeBasis,
    WeightSpaceBasis,
    _Workspace,
    _evidence_weights,
    _fit_gaussian,
    _param_values,
    _weight_features,
    _with_param_values,
    fit_regressor,
    free_param_names,
    grid_candidates,
    lml_and_gradient,
    tune_hyperparameters,
)
from vcgp.kernels import (
    Constant,
    FixedGram,
    KernelSpec,
    Laplacian,
    Linear,
    Matern,
    TaskTree,
    Tree,
    instance_gram,
    product_kernel_diag,
    product_kernel_matrix,
    task_gram,
)

LIN_CONST = KernelSpec(instance_kernel=Linear(), task_kernel=Constant(1.0))
TOL_ORACLE = 1e-8  # TOL_ORACLE of test_acceptance.py


def dense_fit(data, spec, tau2):
    """The Gaussian finisher on the dense ``K + tau2 I``, whatever the spec's route."""
    K = product_kernel_matrix(data.X, data.T, data.X, data.T, spec)
    return _fit_gaussian(data, spec, tau2, DenseCovariance(add_diagonal(K, tau2)), DenseBasis())


def weight_space_fit(data, spec, tau2, C):
    """The Gaussian finisher on ``V^T V + tau2 I`` for the task factor ``C``."""
    V = _weight_features(spec, C, data.X, data.T).T
    return _fit_gaussian(data, spec, tau2, LowRankDiag(V, tau2), WeightSpaceBasis(C))


def scalar_data():
    return Dataset(X=[[1.0]], T=np.zeros((1, 1)), y=[1.0])


class TestFit:
    def test_scalar_example(self):
        model = fit_regressor(scalar_data(), LIN_CONST, tau2=1.0)
        np.testing.assert_allclose(model.chol, [[math.sqrt(2.0)]])
        np.testing.assert_allclose(model.alpha, [0.5])

    def test_huge_noise_prior_dominates(self):
        rng = np.random.default_rng(0)
        data = Dataset(X=rng.standard_normal((6, 2)), T=rng.uniform(0, 1, (6, 1)), y=rng.standard_normal(6))
        model = fit_regressor(data, LIN_CONST, tau2=1e12)
        np.testing.assert_allclose(model.alpha, data.y / 1e12, rtol=1e-6)
        mean, _ = model.predict_batch(data.X, data.T)
        assert np.max(np.abs(mean)) < 1e-9

    def test_cholesky_reconstruction(self):
        rng = np.random.default_rng(1)
        data = Dataset(X=rng.standard_normal((5, 3)), T=rng.uniform(0, 1, (5, 2)), y=rng.standard_normal(5))
        spec = KernelSpec(instance_kernel=Matern(lengthscale=1.5), task_kernel=Matern(lengthscale=0.5))
        model = fit_regressor(data, spec, tau2=0.3)
        from vcgp.kernels import product_kernel_matrix

        A = product_kernel_matrix(data.X, data.T, data.X, data.T, spec) + 0.3 * np.eye(5)
        np.testing.assert_allclose(model.chol @ model.chol.T, A, atol=1e-8 * np.max(np.abs(A)))

    @pytest.mark.parametrize("tau2", [0.0, np.inf, np.nan])
    def test_invalid_tau2(self, tau2):
        # n = 4 >= 2 r takes weight space, where tau2 = inf fitted means of exactly 0
        data = Dataset(X=np.ones((4, 1)), T=np.zeros((4, 1)), y=np.ones(4))
        for d in (scalar_data(), data):
            with pytest.raises(ValueError, match="tau2 must be positive and finite"):
                fit_regressor(d, LIN_CONST, tau2=tau2)

    def test_non_psd_fails_loudly_naming_spec(self):
        data = Dataset(X=[[1.0], [2.0]], T=np.array([1, 2]), y=[0.0, 0.0])
        bad = KernelSpec(
            instance_kernel=Linear(), task_kernel=FixedGram(np.array([[1.0, 5.0], [5.0, 1.0]]))
        )
        with pytest.raises(NumericalError, match="FixedGram"):
            fit_regressor(data, bad, tau2=1e-8)


def test_fixed_gram_symmetric_to_allclose_fits_alike_in_any_row_order():
    # G[0, 1] off by 0.9 x allclose's rtol: a dense K built from both
    # triangles is not symmetric, so its factor depends on the row order
    rng = np.random.default_rng(57)
    A = rng.standard_normal((4, 4))
    G = A @ A.T + np.eye(4)
    G[0, 1] = G[1, 0] * (1 + 0.9e-5)
    spec = KernelSpec(Matern(nu=1.5, lengthscale=1.0), FixedGram(G))
    data = Dataset(X=rng.standard_normal((30, 2)), T=rng.integers(1, 5, 30), y=rng.standard_normal(30))
    order = rng.permutation(30)
    permuted = Dataset(X=data.X[order], T=data.T[order], y=data.y[order])
    lml = fit_regressor(data, spec, 0.1).log_marginal_likelihood()
    assert fit_regressor(permuted, spec, 0.1).log_marginal_likelihood() == pytest.approx(lml, rel=1e-12, abs=0)


class TestPredict:
    def test_scalar_example(self):
        model = fit_regressor(scalar_data(), LIN_CONST, tau2=1.0)
        pd = model.predict([1.0], np.zeros(1))
        assert pd.mean == pytest.approx(0.5)
        assert pd.latent_var == pytest.approx(0.5)
        assert pd.total_var == pytest.approx(1.5)

    def test_unrelated_task_reverts_to_prior(self):
        G = np.array([[1.0, 0.0], [0.0, 2.0]])
        data = Dataset(X=[[1.0, 2.0]], T=np.array([1]), y=[3.0])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(G))
        model = fit_regressor(data, spec, tau2=0.5)
        pd = model.predict([2.0, 1.0], 2)
        assert pd.mean == 0.0
        assert pd.latent_var == pytest.approx((4.0 + 1.0) * 2.0)

    def test_matches_weight_space_oracle(self):
        rng = np.random.default_rng(2)
        data = Dataset(
            X=rng.standard_normal((8, 3)),
            T=rng.integers(1, 4, size=8),
            y=rng.standard_normal(8),
        )
        B = rng.standard_normal((3, 5))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(B @ B.T / 5))
        model = fit_regressor(data, spec, tau2=0.2)
        for _ in range(5):
            x = rng.standard_normal(3)
            t = int(rng.integers(1, 4))
            got = model.predict(x, t)
            want = primal_oracle_predict(data, spec, 0.2, x, t)
            assert got.mean == pytest.approx(want.mean, abs=1e-8)
            assert got.latent_var == pytest.approx(want.latent_var, abs=1e-8)
            assert got.total_var == pytest.approx(want.total_var, abs=1e-8)

    def test_dimension_mismatch(self):
        model = fit_regressor(scalar_data(), LIN_CONST, tau2=1.0)
        with pytest.raises(ValueError):
            model.predict([1.0, 2.0], np.zeros(1))
        with pytest.raises(ValueError):
            model.predict([1.0], np.zeros(2))
        # a constant task kernel ignores the value of a task, so only the dimension check catches this
        with pytest.raises(ValueError, match="test tasks have 2 coordinates, training tasks have 1"):
            model.predict_batch([[1.0]], np.zeros((1, 2)))

    def test_non_finite_test_instance_raises(self):
        # a linear instance kernel passes the NaN on to the features, and
        # the solve's right-hand-side check rejects it
        rng = np.random.default_rng(4)
        data = Dataset(X=rng.standard_normal((8, 2)), T=rng.uniform(0, 1, (8, 1)), y=rng.standard_normal(8))
        model = fit_regressor(data, KernelSpec(instance_kernel=Linear(), task_kernel=Matern()), 0.1)
        assert isinstance(model.basis, DenseBasis)
        with pytest.raises(ValueError):
            model.predict([np.nan, 1.0], [0.5])
        with pytest.raises(ValueError):
            model.predict_batch([[1.0, 0.0], [np.inf, 1.0]], [[0.5], [0.2]])

    def test_exchangeability(self):
        rng = np.random.default_rng(3)
        data = Dataset(X=rng.standard_normal((12, 2)), T=rng.uniform(0, 1, (12, 1)), y=rng.standard_normal(12))
        spec = KernelSpec(instance_kernel=Matern(), task_kernel=Matern(lengthscale=0.4))
        perm = rng.permutation(12)
        m1 = fit_regressor(data, spec, tau2=0.1)
        m2 = fit_regressor(data.subset(perm), spec, tau2=0.1)
        x, t = rng.standard_normal(2), rng.uniform(0, 1, 1)
        p1, p2 = m1.predict(x, t), m2.predict(x, t)
        assert p1.mean == pytest.approx(p2.mean, abs=1e-10)
        assert p1.total_var == pytest.approx(p2.total_var, abs=1e-10)

    def test_interpolation_with_vanishing_noise(self):
        rng = np.random.default_rng(4)
        data = Dataset(X=rng.standard_normal((8, 2)), T=rng.uniform(0, 1, (8, 1)), y=rng.standard_normal(8))
        spec = KernelSpec(instance_kernel=Matern(lengthscale=2.0), task_kernel=Matern(lengthscale=0.5))
        model = fit_regressor(data, spec, tau2=1e-8)
        mean, _ = model.predict_batch(data.X, data.T)
        np.testing.assert_allclose(mean, data.y, atol=1e-3)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(5)
        data = Dataset(X=rng.standard_normal((20, 2)), T=rng.uniform(0, 1, (20, 1)), y=rng.standard_normal(20))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.3))
        model = fit_regressor(data, spec, tau2=1e-6)
        _, var = model.predict_batch(data.X, data.T)
        assert np.all(var >= 0)

    def test_reduction_to_bayesian_linear_regression(self):
        # with a constant task kernel the model is ridge-style Bayesian
        # regression with a unit isotropic prior; compare to normal equations
        rng = np.random.default_rng(6)
        n, m, tau2 = 15, 3, 0.4
        X = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        data = Dataset(X=X, T=np.zeros((n, 1)), y=y)
        model = fit_regressor(data, LIN_CONST, tau2=tau2)
        S = np.linalg.inv(X.T @ X / tau2 + np.eye(m))
        w = S @ X.T @ y / tau2
        for _ in range(5):
            x = rng.standard_normal(m)
            pd = model.predict(x, np.zeros(1))
            assert pd.mean == pytest.approx(float(x @ w), abs=1e-8)
            assert pd.latent_var == pytest.approx(float(x @ S @ x), abs=1e-8)


class TestLogMarginalLikelihood:
    def test_scalar_zero_label(self):
        data = Dataset(X=[[1.0]], T=np.zeros((1, 1)), y=[0.0])
        model = fit_regressor(data, LIN_CONST, tau2=1.0)
        assert model.log_marginal_likelihood() == pytest.approx(-0.5 * math.log(4 * math.pi))
        assert model.log_marginal_likelihood() == pytest.approx(-1.2655121234846454, abs=1e-9)

    def test_zero_labels_drop_data_fit_term(self):
        rng = np.random.default_rng(7)
        data = Dataset(X=rng.standard_normal((6, 2)), T=rng.uniform(0, 1, (6, 1)), y=np.zeros(6))
        spec = KernelSpec(instance_kernel=Matern(), task_kernel=Matern(lengthscale=0.5))
        model = fit_regressor(data, spec, tau2=0.2)
        expected = -np.sum(np.log(np.diag(model.chol))) - 3 * math.log(2 * math.pi)
        assert model.log_marginal_likelihood() == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_gaussian_logpdf(self):
        rng = np.random.default_rng(8)
        data = Dataset(X=rng.standard_normal((6, 2)), T=rng.uniform(0, 1, (6, 1)), y=rng.standard_normal(6))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.7))
        model = fit_regressor(data, spec, tau2=0.3)
        from vcgp.kernels import product_kernel_matrix

        A = product_kernel_matrix(data.X, data.T, data.X, data.T, spec) + 0.3 * np.eye(6)
        oracle = scipy.stats.multivariate_normal(mean=np.zeros(6), cov=A).logpdf(data.y)
        assert model.log_marginal_likelihood() == pytest.approx(oracle, abs=1e-8)


_WS_TREE = TaskTree(parent={2: 1, 3: 1, 4: 2, 5: 2}, sigma=(1.0, 0.6, 0.8, 0.4, 1.3))
_WS_LAPLACIAN = Laplacian.from_tree(_WS_TREE)
_B = np.random.default_rng(30).standard_normal((4, 6))
_WS_TASK_KERNELS = {
    "constant": Constant(1.7),
    "tree": Tree(_WS_TREE),
    "laplacian": _WS_LAPLACIAN,
    # R = 0 leaves the Laplacian singular: its pseudoinverse Gram has rank k - 1
    "laplacian-singular": Laplacian(_WS_LAPLACIAN.M, np.zeros((5, 5))),
    "fixed-gram": FixedGram(_B @ _B.T / 6),
}


class TestWeightSpaceRoute:
    """``fit_regressor`` in weight space against the dense fit and the oracle."""

    M = 2

    @staticmethod
    def _tasks(kernel, n, rng):
        if isinstance(kernel, Constant):
            return rng.uniform(0, 1, (n, 1))
        return rng.integers(1, kernel.gram.shape[0] + 1, size=n)

    def _data(self, kernel, n, m, rng, labels=False):
        T = self._tasks(kernel, n, rng)
        X, y = rng.standard_normal((n, m)), rng.standard_normal(n)
        return Dataset(X=X, T=T, y=(y > 0).astype(float) if labels else y)

    @pytest.mark.parametrize("tau2", [1e-6, 0.1, 10.0])
    @pytest.mark.parametrize("above", [False, True], ids=["r-below-half-n", "r-above-half-n"])
    @pytest.mark.parametrize("label", sorted(_WS_TASK_KERNELS))
    def test_matches_dense_fit_and_oracle(self, label, above, tau2):
        kernel = _WS_TASK_KERNELS[label]
        spec = KernelSpec(Linear(), kernel)
        C = kernel.factor
        r = self.M * C.shape[1]
        n = 2 * r - 1 if above else 2 * r + 1
        rng = np.random.default_rng(40)
        data = self._data(kernel, n, self.M, rng)
        X_star, T_star = rng.standard_normal((6, self.M)), self._tasks(kernel, 6, rng)

        # a task kernel with a forest precision takes the tree-precision route at any n
        want = TreeBasis if kernel.precision is not None else DenseBasis if above else WeightSpaceBasis
        assert type(fit_regressor(data, spec, tau2).basis) is want
        ws, dense = weight_space_fit(data, spec, tau2, C), dense_fit(data, spec, tau2)
        assert ws.chol.shape == (r, r) and dense.chol.shape == (n, n)
        (ws_mean, ws_var), (d_mean, d_var) = ws.predict_batch(X_star, T_star), dense.predict_batch(X_star, T_star)
        np.testing.assert_allclose(ws_mean, d_mean, rtol=0, atol=TOL_ORACLE)
        np.testing.assert_allclose(ws_var, d_var, rtol=0, atol=TOL_ORACLE)
        # alpha grows as 1/tau2 (to 2e6 at tau2=1e-6), so it is compared to its scale
        scale = 1.0 + np.max(np.abs(dense.alpha))
        np.testing.assert_allclose(ws.alpha, dense.alpha, rtol=0, atol=TOL_ORACLE * scale)
        lml = dense.log_marginal_likelihood()
        assert abs(ws.log_marginal_likelihood() - lml) <= TOL_ORACLE * (1.0 + abs(lml))
        if tau2 < 1e-3:
            # the oracle inverts K + tau2 I explicitly, ~1e8-conditioned here
            # and off by 2e-8 itself; the dense fit stands in for it
            return
        for x, t, mean, var in zip(X_star, T_star, ws_mean, ws_var):
            want = primal_oracle_predict(data, spec, tau2, x, t)
            assert mean == pytest.approx(want.mean, abs=TOL_ORACLE)
            assert var == pytest.approx(want.latent_var, abs=TOL_ORACLE)

    @pytest.mark.parametrize("tau2", [1e-6, 0.1, 10.0])
    @pytest.mark.parametrize("label", sorted(_WS_TASK_KERNELS))
    def test_classifier_matches_dense_laplace(self, label, tau2):
        # the tolerances of test_sparse_fitc.py's dense-oracle tests
        kernel = _WS_TASK_KERNELS[label]
        spec = KernelSpec(Linear(), kernel)
        n = 2 * self.M * kernel.factor.shape[1] + 1
        rng = np.random.default_rng(45)
        data = self._data(kernel, n, self.M, rng, labels=True)
        X_star, T_star = rng.standard_normal((6, self.M)), self._tasks(kernel, 6, rng)

        ws = fit_classifier(data, spec, tau2)
        if kernel.precision is None:
            assert isinstance(ws.basis, LowRankBasis) and ws.state.B_chol.shape[0] < n
        else:  # the tree-precision route, checked against the same dense Laplace fit
            assert isinstance(ws.basis, TreeBasis)
        K = product_kernel_matrix(data.X, data.T, data.X, data.T, spec)
        dense = laplace_mode(K + tau2 * np.eye(n), data.y)
        np.testing.assert_allclose(ws.mode, dense.mode, rtol=0, atol=1e-6)
        np.testing.assert_allclose(ws.state.dual, dense.dual, rtol=0, atol=1e-6)
        assert ws.log_marginal_likelihood() == pytest.approx(
            dense.log_marginal_likelihood(), abs=1e-6
        )
        Ks = product_kernel_matrix(data.X, data.T, X_star, T_star, spec)
        U = solve_lower(dense.B_chol, np.sqrt(dense.W)[:, None] * Ks)
        var = product_kernel_diag(X_star, T_star, spec) + tau2 - np.einsum("ij,ij->j", U, U)
        want = logistic_gaussian_integral(Ks.T @ dense.dual, var)
        np.testing.assert_allclose(ws.predict_proba_batch(X_star, T_star), want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("fit", [fit_regressor, fit_classifier])
    def test_route_boundary_is_r_at_most_half_n(self, fit):
        spec = KernelSpec(Linear(), FixedGram(Tree(_WS_TREE).gram))
        rng = np.random.default_rng(41)
        for n, weight_space in ((20, True), (19, False)):  # r = 2 * 5 = 10
            data = self._data(spec.task_kernel, n, self.M, rng, labels=True)
            assert isinstance(fit(data, spec, 0.1).basis, LowRankBasis) == weight_space

    def test_other_specs_stay_dense(self):
        rng = np.random.default_rng(42)
        n = 40
        for spec in (
            KernelSpec(Matern(), Tree(_WS_TREE)),
            KernelSpec(Linear(), Matern(lengthscale=0.5)),
        ):
            T = rng.integers(1, 6, size=n) if isinstance(spec.task_kernel, Tree) else rng.uniform(0, 1, (n, 1))
            data = Dataset(X=rng.standard_normal((n, 2)), T=T, y=rng.standard_normal(n))
            model = fit_regressor(data, spec, 0.1)
            assert isinstance(model.basis, DenseBasis) and model.chol.shape == (n, n)

    def test_indefinite_gram_takes_the_dense_route_and_fails_naming_the_spec(self):
        gram = np.array([[1.0, 5.0], [5.0, 1.0]])
        assert FixedGram(gram).factor is None
        rng = np.random.default_rng(43)
        # r would be 2 <= n/2 for a PSD Gram of this size
        data = Dataset(X=rng.standard_normal((20, 1)), T=rng.integers(1, 3, size=20), y=rng.standard_normal(20))
        with pytest.raises(NumericalError, match="FixedGram"):
            fit_regressor(data, KernelSpec(Linear(), FixedGram(gram)), 1e-8)

    def test_zero_gram_fits_with_no_weights(self):
        data = Dataset(X=[[1.0], [2.0], [3.0]], T=np.array([1, 2, 1]), y=[1.0, -1.0, 0.5])
        spec = KernelSpec(Linear(), FixedGram(np.zeros((2, 2))))
        ws, dense = fit_regressor(data, spec, 0.5), dense_fit(data, spec, 0.5)
        assert ws.chol.shape == (0, 0)
        np.testing.assert_allclose(ws.alpha, dense.alpha, rtol=1e-14)
        assert ws.log_marginal_likelihood() == pytest.approx(dense.log_marginal_likelihood(), rel=1e-14)
        mean, var = ws.predict_batch([[1.0], [2.0]], [1, 2])
        assert np.array_equal(mean, [0.0, 0.0]) and np.array_equal(var, [0.0, 0.0])

    def test_zero_gram_classifies_with_no_weights(self):
        data = Dataset(X=[[1.0], [2.0], [3.0]], T=np.array([1, 2, 1]), y=[1.0, 0.0, 1.0])
        ws = fit_classifier(data, KernelSpec(Linear(), FixedGram(np.zeros((2, 2)))), 0.5)
        dense = laplace_mode(0.5 * np.eye(3), data.y)
        assert ws.state.B_chol.shape == (0, 0) and ws.weights.shape == (0,)
        np.testing.assert_allclose(ws.mode, dense.mode, rtol=1e-14)
        np.testing.assert_allclose(ws.state.dual, dense.dual, rtol=1e-14)
        assert ws.log_marginal_likelihood() == pytest.approx(dense.log_marginal_likelihood(), rel=1e-14)
        # no weights: the latent is the noise alone, N(0, tau2), at every test point
        p = ws.predict_proba_batch([[1.0], [2.0]], [1, 2])
        np.testing.assert_allclose(p, [0.5, 0.5], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("task", [FixedGram(Tree(_WS_TREE).gram), Tree(_WS_TREE)],
                             ids=["weight-space", "tree-precision"])
    def test_task_ids_out_of_range_are_rejected(self, task):
        spec = KernelSpec(Linear(), task)
        data = self._data(spec.task_kernel, 30, 1, np.random.default_rng(44))
        model = fit_regressor(data, spec, 0.1)
        assert type(model.basis) is (TreeBasis if isinstance(task, Tree) else WeightSpaceBasis)
        with pytest.raises(ValueError, match="task ids must lie in 1..5"):
            model.predict_batch([[1.0]], [6])
        with pytest.raises(ValueError, match="task ids must lie in 1..5"):
            model.predict([1.0], 6)

    def test_non_integral_task_ids_are_rejected(self):
        spec = KernelSpec(Linear(), Tree(_WS_TREE))
        data = self._data(spec.task_kernel, 30, 1, np.random.default_rng(44))
        model = fit_regressor(data, spec, 0.1)
        # each of these used to be truncated to an id, or cast from nan to garbage
        for t in (1.7, np.float64(2.9), np.array([2.5]), np.nan):
            with pytest.raises(ValueError, match="discrete task ids must be integers"):
                model.predict([1.0], t)
        with pytest.raises(ValueError, match="discrete task ids must be integers, got 2.9"):
            model.predict_batch([[1.0], [2.0]], np.array([2.0, 2.9]))
        # integral ids of any numeric type still serve
        want = model.predict([1.0], 2).mean
        for t in (2.0, np.int32(2), np.array([2.0])):
            assert model.predict([1.0], t).mean == want
        # ids that are not numbers are rejected on both paths, not read as 1
        for t in (True, "1"):
            with pytest.raises(ValueError, match="discrete task ids must be integers, got dtype"):
                model.predict([1.0], t)
            with pytest.raises(ValueError, match="discrete task ids must be integers, got dtype"):
                model.predict_batch([[1.0]], [t])


def _design(X, T, k):
    """Rows ``x_i`` placed in the m columns of task t_i: the stacked-coefficient design."""
    n, m = X.shape
    Phi = np.zeros((n, k * m))
    for i, t in enumerate(T):
        Phi[i, (t - 1) * m : t * m] = X[i]
    return Phi


class TestTreePrecisionRoute:
    """Linear x tree (or forest Laplacian) fits on the task precision, against dense and the oracles."""

    @staticmethod
    def _case(task, n, m, seed):
        rng = np.random.default_rng(seed)
        k = task.k
        data = Dataset(X=rng.standard_normal((n, m)), T=rng.integers(1, k + 1, size=n),
                       y=rng.standard_normal(n))
        # every task id, trained or not, and a few random points
        X_star = rng.standard_normal((k + 3, m))
        T_star = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=3)])
        return data, X_star, T_star

    def assert_matches_dense(self, task, n, m, tau2, seed, dense_task=None):
        """Both likelihoods against the dense fits, at criterion 6's tolerance (TOL_FITC_EXACT).

        The fits take the tree route exactly when ``task`` has a precision.
        The dense fits use ``dense_task``'s Gram when given (the same kernel).
        """
        spec, dense_spec = KernelSpec(Linear(), task), KernelSpec(Linear(), dense_task or task)
        data, X_star, T_star = self._case(task, n, m, seed)
        tree_route = task.precision is not None
        tree, dense = fit_regressor(data, spec, tau2), dense_fit(data, dense_spec, tau2)
        assert isinstance(tree.basis, TreeBasis) == tree_route
        assert abs(tree.log_marginal_likelihood() - dense.log_marginal_likelihood()) < 1e-6
        for got, want in zip(tree.predict_batch(X_star, T_star), dense.predict_batch(X_star, T_star)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        labels = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
        clf = fit_classifier(labels, spec, tau2)
        assert isinstance(clf.basis, TreeBasis) == tree_route
        K = product_kernel_matrix(data.X, data.T, data.X, data.T, dense_spec)
        want = laplace_mode(add_diagonal(K, tau2), labels.y)
        np.testing.assert_allclose(clf.mode, want.mode, rtol=0, atol=1e-6)
        assert abs(clf.log_marginal_likelihood() - want.log_marginal_likelihood()) < 1e-6
        Ks = product_kernel_matrix(data.X, data.T, X_star, T_star, dense_spec)
        U = solve_lower(want.B_chol, np.sqrt(want.W)[:, None] * Ks)
        var = product_kernel_diag(X_star, T_star, dense_spec) + tau2 - np.einsum("ij,ij->j", U, U)
        proba = logistic_gaussian_integral(Ks.T @ want.dual, var)
        np.testing.assert_allclose(clf.predict_proba_batch(X_star, T_star), proba, rtol=0, atol=1e-6)
        return tree, data, X_star, T_star

    def assert_matches_oracles(self, tree_spec: TaskTree, n, m, tau2, seed):
        """Posterior means and node covariances of hb_weight_covariance, predictions of the primal oracle."""
        model, data, X_star, T_star = self.assert_matches_dense(Tree(tree_spec), n, m, tau2, seed)
        Phi = _design(data.X, data.T, tree_spec.k)
        cov = np.linalg.inv(np.linalg.inv(hb_weight_covariance(tree_spec, m)) + Phi.T @ Phi / tau2)
        np.testing.assert_allclose(model.weights, cov @ Phi.T @ data.y / tau2, rtol=0, atol=TOL_ORACLE)
        blocks = [cov[t * m : (t + 1) * m, t * m : (t + 1) * m] for t in range(tree_spec.k)]
        np.testing.assert_allclose(model.chol[:, 1], blocks, rtol=0, atol=TOL_ORACLE)
        mean, var = model.predict_batch(X_star, T_star)
        for x, t, mu, v in zip(X_star, T_star, mean, var):
            want = primal_oracle_predict(data, model.spec, tau2, x, t)
            assert mu == pytest.approx(want.mean, abs=TOL_ORACLE)
            assert v == pytest.approx(want.latent_var, abs=TOL_ORACLE)

    @settings(max_examples=20)
    @given(k=st.integers(1, 12), n=st.integers(1, 25), m=st.integers(1, 3),
           tau2=st.sampled_from([0.01, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_random_trees_match_dense_and_the_oracles(self, k, n, m, tau2, seed):
        # n < k leaves nodes with no training points
        tree = random_tree(k, np.random.default_rng(seed), sigma_low=0.3, sigma_high=2.0)
        self.assert_matches_oracles(tree, n, m, tau2, seed)

    @settings(max_examples=20)
    @given(k=st.integers(1, 12), n=st.integers(1, 25), m=st.integers(1, 3),
           tau2=st.sampled_from([0.01, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_laplacians_from_random_trees_match_dense(self, k, n, m, tau2, seed):
        tree = random_tree(k, np.random.default_rng(seed), sigma_low=0.3, sigma_high=2.0)
        self.assert_matches_dense(Laplacian.from_tree(tree), n, m, tau2, seed)

    @settings(max_examples=15)
    @given(k=st.integers(1, 12), n=st.integers(1, 25), m=st.integers(1, 3),
           tau2=st.sampled_from([0.01, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_sharp_trees_and_their_laplacians_match_dense(self, k, n, m, tau2, seed):
        # sigma log-uniform on [1e-8, 1]: a node of sigma 1e-8 under one of 1
        # nearly pools them; nodes labelled out of tree order
        rng = np.random.default_rng(seed)
        order = [1, *(int(v) for v in rng.permutation(np.arange(2, k + 1)))]
        parent = {order[i]: order[int(rng.integers(0, i))] for i in range(1, k)}
        tree = TaskTree(parent=parent, sigma=tuple(10.0 ** rng.uniform(-8.0, 0.0, size=k)))
        lap = Laplacian.from_tree(tree)
        assert Tree(tree).precision is not None and lap.precision is not None  # the tree route
        self.assert_matches_dense(Tree(tree), n, m, tau2, seed)
        # the Laplacian's own Gram, a pseudoinverse, drops eigenvalues below 1e-12
        # of the largest; the dense fits take the tree's closed-form Gram instead
        self.assert_matches_dense(lap, n, m, tau2, seed, dense_task=Tree(tree))

    @pytest.mark.parametrize(
        "tree",
        [
            TaskTree(parent={}, sigma=(0.8,)),
            TaskTree(parent={l: l - 1 for l in range(2, 9)}, sigma=(1.0,) + (0.5,) * 7),
            TaskTree(parent={l: 1 for l in range(2, 9)}, sigma=(1.0,) + (0.7,) * 7),
            # parents numbered above their children
            TaskTree(parent={2: 3, 3: 1, 4: 2}, sigma=(1.0, 0.4, 0.6, 0.9)),
        ],
        ids=["one-node", "chain", "star", "parents-above-children"],
    )
    @pytest.mark.parametrize("n", [3, 30])
    def test_tree_shapes_match_the_oracles(self, tree, n):
        self.assert_matches_oracles(tree, n, 2, 0.1, seed=50)

    def test_a_forest_laplacian_matches_dense(self):
        # two trees, each with its own regularized root
        (M1, R1), (M2, R2) = (kernels._tree_laplacian_parts(t) for t in (_WS_TREE, _TREE))
        M, R = scipy.linalg.block_diag(M1, M2), scipy.linalg.block_diag(R1, R2)
        forest = Laplacian(M, R)
        assert len(forest.precision.levels[-1][0]) == 2  # two roots
        self.assert_matches_dense(forest, 25, 2, 0.1, seed=51)

    @pytest.mark.parametrize(
        "task",
        [
            Laplacian(_WS_LAPLACIAN.M, np.zeros((5, 5))),  # singular: R = 0
            Laplacian(np.ones((3, 3)) - np.eye(3), np.eye(3)),  # a cycle
            # forests whose D + R - M breaks the structural rule, the first two definite
            Laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.diag([3.0, 3.0])),
            Laplacian(np.array([[0.0, 4.0], [4.0, 0.0]]), np.diag([1.0, -0.5])),
            Laplacian(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.diag([1.0, 0.0, 0.0])),
            FixedGram(Tree(_WS_TREE).gram),
            Constant(1.0),
        ],
        ids=["singular-laplacian", "cyclic-laplacian", "negative-edge", "negative-regularizer",
             "unregularized-component", "fixed-gram", "constant"],
    )
    def test_other_held_grams_take_weight_space(self, task):
        assert task.precision is None
        rng = np.random.default_rng(52)
        n = 40
        T = rng.uniform(0, 1, (n, 1)) if isinstance(task, Constant) else rng.integers(1, task.k + 1, n)
        data = Dataset(X=rng.standard_normal((n, 2)), T=T, y=rng.standard_normal(n))
        assert isinstance(fit_regressor(data, KernelSpec(Linear(), task), 0.1).basis, WeightSpaceBasis)
        self.assert_matches_dense(task, 25, 2, 0.1, seed=55)

    def test_hard_sharing_tree_takes_the_tree_route(self):
        # children of sigma 1e-8 under a root of 1: their pivots no longer cancel the root's
        task = Tree(TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 1e-8, 1e-8)))
        assert task.precision is not None
        self.assert_matches_dense(task, 40, 2, 0.1, seed=52)

    def test_laplacian_symmetric_to_allclose_reads_one_matrix_on_both_routes(self):
        # M[0, 1] off by 5e-6 passes the symmetry check; the tree route reads
        # one triangle and the dense pinv Gram both, unless M is held mirrored
        lap = Laplacian.from_tree(TaskTree(parent={2: 1, 3: 1, 4: 2, 5: 2}, sigma=(1.0, 0.5, 0.7, 0.3, 0.9)))
        M = np.array(lap.M)
        M[0, 1] += 5e-6
        spec = KernelSpec(Linear(), Laplacian(M, lap.R))
        rng = np.random.default_rng(56)
        data = Dataset(X=rng.standard_normal((60, 2)), T=rng.integers(1, 6, 60), y=rng.standard_normal(60))
        tree, dense = fit_regressor(data, spec, 0.1), dense_fit(data, spec, 0.1)
        assert isinstance(tree.basis, TreeBasis)
        assert tree.log_marginal_likelihood() == pytest.approx(dense.log_marginal_likelihood(), rel=1e-10, abs=0)

    def test_matern_instance_kernel_stays_dense(self):
        rng = np.random.default_rng(53)
        data = Dataset(X=rng.standard_normal((20, 2)), T=rng.integers(1, 5, 20), y=rng.standard_normal(20))
        assert isinstance(fit_regressor(data, KernelSpec(Matern(), Tree(_TREE)), 0.1).basis, DenseBasis)

    def test_fit_builds_no_task_gram(self, monkeypatch):
        def fail(tree):
            raise AssertionError("the tree Gram was built")

        monkeypatch.setattr(kernels, "tree_task_kernel", fail)
        rng = np.random.default_rng(54)
        tree = Tree(random_tree(200, rng))
        data = Dataset(X=rng.standard_normal((100, 3)), T=rng.integers(1, 201, 100), y=rng.standard_normal(100))
        model = fit_regressor(data, KernelSpec(Linear(), tree), 0.1)
        model.predict_batch(rng.standard_normal((5, 3)), rng.integers(1, 201, 5))
        labels = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
        fit_classifier(labels, KernelSpec(Linear(), tree), 0.1).predict_proba(data.X[0], 7)
        assert "gram" not in vars(tree)

    def test_classifier_adds_the_node_covariances_to_the_converged_step_alone(self, monkeypatch):
        calls = []
        original = gp_core._tree_model_factor
        monkeypatch.setattr(gp_core, "_tree_model_factor", lambda *args: calls.append(1) or original(*args))
        rng = np.random.default_rng(55)
        data = Dataset(X=rng.standard_normal((40, 2)), T=rng.integers(1, 5, 40),
                       y=rng.integers(0, 2, 40).astype(float))
        model = fit_classifier(data, KernelSpec(Linear(), Tree(_TREE)), 0.1)
        assert isinstance(model.basis, TreeBasis) and model.state.iterations > 1 and calls == [1]


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        data = Dataset(
            X=rng.standard_normal((8, 2)), T=rng.uniform(0, 2, (8, 1)), y=rng.standard_normal(8)
        )
        spec = KernelSpec(
            instance_kernel=Matern(nu=1.5, lengthscale=1.3, amplitude=0.9),
            task_kernel=Matern(nu=2.5, lengthscale=0.6, amplitude=1.1),
        )
        tau2 = 0.25
        _, grad = lml_and_gradient(data, spec, tau2)
        h = 1e-5
        values = _param_values(spec, tau2)
        assert list(grad) == free_param_names(spec)
        for i, name in enumerate(grad):
            theta = math.log(values[i])
            hi, lo = list(values), list(values)
            hi[i], lo[i] = math.exp(theta + h), math.exp(theta - h)
            f_hi, _ = lml_and_gradient(data, *_with_param_values(spec, hi))
            f_lo, _ = lml_and_gradient(data, *_with_param_values(spec, lo))
            fd = (f_hi - f_lo) / (2 * h)
            assert grad[name] == pytest.approx(fd, rel=1e-4, abs=1e-8), name


def _matern_dlog_lengthscale(kernel: Matern, Z: np.ndarray) -> dict[str, np.ndarray]:
    """Textbook d K / d log(lengthscale): s^2 (-u m'(u)) times each dimension's share of u^2."""
    ls = np.array(kernel.lengthscale, dtype=float, ndmin=1)
    diff2 = ((Z[:, None, :] - Z[None, :, :]) / ls) ** 2
    u = np.sqrt(diff2.sum(axis=-1))
    if kernel.nu == 0.5:
        g = u * np.exp(-u)
    elif kernel.nu == 1.5:
        g = 3.0 * u**2 * np.exp(-math.sqrt(3.0) * u)
    else:
        g = 5.0 / 3.0 * u**2 * (1.0 + math.sqrt(5.0) * u) * np.exp(-math.sqrt(5.0) * u)
    g *= kernel.amplitude**2
    if not kernel.ard:
        return {"lengthscale": g}
    share = np.divide(diff2, (u**2)[..., None], out=np.zeros_like(diff2), where=(u > 0)[..., None])
    return {f"lengthscale[{d}]": g * share[..., d] for d in range(ls.size)}


def _textbook_lml_and_gradient(data: Dataset, spec: KernelSpec, tau2: float, jitter: float):
    """R&W eq. 5.9 with an explicit inverse: 0.5 tr((alpha alpha^T - A^-1) dK)."""
    n = data.n
    KX = instance_gram(spec.instance_kernel, data.X, data.X)
    KT = task_gram(spec.task_kernel, data.T, data.T)
    A = KX * KT + (tau2 + jitter) * np.eye(n)
    Ainv = np.linalg.inv(A)
    alpha = Ainv @ data.y
    lml = -0.5 * data.y @ alpha - 0.5 * np.linalg.slogdet(A)[1] - 0.5 * n * math.log(2 * math.pi)
    M = np.outer(alpha, alpha) - Ainv
    grad = {}
    for side, kernel, K_own, K_other, Z in (
        ("instance", spec.instance_kernel, KX, KT, data.X),
        ("task", spec.task_kernel, KT, KX, data.T),
    ):
        if isinstance(kernel, Matern):
            dKs = _matern_dlog_lengthscale(kernel, np.asarray(Z, dtype=float).reshape(n, -1))
            dKs["amplitude"] = 2.0 * K_own
            for name, dK in dKs.items():
                grad[f"{side}.{name}"] = 0.5 * np.sum(M * (dK * K_other))
    grad["tau2"] = 0.5 * np.trace(M) * tau2
    return lml, grad


_TREE = TaskTree(parent={2: 1, 3: 1, 4: 2}, sigma=(1.0, 0.6, 0.8, 0.4))
_ORACLE_SPECS = {
    **{
        f"matern{nu}-{'ard' if ard else 'iso'}": KernelSpec(
            Matern(nu=nu, lengthscale=(0.9, 1.6) if ard else 1.2, amplitude=1.3),
            Matern(nu=2.5 if nu == 0.5 else 0.5, lengthscale=0.7, amplitude=0.8),
        )
        for nu in (0.5, 1.5, 2.5)
        for ard in (False, True)
    },
    "linear-x-matern": KernelSpec(Linear(), Matern(nu=1.5, lengthscale=0.6, amplitude=1.1)),
    "matern-x-tree": KernelSpec(Matern(nu=2.5, lengthscale=(1.1, 0.8)), Tree(_TREE)),
    "matern-x-constant": KernelSpec(Matern(nu=1.5, lengthscale=0.9, amplitude=0.7), Constant(1.7)),
    "linear-x-laplacian": KernelSpec(Linear(), Laplacian.from_tree(_TREE)),
}


class TestGradientsAgainstExplicitInverse:
    @staticmethod
    def _check(data, spec, tau2):
        model = fit_regressor(data, spec, tau2)
        lml, grad = lml_and_gradient(data, spec, tau2)
        assert lml == pytest.approx(model.log_marginal_likelihood(), rel=1e-10)
        oracle_lml, oracle_grad = _textbook_lml_and_gradient(data, spec, tau2, model.jitter)
        assert lml == pytest.approx(oracle_lml, rel=1e-10)
        assert sorted(grad) == sorted(oracle_grad) == sorted(free_param_names(spec))
        for name, value in oracle_grad.items():
            assert grad[name] == pytest.approx(value, rel=1e-10), name
        return model

    @pytest.mark.parametrize("label", sorted(_ORACLE_SPECS))
    def test_matches_textbook_formula(self, label):
        spec = _ORACLE_SPECS[label]
        rng = np.random.default_rng(21)
        n = 14
        discrete = isinstance(spec.task_kernel, (Tree, Laplacian))
        T = rng.integers(1, _TREE.k + 1, size=n) if discrete else rng.uniform(0, 2, (n, 1))
        data = Dataset(X=rng.standard_normal((n, 2)), T=T, y=rng.standard_normal(n))
        self._check(data, spec, 0.15)

    @pytest.mark.parametrize("label", ["matern1.5-iso", "matern1.5-ard"])
    def test_matches_textbook_formula_above_the_inverse_base(self, label):
        # n = 150: the inverse recurses twice before LAPACK's base blocks
        rng = np.random.default_rng(22)
        n = 150
        data = Dataset(X=rng.standard_normal((n, 2)), T=rng.uniform(0, 2, (n, 1)), y=rng.standard_normal(n))
        self._check(data, _ORACLE_SPECS[label], 0.15)

    def test_matches_textbook_formula_with_jitter(self):
        # K = KX (x) G over repeated instances, G indefinite by 2e-5: the
        # Cholesky succeeds only once 1e-4 * mean(diag) is added
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2))
        data = Dataset(X=np.vstack([x, x]), T=np.repeat([1, 2], 4), y=rng.standard_normal(8))
        gram = np.array([[1.0, 1.0 + 2e-5], [1.0 + 2e-5, 1.0]])
        spec = KernelSpec(Matern(nu=2.5, lengthscale=1.1), FixedGram(gram))
        model = self._check(data, spec, 1e-6)
        assert model.jitter > 0


def _check_evidence_weights(A: np.ndarray, rng) -> float:
    """Check ``_evidence_weights`` of A's factor against ``np.linalg.inv``; returns the jitter added."""
    n = A.shape[0]
    L, jitter = chol_with_jitter(A)
    Ainv = np.linalg.inv(A + jitter * np.eye(n))
    alpha, S = rng.standard_normal(n), rng.standard_normal((n, n))
    S += S.T
    # a NaN-filled scratch: the inverse may only read what it wrote there
    W, trace_inv = _evidence_weights(L, alpha, np.full((n, n), np.nan))
    assert trace_inv == pytest.approx(np.trace(Ainv), rel=1e-10)
    assert np.vdot(W, S) == pytest.approx(alpha @ S @ alpha - np.sum(Ainv * S), rel=1e-10)
    return jitter


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 360, 601])
def test_evidence_weights_match_the_explicit_inverse(n):
    # orders about the recursive inverse's base of 64, and reg-gradient's n = 360
    rng = np.random.default_rng(n)
    Z = rng.uniform(0, 3, (n, 2))
    A = instance_gram(Matern(nu=1.5, lengthscale=0.7), Z, Z) + 0.1 * np.eye(n)
    assert _check_evidence_weights(A, rng) == 0.0


def test_evidence_weights_match_the_explicit_inverse_after_jitter():
    # one eigenvalue -3e-6: the Cholesky succeeds once 1e-5 * mean(diag) is added
    n = 129
    rng = np.random.default_rng(8)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigenvalues = rng.uniform(0.5, 1.5, n)
    eigenvalues[0] = -3e-6
    A = (Q * eigenvalues) @ Q.T
    assert _check_evidence_weights((A + A.T) / 2, rng) > 0


def test_peak_memory_below_eight_gram_arrays():
    n = 400
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.standard_normal((n, 3)), T=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))
    spec = KernelSpec(Matern(nu=1.5, lengthscale=1.2), Matern(nu=1.5, lengthscale=0.4))
    lml_and_gradient(data, spec, 0.1)  # imports and one-time set-up stay out of the count
    tracemalloc.start()
    try:
        lml_and_gradient(data, spec, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"


def _workspace_cases():
    """(data, spec, tau2) cases over the same 8 points, then over 150, for one held workspace per size.

    Each Matern smoothness, isotropic and ARD, on each side; linear x tree;
    the fixed-Gram case that needs jitter (the data of
    test_matches_textbook_formula_with_jitter); a candidate whose Cholesky
    fails even with jitter, then a good one.  The 150 points are above the
    recursive inverse's base, and their isotropic sides reuse held distances.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 2))
    X, y = np.vstack([x, x]), rng.standard_normal(8)  # repeated rows: zero distances off the diagonal
    continuous = Dataset(X=X, T=rng.uniform(0, 2, (8, 2)), y=y)
    discrete = Dataset(X=X, T=np.repeat([1, 2], 4), y=y)
    cases = []
    for nu in (0.5, 1.5, 2.5):
        for ard in (False, True):
            matern = Matern(nu=nu, lengthscale=(0.9, 1.6) if ard else 1.2, amplitude=1.3)
            other = Matern(nu=2.5 if nu == 0.5 else 0.5, lengthscale=0.7, amplitude=0.8)
            cases += [(continuous, KernelSpec(matern, other), 0.15),
                      (continuous, KernelSpec(other, matern), 0.15)]
    tree = TaskTree(parent={2: 1}, sigma=(1.0, 0.6))
    cases.append((discrete, KernelSpec(Linear(), Tree(tree)), 0.2))
    near_singular = FixedGram(np.array([[1.0, 1.0 + 2e-5], [1.0 + 2e-5, 1.0]]))
    cases.append((discrete, KernelSpec(Matern(nu=2.5, lengthscale=1.1), near_singular), 1e-6))
    indefinite = FixedGram(np.array([[1.0, 1.5], [1.5, 1.0]]))
    cases.append((discrete, KernelSpec(Matern(nu=0.5, lengthscale=0.8), indefinite), 1e-6))
    cases.append((continuous, KernelSpec(Matern(nu=0.5, lengthscale=(0.5, 2.0)), Matern()), 0.1))
    large = Dataset(X=rng.standard_normal((150, 2)), T=rng.uniform(0, 2, (150, 1)), y=rng.standard_normal(150))
    for ls in (0.8, 1.3):
        cases.append((large, KernelSpec(Matern(nu=1.5, lengthscale=ls), Matern(nu=2.5, lengthscale=0.4)), 0.1))
    cases.append((large, KernelSpec(Matern(nu=1.5, lengthscale=(0.8, 1.1)), Matern(lengthscale=0.6)), 0.1))
    return cases


def test_held_workspace_changes_no_bit():
    workspaces = {}
    failures = 0
    for data, spec, tau2 in _workspace_cases():
        workspace = workspaces.setdefault(data.n, _Workspace(data.n))
        try:
            fresh = lml_and_gradient(data, spec, tau2)
        except NumericalError:
            fresh, failures = None, failures + 1
        # whatever the arrays hold from the last call, none of it may be read
        for array in workspace._arrays.values():
            array.fill(np.nan)
        if fresh is None:
            with pytest.raises(NumericalError):
                lml_and_gradient(data, spec, tau2, _workspace=workspace)
        else:
            assert lml_and_gradient(data, spec, tau2, _workspace=workspace) == fresh, spec
    assert failures == 1  # the indefinite fixed Gram
    assert {"instance.dist", "task.dist"} <= set(workspaces[150]._held)


def test_held_workspace_allocates_no_gram_array():
    n = 400  # test_peak_memory_below_eight_gram_arrays's data and spec
    rng = np.random.default_rng(3)
    data = Dataset(X=rng.standard_normal((n, 3)), T=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))
    spec = KernelSpec(Matern(nu=1.5, lengthscale=1.2), Matern(nu=1.5, lengthscale=0.4))
    workspace = _Workspace(n)
    lml_and_gradient(data, spec, 0.1, _workspace=workspace)
    tracemalloc.start()
    try:
        lml_and_gradient(data, spec, 0.1, _workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"


def test_held_value_is_released_before_its_replacement_is_built():
    # a grid that moves to the next task kernel holds one task Gram at a time
    workspace = _Workspace(3)
    old = weakref.ref(workspace.held("task", Linear(), (), lambda: np.zeros((3, 3))))

    def build():
        assert old() is None
        return np.ones((3, 3))

    workspace.held("task", Constant(1.0), (), build)


@pytest.mark.parametrize("n", [6, 20], ids=["dense", "weight-space"])
def test_held_workspace_keeps_each_datasets_own_gram(n):
    # the same n and kernel objects over other points: r = 2 * 4 > 6 / 2, <= 20 / 2
    rng = np.random.default_rng(17)
    first, second = (
        Dataset(X=rng.standard_normal((n, 2)), T=rng.integers(1, 5, n), y=rng.standard_normal(n))
        for _ in range(2)
    )
    spec = KernelSpec(Linear(), Tree(_TREE))
    workspace = _Workspace(n)
    for data in (first, second, first):
        fresh = fit_regressor(data, spec, 0.1)
        model = fit_regressor(data, spec, 0.1, workspace=workspace)
        assert np.array_equal(model.alpha, fresh.alpha)
        assert np.array_equal(model.weights, fresh.weights)
        assert lml_and_gradient(data, spec, 0.1, _workspace=workspace) == lml_and_gradient(data, spec, 0.1)


def _recovery_data():
    """200 points of a linear x Matern(nu=3/2, lengthscale 1) model with noise 0.1."""
    rng = np.random.default_rng(42)
    n, m = 200, 2
    T = rng.uniform(0, 6, size=(n, 1))
    KT = task_gram(Matern(nu=1.5, lengthscale=1.0), T, T) + 1e-10 * np.eye(n)
    W = np.linalg.cholesky(KT) @ rng.standard_normal((n, m))
    X = rng.standard_normal((n, m))
    y = np.einsum("ij,ij->i", X, W) + rng.standard_normal(n) * math.sqrt(0.1)
    return Dataset(X=X, T=T, y=y)


LIN_MATERN = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(nu=1.5))


class TestTuning:
    def test_singleton_grid_returns_candidate(self):
        rng = np.random.default_rng(10)
        data = Dataset(X=rng.standard_normal((5, 2)), T=rng.uniform(0, 1, (5, 1)), y=rng.standard_normal(5))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=1.0))
        search = SearchConfig(method="grid", grid={"task.lengthscale": [0.42], "tau2": [0.2]})
        got = tune_hyperparameters(data, spec, search)
        assert got.spec.task_kernel.lengthscale == pytest.approx(0.42)
        assert got.tau2 == pytest.approx(0.2)

    def test_grid_argmax(self):
        rng = np.random.default_rng(11)
        data = Dataset(X=rng.standard_normal((20, 2)), T=rng.uniform(0, 1, (20, 1)), y=rng.standard_normal(20))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Constant(1.0))
        search = SearchConfig(method="grid", grid={"tau2": [1e-6, 1.0]})
        tau2 = tune_hyperparameters(data, spec, search).tau2
        lml_low = fit_regressor(data, spec, 1e-6).log_marginal_likelihood()
        lml_high = fit_regressor(data, spec, 1.0).log_marginal_likelihood()
        assert tau2 == (1e-6 if lml_low > lml_high else 1.0)

    def test_gradient_search_recovery(self):
        # data generated with task lengthscale 1 and noise 0.1; the tuned
        # log-lengthscale must land within 0.5 of the truth
        model = tune_hyperparameters(_recovery_data(), LIN_MATERN, SearchConfig(seed=0))
        assert abs(math.log(model.spec.task_kernel.lengthscale)) < 0.5
        assert 0.03 < model.tau2 < 0.3

    def test_gradient_search_builds_a_fixed_side_once(self, gram_builds):
        # the linear instance Gram: once for the search, once for the final fit
        tune_hyperparameters(_recovery_data(), LIN_MATERN, SearchConfig(n_restarts=2, max_iter=3))
        assert gram_builds == {"instance_gram": 2, "task_gram": 1}

    def test_gradient_search_deterministic(self):
        rng = np.random.default_rng(12)
        data = Dataset(X=rng.standard_normal((30, 2)), T=rng.uniform(0, 1, (30, 1)), y=rng.standard_normal(30))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern())
        m1 = tune_hyperparameters(data, spec, SearchConfig(seed=5, n_restarts=3))
        m2 = tune_hyperparameters(data, spec, SearchConfig(seed=5, n_restarts=3))
        assert m1.spec == m2.spec and m1.tau2 == m2.tau2

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tune_hyperparameters(scalar_data(), LIN_CONST, SearchConfig())

    @pytest.mark.parametrize(
        "spec, search, basis",
        [
            (KernelSpec(Matern(), Matern()),
             SearchConfig(method="grid", grid={"task.lengthscale": [0.3, 1.0], "tau2": [0.05, 0.5]}),
             DenseBasis),
            (KernelSpec(Matern(), Matern()), SearchConfig(seed=3, n_restarts=2, max_iter=20), DenseBasis),
            # r = 2 * 4 <= 40 / 2: every candidate takes the weight-space route
            (KernelSpec(Linear(), FixedGram(Tree(_TREE).gram)),
             SearchConfig(method="grid", grid={"tau2": [0.05, 0.5]}), WeightSpaceBasis),
            (KernelSpec(Linear(), Tree(_TREE)),
             SearchConfig(method="grid", grid={"tau2": [0.05, 0.5]}), TreeBasis),
        ],
        ids=["grid", "gradient", "weight-space-grid", "tree-precision-grid"],
    )
    def test_returned_model_is_bit_equal_to_a_fresh_fit(self, spec, search, basis):
        rng = np.random.default_rng(13)
        X, T = rng.standard_normal((40, 2)), rng.uniform(0, 1, (40, 1))
        if not isinstance(spec.task_kernel, Matern):
            T = rng.integers(1, 5, 40)
        data = Dataset(X=X, T=T, y=rng.standard_normal(40))
        model = tune_hyperparameters(data, spec, search)
        fresh = fit_regressor(data, model.spec, model.tau2)
        assert type(model.basis) is basis
        assert np.array_equal(model.chol, fresh.chol)
        assert np.array_equal(model.alpha, fresh.alpha)
        assert np.array_equal(model.weights, fresh.weights)
        assert model.half_logdet == fresh.half_logdet
        assert model.jitter == fresh.jitter

    def test_gradient_search_result_is_unchanged(self, monkeypatch):
        # the evaluations share one workspace of arrays and the task side's
        # held distances; the same search with a fresh workspace per
        # evaluation must return the same bits, at 40 points and at 150,
        # above the recursive inverse's base
        rng = np.random.default_rng(15)

        def draw(n):
            return Dataset(X=rng.standard_normal((n, 2)), T=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))

        small = draw(40)
        spec = KernelSpec(Matern(nu=2.5, lengthscale=(1.0, 0.8)), Matern(nu=0.5, lengthscale=0.5))
        search = SearchConfig(seed=4, n_restarts=2, max_iter=15)
        X_star, T_star = rng.standard_normal((3, 2)), rng.uniform(0, 1, (3, 1))
        datasets = [small, draw(150)]

        def result(data):
            model = tune_hyperparameters(data, spec, search)
            inst, task = model.spec.instance_kernel, model.spec.task_kernel
            got = [*inst.lengthscale, inst.amplitude, task.lengthscale, task.amplitude, model.tau2]
            return [float(v).hex() for v in (*got, *np.concatenate(model.predict_batch(X_star, T_star)))]

        shared = [result(data) for data in datasets]
        workspaces = []

        def unshared(data, spec, tau2, _workspace=None):
            workspaces.append(_workspace)
            return lml_and_gradient(data, spec, tau2)

        monkeypatch.setattr(gp_core, "lml_and_gradient", unshared)
        assert shared == [result(data) for data in datasets]
        assert workspaces and all(isinstance(w, _Workspace) for w in workspaces)
        assert {w.n for w in workspaces} == {40, 150}

    def test_each_restart_starts_from_its_own_draw(self, monkeypatch):
        # restart 0 starts at the template; restart k at its k-th unit-normal offset
        starts = []
        minimize = scipy.optimize.minimize

        def record(fun, x0, **options):
            starts.append(x0.copy())
            return minimize(fun, x0, **options)

        monkeypatch.setattr(scipy.optimize, "minimize", record)
        rng = np.random.default_rng(18)
        data = Dataset(X=rng.standard_normal((12, 2)), T=rng.uniform(0, 1, (12, 1)), y=rng.standard_normal(12))
        tune_hyperparameters(data, LIN_MATERN, SearchConfig(seed=9, n_restarts=3, max_iter=2))
        theta0 = np.array([math.log(v) for v in _param_values(LIN_MATERN, 0.1)])
        draws = np.random.default_rng(9)
        expected = [theta0] + [theta0 + draws.standard_normal(theta0.size) for _ in range(2)]
        np.testing.assert_array_equal(np.array(starts), np.array(expected))

    def test_every_grid_candidate_failing_raises(self):
        data = Dataset(X=[[1.0], [2.0]], T=np.array([1, 2]), y=[0.0, 1.0])
        bad = KernelSpec(
            instance_kernel=Linear(), task_kernel=FixedGram(np.array([[1.0, 5.0], [5.0, 1.0]]))
        )
        search = SearchConfig(method="grid", grid={"tau2": [1e-8, 1e-6]})
        message = r"every grid candidate failed to fit \(2 candidates\); the last: Cholesky"
        with pytest.raises(NumericalError, match=message) as info:
            tune_hyperparameters(data, bad, search)
        assert isinstance(info.value.__cause__, NumericalError)

    def test_every_gradient_restart_failing_raises(self):
        # equal instances make K = s^2 G[t, t'] at any lengthscale, and the
        # indefinite G keeps it indefinite at every start the restarts draw
        n = 20
        data = Dataset(X=np.zeros((n, 1)), T=np.arange(n) % 2 + 1,
                       y=np.random.default_rng(16).standard_normal(n))
        bad = KernelSpec(Matern(), FixedGram(np.array([[1.0, 5.0], [5.0, 1.0]])))
        search = SearchConfig(n_restarts=3, tau2_init=1e-3)
        with pytest.raises(NumericalError, match="hyperparameter search failed for every restart"):
            tune_hyperparameters(data, bad, search)

    def test_grid_builds_each_distinct_gram_once(self, gram_builds):
        # 3 task lengthscales x 2 tau2: one instance Gram, one task Gram per lengthscale
        rng = np.random.default_rng(14)
        data = Dataset(X=rng.standard_normal((30, 2)), T=rng.uniform(0, 1, (30, 1)), y=rng.standard_normal(30))
        spec = KernelSpec(instance_kernel=Matern(), task_kernel=Matern())
        grid = {"task.lengthscale": [0.3, 0.6, 1.0], "tau2": [0.05, 0.5]}
        model = tune_hyperparameters(data, spec, SearchConfig(method="grid", grid=grid))
        assert isinstance(model.basis, DenseBasis)
        assert gram_builds == {"instance_gram": 1, "task_gram": 3}

    def test_tau2_grid_builds_the_node_statistics_once(self, monkeypatch):
        calls = []

        def count(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or original(*args))

        for owner, name in ((gp_core.TreePrecision, "node_outer"), (gp_core.TreePrecision, "phi_t"),
                            (kernels, "check_tasks")):
            count(owner, name)
        rng = np.random.default_rng(16)
        data = Dataset(X=rng.standard_normal((40, 2)), T=rng.integers(1, 5, 40), y=rng.standard_normal(40))
        search = SearchConfig(method="grid", grid={"tau2": [0.05, 0.2, 0.5]})
        # the training tasks are checked, and each node's X_t^T X_t and X_t^T y built, once for the grid
        model = tune_hyperparameters(data, KernelSpec(Linear(), Tree(_TREE)), search)
        assert isinstance(model.basis, TreeBasis)
        assert sorted(calls) == ["check_tasks", "node_outer", "phi_t"]

    def test_grid_matches_discrete_task_kernels_by_identity(self, gram_builds):
        rng = np.random.default_rng(15)
        data = Dataset(X=rng.standard_normal((12, 2)), T=rng.integers(1, 3, 12), y=rng.standard_normal(12))
        spec = KernelSpec(Matern(), FixedGram(np.array([[1.0, 0.5], [0.5, 1.0]])))
        grid = {"instance.lengthscale": [0.5, 2.0], "tau2": [0.05, 0.5]}
        tune_hyperparameters(data, spec, SearchConfig(method="grid", grid=grid))
        assert gram_builds == {"instance_gram": 2, "task_gram": 1}


class TestParameterLayout:
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(Matern(lengthscale=1.3, amplitude=0.9), Matern(nu=2.5, lengthscale=0.6)),
            KernelSpec(Matern(lengthscale=(0.7, 1.9, 2.2)), Matern(lengthscale=(0.4, 0.8), amplitude=3.0)),
            KernelSpec(Linear(), Matern(nu=0.5, lengthscale=0.25, amplitude=1.7)),
            KernelSpec(Matern(lengthscale=(1.1, 0.8)), Tree(_TREE)),
        ],
        ids=["isotropic", "ard", "linear-x-matern", "matern-x-tree"],
    )
    def test_values_round_trip(self, spec):
        values = _param_values(spec, 0.3)
        assert len(values) == len(free_param_names(spec))
        assert _with_param_values(spec, values) == (spec, 0.3)

    def test_grid_candidates_order_ignored_keys_and_repeats(self):
        spec = KernelSpec(Linear(), Matern(lengthscale=0.5, amplitude=2.0))
        grid = {
            "tau2": [0.1, 0.1, 0.5],  # a repeated value counts once
            "instance.amplitude": [7.0, 8.0],  # a linear instance kernel has no amplitude
            "task.lengthscale": [0.2, 0.3],
        }
        # product over the sorted names that the spec has: task.lengthscale, then tau2
        expected = [
            (KernelSpec(Linear(), Matern(lengthscale=ls, amplitude=2.0)), tau2)
            for ls in (0.2, 0.3)
            for tau2 in (0.1, 0.5)
        ]
        assert grid_candidates(spec, 0.05, grid) == expected

    @pytest.mark.parametrize(
        "key", ["task.lenghtscale", "lengthscale", "task.lengthscale[x]", "task.lengthscale[01]",
                "noise.amplitude", "tau", "instance.tau2"]
    )
    def test_unknown_grid_key_is_rejected_by_name(self, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            SearchConfig(method="grid", grid={key: [0.1, 0.3, 1.0]})

    def test_every_producible_grid_key_is_accepted(self):
        keys = ["tau2", "instance.amplitude", "task.lengthscale", "instance.lengthscale[0]",
                "task.lengthscale[12]"]
        SearchConfig(method="grid", grid={key: [1.0] for key in keys})

    @pytest.mark.parametrize(
        "field, value",
        [("n_restarts", 0), ("n_restarts", 2.5), ("n_restarts", True), ("n_restarts", "3"),
         ("max_iter", 0), ("max_iter", -1), ("max_iter", 10.0),
         ("grad_tol", math.nan), ("grad_tol", math.inf), ("grad_tol", 0.0), ("grad_tol", -1e-5),
         ("grad_tol", "1e-5")],
    )
    def test_bad_gradient_field_is_rejected_by_name(self, field, value):
        # the rules of the config parser: integers of at least 1, a finite tolerance above 0
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SearchConfig(**{field: value})

    def test_gradient_fields_take_numpy_numbers(self):
        search = SearchConfig(n_restarts=np.int64(2), max_iter=np.int32(3), grad_tol=np.float32(1e-4))
        assert search.n_restarts == 2 and search.max_iter == 3


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=np.empty((0, 2)), T=np.empty((0, 1)), y=np.empty(0))
        with pytest.raises(ValueError):
            Dataset(X=[[np.nan]], T=np.zeros((1, 1)), y=[1.0])
        with pytest.raises(ValueError):
            Dataset(X=[[1.0]], T=np.zeros((2, 1)), y=[1.0])

    def test_subset_and_variants(self):
        d = Dataset(X=[[1.0], [2.0]], T=np.array([1, 2]), y=[0.0, 1.0])
        assert d.has_discrete_tasks
        sub = d.subset([1])
        assert sub.n == 1 and sub.y[0] == 1.0
