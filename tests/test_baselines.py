import numpy as np
import pytest

from vcgp._linalg import NumericalError
from vcgp.baselines import (
    fan_zhang_cv,
    fan_zhang_fit_predict,
    matern_feature_map,
    primal_oracle_predict,
)
from vcgp.data_io import synth_vcm
from vcgp.experiments import run_method, run_settings
from vcgp.gp_core import Dataset, fit_regressor
from vcgp.kernels import Constant, FixedGram, KernelSpec, Linear, Matern, product_kernel_diag


LIN_CONST = KernelSpec(instance_kernel=Linear(), task_kernel=Constant(1.0))


def iid_mae(train, test, spec, tau2):
    """MAE of the plain GP (constant task kernel), the model ``run_method`` fits for iid."""
    mean, _ = fit_regressor(train, spec, tau2).predict_batch(test.X, test.T)
    return float(np.mean(np.abs(mean - test.y)))


class TestIidGP:
    def test_equals_constant_task_kernel_gp(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            X=rng.standard_normal((15, 2)), T=rng.uniform(0, 1, (15, 1)), y=rng.standard_normal(15)
        )
        train, test = data.subset(np.arange(10)), data.subset(np.arange(10, 15))
        settings = run_settings({"model": {"tau2": 0.3}})
        got = run_method("iid-lin", train, test, settings, seed=0)
        assert got == iid_mae(train, test, LIN_CONST, 0.3)

    def test_single_point_matches_normal_equations(self):
        data = Dataset(X=[[2.0]], T=np.zeros((1, 1)), y=[1.0])
        model = fit_regressor(data, LIN_CONST, 0.5)
        # posterior for 1 point, unit prior: w_hat = x y / (x^2 + tau2)
        pd = model.predict([2.0], np.zeros(1))
        assert pd.mean == pytest.approx(4.0 / 4.5)

    def test_loses_to_varying_coefficient_model_on_drifting_data(self):
        task_kernel = Matern(nu=1.5, lengthscale=0.15)
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=task_kernel)
        wins = 0
        seeds = 20
        for s in range(seeds):
            res = synth_vcm(280, m=2, d=1, task_kernel=task_kernel, tau2=0.05, seed=s)
            train = res.dataset.subset(np.arange(80))
            test = res.dataset.subset(np.arange(80, 280))
            wins += iid_mae(train, test, LIN_CONST, 0.05) >= iid_mae(train, test, spec, 0.05)
        assert wins > seeds / 2


class TestConcatGP:
    """``run_method``'s concat path: a plain GP over the (x, t) concatenation."""

    def test_constant_task_matches_iid_with_bias_feature(self):
        rng = np.random.default_rng(1)
        n, c = 13, 1.7
        X = rng.standard_normal((n, 2))
        T = np.full((n, 1), c)
        y = rng.standard_normal(n)
        settings = run_settings({"model": {"tau2": 0.2}})
        train, test = Dataset(X=X[:8], T=T[:8], y=y[:8]), Dataset(X=X[8:], T=T[8:], y=y[8:])
        concat = run_method("concat-lin", train, test, settings, seed=0)
        # same Gram: inner products plus the constant offset c^2
        Xb = np.hstack([X, np.full((n, 1), c)])
        biased = Dataset(X=Xb, T=rng.uniform(0, 1, (n, 1)), y=y)
        train, test = biased.subset(np.arange(8)), biased.subset(np.arange(8, n))
        iid = run_method("iid-lin", train, test, settings, seed=0)
        assert concat == pytest.approx(iid, abs=1e-10)

    def test_matern_zero_distance(self):
        k = Matern(nu=1.5, lengthscale=1.0, amplitude=1.4)
        rng = np.random.default_rng(2)
        X, T = rng.standard_normal((4, 2)), rng.uniform(0, 1, (4, 1))
        spec = KernelSpec(instance_kernel=k, task_kernel=Constant(1.0))
        data = Dataset(X=np.hstack([X, T]), T=np.zeros((4, 1)), y=rng.standard_normal(4))
        model = fit_regressor(data, spec, 0.1)
        pd = model.predict(data.X[0], data.T[0])
        prior = product_kernel_diag(data.X[:1], data.T[:1], spec)
        assert prior[0] == pytest.approx(1.4**2)
        assert np.isfinite(pd.mean)

    def test_rejects_discrete_tasks(self):
        data = Dataset(X=[[1.0]], T=np.array([1]), y=[0.0])
        with pytest.raises(ValueError, match="continuous task variables"):
            run_method("concat-lin", data, data, run_settings({"model": {"tau2": 0.1}}), seed=0)

    def test_smoke_at_thousand_points(self):
        res = synth_vcm(1010, m=3, d=2, task_kernel=Matern(lengthscale=0.3), tau2=0.1, seed=3)
        train, test = res.dataset.subset(np.arange(1000)), res.dataset.subset(np.arange(1000, 1010))
        settings = run_settings({"model": {"tau2": 0.1, "instance_matern": {"lengthscale": 1.0}}})
        assert np.isfinite(run_method("concat-mat", train, test, settings, seed=0))


class TestFanZhang:
    def test_infinite_bandwidth_is_ols(self):
        rng = np.random.default_rng(4)
        n, m = 30, 3
        X = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        data = Dataset(X=X, T=rng.uniform(0, 1, (n, 1)), y=y)
        pred = fan_zhang_fit_predict(data, X[:5], data.T[:5], bandwidth=1e9, ridge=0.0)
        w_ols = np.linalg.lstsq(X, y, rcond=None)[0]
        np.testing.assert_allclose(pred, X[:5] @ w_ols, atol=1e-8)

    def test_single_point_exact_interpolation(self):
        data = Dataset(X=[[1.0]], T=np.zeros((1, 1)), y=[2.0])
        pred = fan_zhang_fit_predict(data, [[1.0]], np.zeros((1, 1)), bandwidth=1.0, ridge=0.0)
        assert pred[0] == pytest.approx(2.0)

    def test_matches_dense_weighted_least_squares(self):
        rng = np.random.default_rng(5)
        n, m = 20, 2
        data = Dataset(X=rng.standard_normal((n, m)), T=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n))
        h, lam = 0.25, 1e-3
        t_star = np.array([[0.4]])
        x_star = rng.standard_normal((1, m))
        pred = fan_zhang_fit_predict(data, x_star, t_star, h, lam)
        D = np.diag(np.exp(-0.5 * np.sum((data.T - t_star) ** 2, axis=1) / h**2))
        w = np.linalg.inv(data.X.T @ D @ data.X + lam * np.eye(m)) @ data.X.T @ D @ data.y
        assert pred[0] == pytest.approx(float((x_star @ w)[0]), abs=1e-8)

    def test_singular_without_ridge_raises(self):
        # one observation, two features: the local normal matrix is singular
        data = Dataset(X=[[1.0, 2.0]], T=np.zeros((1, 1)), y=[1.0])
        with pytest.raises(NumericalError, match="ridge"):
            fan_zhang_fit_predict(data, [[1.0, 2.0]], np.zeros((1, 1)), bandwidth=1.0, ridge=0.0)

    def test_small_bandwidth_localizes(self):
        # two clusters with different local slopes; a small bandwidth must
        # recover the slope of the cluster at the test task
        X = np.array([[1.0], [2.0], [1.0], [2.0]])
        T = np.array([[0.0], [0.0], [10.0], [10.0]])
        y = np.array([1.0, 2.0, 3.0, 6.0])  # slope 1 at t=0, slope 3 at t=10
        data = Dataset(X=X, T=T, y=y)
        pred = fan_zhang_fit_predict(data, [[1.0]], [[10.0]], bandwidth=0.1, ridge=1e-10)
        assert pred[0] == pytest.approx(3.0, abs=1e-6)

    def test_feature_map_variant(self):
        rng = np.random.default_rng(6)
        res = synth_vcm(60, m=2, d=1, task_kernel=Matern(lengthscale=0.3), tau2=0.05, seed=7)
        fmap = matern_feature_map(res.dataset, Matern(lengthscale=1.5), n_basis=20, seed=8)
        pred = fan_zhang_fit_predict(
            res.dataset, res.dataset.X[:4], res.dataset.T[:4], 0.3, 1e-3, feature_map=fmap
        )
        assert pred.shape == (4,) and np.all(np.isfinite(pred))
        # oracle: explicit weighted ridge in feature space
        Phi = fmap(res.dataset.X)
        t0 = res.dataset.T[:1]
        D = np.diag(np.exp(-0.5 * np.sum((res.dataset.T - t0) ** 2, axis=1) / 0.3**2))
        w = np.linalg.solve(Phi.T @ D @ Phi + 1e-3 * np.eye(20), Phi.T @ D @ res.dataset.y)
        assert pred[0] == pytest.approx(float((fmap(res.dataset.X[:1]) @ w)[0]), abs=1e-8)

    def test_cv_returns_grid_member_deterministically(self):
        res = synth_vcm(50, m=2, d=1, task_kernel=Matern(lengthscale=0.2), tau2=0.05, seed=9)
        hs, lams = [0.1, 0.5], [1e-4, 1e-2]
        a = fan_zhang_cv(res.dataset, hs, lams, n_folds=4, seed=1)
        b = fan_zhang_cv(res.dataset, hs, lams, n_folds=4, seed=1)
        assert a == b
        assert a[0] in hs and a[1] in lams

    def test_parameter_validation(self):
        data = Dataset(X=[[1.0]], T=np.zeros((1, 1)), y=[1.0])
        with pytest.raises(ValueError):
            fan_zhang_fit_predict(data, [[1.0]], np.zeros((1, 1)), bandwidth=0.0, ridge=0.0)
        with pytest.raises(ValueError):
            fan_zhang_fit_predict(data, [[1.0]], np.zeros((1, 1)), bandwidth=1.0, ridge=-1.0)


class TestPrimalOracle:
    def test_scalar_case(self):
        data = Dataset(X=[[1.0]], T=np.array([1]), y=[1.0])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.array([[1.0]])))
        pd = primal_oracle_predict(data, spec, 1.0, [1.0], 1)
        assert pd.mean == pytest.approx(0.5)
        assert pd.total_var == pytest.approx(1.5)

    def test_diagonal_task_gram_gives_independent_models(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        tasks = np.array([1, 1, 1, 2, 2, 2])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.eye(2)))
        full = Dataset(X=X, T=tasks, y=y)
        only1 = Dataset(X=X[:3], T=tasks[:3], y=y[:3])
        x = rng.standard_normal(2)
        got = primal_oracle_predict(full, spec, 0.2, x, 1)
        lone_spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.eye(1)))
        want = primal_oracle_predict(only1, lone_spec, 0.2, x, 1)
        assert got.mean == pytest.approx(want.mean, abs=1e-10)
        assert got.total_var == pytest.approx(want.total_var, abs=1e-10)

    def test_size_limits(self):
        rng = np.random.default_rng(11)
        data = Dataset(X=rng.standard_normal((51, 2)), T=np.ones(51, dtype=int), y=np.zeros(51))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.eye(1)))
        with pytest.raises(ValueError):
            primal_oracle_predict(data, spec, 0.1, np.zeros(2), 1)

    def test_requires_linear_instance_kernel(self):
        data = Dataset(X=[[1.0]], T=np.array([1]), y=[1.0])
        spec = KernelSpec(instance_kernel=Matern(), task_kernel=FixedGram(np.eye(1)))
        with pytest.raises(ValueError):
            primal_oracle_predict(data, spec, 0.1, [1.0], 1)

    def test_one_coordinate_row_is_one_test_task(self):
        # a row of d = 2 task coordinates, as the model's predict takes it
        rng = np.random.default_rng(13)
        data = Dataset(X=rng.standard_normal((8, 2)), T=rng.uniform(0, 1, (8, 2)), y=rng.standard_normal(8))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(nu=1.5, lengthscale=0.5))
        x, t = rng.standard_normal(2), np.array([0.3, 0.6])
        got = primal_oracle_predict(data, spec, 0.2, x, t)
        want = fit_regressor(data, spec, 0.2).predict(x, t)
        assert got.mean == pytest.approx(want.mean, abs=1e-8)
        assert got.latent_var == pytest.approx(want.latent_var, abs=1e-8)

    def test_batch_equivalence_with_gp(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            B = rng.standard_normal((k, k + 1))
            spec = KernelSpec(
                instance_kernel=Linear(), task_kernel=FixedGram(B @ B.T / k + 0.05 * np.eye(k))
            )
            data = Dataset(
                X=rng.standard_normal((n, m)),
                T=rng.integers(1, k + 1, size=n),
                y=rng.standard_normal(n),
            )
            tau2 = float(rng.uniform(0.05, 0.5))
            model = fit_regressor(data, spec, tau2)
            x = rng.standard_normal(m)
            t = int(rng.integers(1, k + 1))
            got = model.predict(x, t)
            want = primal_oracle_predict(data, spec, tau2, x, t)
            assert got.mean == pytest.approx(want.mean, abs=1e-8)
            assert got.latent_var == pytest.approx(want.latent_var, abs=1e-8)
