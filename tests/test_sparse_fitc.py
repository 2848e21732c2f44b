import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp import sparse_fitc
from vcgp._linalg import solve_lower
from vcgp.data_io import synth_vcm, threshold_labels
from vcgp.gp_classify import (
    FittedClassifier,
    LowRankDiag,
    fit_classifier,
    laplace_mode,
    logistic_gaussian_integral,
)
from vcgp.gp_core import Dataset, DenseBasis, FittedRegressor, WeightBasis, fit_regressor
from vcgp.kernels import (
    KernelSpec,
    Linear,
    Matern,
    Tree,
    product_kernel_diag,
    product_kernel_matrix,
)
from vcgp.model_io import save_model
from vcgp.multitask_hb import random_tree
from vcgp.sparse_fitc import (
    InducingBasis,
    InducingSet,
    _fitc_parts,
    fit_fitc,
    fit_fitc_classifier,
    select_inducing,
)

SPEC = KernelSpec(
    instance_kernel=Matern(nu=1.5, lengthscale=2.0),
    task_kernel=Matern(nu=1.5, lengthscale=0.3),
)


def make_data(n, m=2, seed=0, tau2=0.05):
    return synth_vcm(n, m=m, d=1, task_kernel=SPEC.task_kernel, tau2=tau2, seed=seed).dataset


class TestSelectInducing:
    def test_all_points(self):
        data = make_data(12)
        ind = select_inducing(data, 12, seed=0)
        assert sorted(ind.indices) == list(range(12))

    def test_deterministic(self):
        data = make_data(40)
        a = select_inducing(data, 10, seed=7)
        b = select_inducing(data, 10, seed=7)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_out_of_range(self):
        data = make_data(5)
        with pytest.raises(ValueError):
            select_inducing(data, 6, seed=0)
        with pytest.raises(ValueError):
            select_inducing(data, 0, seed=0)

    def test_uniform_frequency(self):
        data = make_data(100)
        counts = np.zeros(100)
        trials = 10_000
        for t in range(trials):
            counts[select_inducing(data, 10, seed=t).indices] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.1) < 0.01)


class TestFITCRegression:
    def test_exact_when_inducing_is_training_set(self):
        data = make_data(80)
        exact = fit_regressor(data, SPEC, 0.05)
        fitc = fit_fitc(data, SPEC, 0.05, InducingSet(X=data.X, T=data.T))
        rng = np.random.default_rng(1)
        Xs, Ts = rng.standard_normal((30, 2)), rng.uniform(0, 1, (30, 1))
        me, ve = exact.predict_batch(Xs, Ts)
        mf, vf = fitc.predict_batch(Xs, Ts)
        np.testing.assert_allclose(mf, me, atol=1e-6)
        np.testing.assert_allclose(vf, ve, atol=1e-6)

    def test_rank_one_smoke(self):
        data = make_data(25)
        fitc = fit_fitc(data, SPEC, 0.05, select_inducing(data, 1, seed=0))
        pd = fitc.predict(np.zeros(2), np.array([[0.5]]))
        assert np.isfinite(pd.mean)
        assert pd.total_var > 0

    def test_inducing_permutation_invariance(self):
        data = make_data(60)
        ind = select_inducing(data, 15, seed=3)
        perm = np.random.default_rng(4).permutation(15)
        ind_perm = InducingSet(X=ind.X[perm], T=ind.T[perm])
        rng = np.random.default_rng(5)
        Xs, Ts = rng.standard_normal((10, 2)), rng.uniform(0, 1, (10, 1))
        m1, v1 = fit_fitc(data, SPEC, 0.05, ind).predict_batch(Xs, Ts)
        m2, v2 = fit_fitc(data, SPEC, 0.05, ind_perm).predict_batch(Xs, Ts)
        np.testing.assert_allclose(m1, m2, atol=1e-8)
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_close_to_exact_at_moderate_rank(self):
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(nu=1.5, lengthscale=0.3))
        res = synth_vcm(900, m=3, d=1, task_kernel=spec.task_kernel, tau2=0.05, seed=2)
        data = res.dataset.subset(np.arange(800))
        test = res.dataset.subset(np.arange(800, 900))
        exact = fit_regressor(data, spec, 0.05)
        fitc = fit_fitc(data, spec, 0.05, select_inducing(data, 80, seed=6))
        me, _ = exact.predict_batch(test.X, test.T)
        mf, _ = fitc.predict_batch(test.X, test.T)
        assert np.mean(np.abs(me - mf)) < 0.05 * np.std(data.y)

    def test_runtime_scales_subquadratically_in_n(self):
        # doubling n at fixed p must less than triple the fit time; the two
        # sizes alternate so a change in host speed hits both alike
        p = 64
        sizes = (1500, 3000)
        problems = {}
        for n in sizes:
            data = make_data(n, seed=8)
            problems[n] = (data, select_inducing(data, p, seed=9))
        best = dict.fromkeys(sizes, np.inf)
        for _ in range(3):
            for n in sizes:
                data, ind = problems[n]
                t0 = time.perf_counter()
                fit_fitc(data, SPEC, 0.05, ind)
                best[n] = min(best[n], time.perf_counter() - t0)
        assert best[3000] < 3.0 * best[1500]

    def test_invalid_tau2(self):
        data = make_data(10)
        with pytest.raises(ValueError):
            fit_fitc(data, SPEC, 0.0, select_inducing(data, 5, seed=0))


class TestFITCClassification:
    def test_matches_exact_classifier_when_inducing_is_training_set(self):
        base = make_data(60, seed=11)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        exact = fit_classifier(data, SPEC, 0.1)
        fitc = fit_fitc_classifier(data, SPEC, 0.1, InducingSet(X=data.X, T=data.T))
        rng = np.random.default_rng(12)
        Xs, Ts = rng.standard_normal((20, 2)), rng.uniform(0, 1, (20, 1))
        np.testing.assert_allclose(
            fitc.predict_proba_batch(Xs, Ts), exact.predict_proba_batch(Xs, Ts), atol=1e-6
        )

    def test_probabilities_in_unit_interval(self):
        base = make_data(120, seed=13)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        fitc = fit_fitc_classifier(data, SPEC, 0.1, select_inducing(data, 20, seed=14))
        p = fitc.predict_proba_batch(data.X, data.T)
        assert np.all((p > 0) & (p < 1))

    def test_rejects_non_binary_labels(self):
        data = make_data(10, seed=15)
        with pytest.raises(ValueError):
            fit_fitc_classifier(data, SPEC, 0.1, select_inducing(data, 5, seed=0))


def dense_laplace_proba(state, Ks, prior):
    """Dense-route probabilities: cross-covariances ``Ks`` (n x q) against
    the n x n Laplace factor of ``state``."""
    U = solve_lower(state.B_chol, np.sqrt(state.W)[:, None] * Ks)
    return logistic_gaussian_integral(Ks.T @ state.dual, prior - np.einsum("ij,ij->j", U, U))


class TestFITCClassifierAgainstDenseSurrogate:
    """The Woodbury route against dense Laplace on ``V^T V + diag(lam)``."""

    def test_matches_dense_laplace_at_low_rank(self):
        base = make_data(150, seed=16)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        tau2 = 0.1
        inducing = select_inducing(data, 25, seed=17)
        fitc = fit_fitc_classifier(data, SPEC, tau2, inducing)
        Luu, V, lam, _ = _fitc_parts(data, SPEC, tau2, inducing)
        dense = laplace_mode(V.T @ V + np.diag(lam), data.y)
        assert fitc.state.B_chol.shape == (25, 25)
        np.testing.assert_allclose(fitc.mode, dense.mode, atol=1e-6)
        np.testing.assert_allclose(fitc.state.dual, dense.dual, atol=1e-6)
        assert fitc.log_marginal_likelihood() == pytest.approx(
            dense.log_marginal_likelihood(), abs=1e-6
        )
        rng = np.random.default_rng(18)
        Xs, Ts = rng.standard_normal((30, 2)), rng.uniform(0, 1, (30, 1))
        Ku = product_kernel_matrix(inducing.X, inducing.T, Xs, Ts, SPEC)
        Ks = V.T @ solve_lower(Luu, Ku)
        expected = dense_laplace_proba(dense, Ks, product_kernel_diag(Xs, Ts, SPEC) + tau2)
        np.testing.assert_allclose(fitc.predict_proba_batch(Xs, Ts), expected, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 15),
        scale=st.floats(0.1, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_woodbury_newton_matches_dense_oracle(self, n, p, scale, seed):
        rng = np.random.default_rng(seed)
        V = scale * rng.standard_normal((p, n))
        lam = rng.uniform(0.01, 2.0, n)
        y = rng.integers(0, 2, n).astype(float)
        low = laplace_mode(LowRankDiag(V, lam), y)
        dense = laplace_mode(V.T @ V + np.diag(lam), y)
        np.testing.assert_allclose(low.mode, dense.mode, atol=1e-6)
        np.testing.assert_allclose(low.dual, dense.dual, atol=1e-6)
        assert low.log_marginal_likelihood() == pytest.approx(
            dense.log_marginal_likelihood(), abs=1e-6
        )
        # test points whose cross-covariance lies in the span of V, as in FITC
        w = rng.standard_normal((p, 8))
        prior = np.einsum("ij,ij->j", w, w) + rng.uniform(0.0, 1.0, 8)
        u = solve_lower(low.B_chol, w)
        var = prior - np.einsum("ij,ij->j", w, w) + np.einsum("ij,ij->j", u, u)
        proba = logistic_gaussian_integral(w.T @ (V @ low.dual), var)
        np.testing.assert_allclose(proba, dense_laplace_proba(dense, V.T @ w, prior), atol=1e-6)

    def test_fit_allocates_no_n_by_n_array(self):
        n, p = 3000, 50
        rng = np.random.default_rng(19)
        data = Dataset(
            X=rng.standard_normal((n, 2)),
            T=rng.uniform(0, 1, (n, 1)),
            y=rng.integers(0, 2, n).astype(float),
        )
        inducing = select_inducing(data, p, seed=20)
        tracemalloc.start()
        try:
            fit_fitc_classifier(data, SPEC, 0.1, inducing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def fitted(likelihood, route):
    """A fitted model of ``likelihood`` on ``route``, over m = 2 features."""
    if route == "weight-space":
        rng = np.random.default_rng(21)
        data = Dataset(
            X=rng.standard_normal((40, 2)), T=rng.integers(1, 6, size=40), y=rng.standard_normal(40)
        )
        return fit_regressor(data, KernelSpec(Linear(), Tree(random_tree(5, rng))), 0.1)
    data = make_data(30, seed=22)
    if likelihood == "classification":
        data = Dataset(X=data.X, T=data.T, y=threshold_labels(data.y))
    if route == "fitc":
        fit = fit_fitc if likelihood == "regression" else fit_fitc_classifier
        return fit(data, SPEC, 0.1, select_inducing(data, 8, seed=23))
    return (fit_regressor if likelihood == "regression" else fit_classifier)(data, SPEC, 0.1)


class TestOneModelClassPerLikelihood:
    """FITC fits return the exact model classes with an inducing-point basis."""

    @pytest.mark.parametrize(
        "likelihood, route, cls, basis",
        [
            ("regression", "dense", FittedRegressor, DenseBasis),
            ("regression", "weight-space", FittedRegressor, WeightBasis),
            ("regression", "fitc", FittedRegressor, InducingBasis),
            ("classification", "dense", FittedClassifier, DenseBasis),
            ("classification", "fitc", FittedClassifier, InducingBasis),
        ],
    )
    def test_wrong_feature_count_is_rejected_alike(self, likelihood, route, cls, basis):
        model = fitted(likelihood, route)
        assert type(model) is cls and type(model.basis) is basis
        predict = model.predict_batch if likelihood == "regression" else model.predict_proba_batch
        with pytest.raises(ValueError, match="test instances have 3 features, training has 2"):
            predict(np.zeros((4, 3)), model.data.T[:4])

    def test_fitc_classifier_name_is_the_exact_class(self):
        assert sparse_fitc.FittedFITCClassifier is FittedClassifier

    @pytest.mark.parametrize("likelihood", ["regression", "classification"])
    def test_fitc_models_are_not_saved(self, tmp_path, likelihood):
        with pytest.raises(TypeError, match="InducingBasis"):
            save_model(fitted(likelihood, "fitc"), tmp_path / "fitc.bin")
        assert not (tmp_path / "fitc.bin").exists()

    def test_fitc_regression_has_no_evidence_yet(self):
        with pytest.raises(NotImplementedError, match="FITC regression has no evidence yet"):
            fitted("regression", "fitc").log_marginal_likelihood()
