import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp import kernels, sparse_fitc
from vcgp._linalg import solve_lower
from vcgp.data_io import synth_vcm, threshold_labels
from vcgp.gp_classify import (
    FittedClassifier,
    fit_classifier,
    laplace_mode,
    logistic_gaussian_integral,
)
from vcgp.gp_core import (
    Dataset,
    DenseBasis,
    FittedRegressor,
    LowRankDiag,
    TreeBasis,
    WeightSpaceBasis,
    _latent_predictive,
    _weight_features,
    fit_regressor,
)
from vcgp.kernels import (
    FixedGram,
    KernelSpec,
    Linear,
    Matern,
    Tree,
    product_kernel_diag,
    product_kernel_matrix,
)
from vcgp.multitask_hb import random_tree
from vcgp.sparse_fitc import FITCBasis, InducingSet, select_inducing

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

    @pytest.mark.parametrize("X, T", [([[np.nan]], [[0.0]]), ([[1.0], [np.inf]], [1, 2])])
    def test_non_finite_inducing_row_is_rejected(self, X, T):
        with pytest.raises(ValueError, match="InducingSet X must be finite"):
            InducingSet(X=X, T=T)

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
        fitc = fit_regressor(data, SPEC, 0.05, inducing=InducingSet(X=data.X, T=data.T))
        rng = np.random.default_rng(1)
        Xs, Ts = rng.standard_normal((30, 2)), rng.uniform(0, 1, (30, 1))
        me, ve = exact.predict_batch(Xs, Ts)
        mf, vf = fitc.predict_batch(Xs, Ts)
        np.testing.assert_allclose(mf, me, atol=1e-6)
        np.testing.assert_allclose(vf, ve, atol=1e-6)

    def test_rank_one_smoke(self):
        data = make_data(25)
        fitc = fit_regressor(data, SPEC, 0.05, inducing=select_inducing(data, 1, seed=0))
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
        m1, v1 = fit_regressor(data, SPEC, 0.05, inducing=ind).predict_batch(Xs, Ts)
        m2, v2 = fit_regressor(data, SPEC, 0.05, inducing=ind_perm).predict_batch(Xs, Ts)
        np.testing.assert_allclose(m1, m2, atol=1e-8)
        np.testing.assert_allclose(v1, v2, atol=1e-8)

    def test_close_to_exact_at_moderate_rank(self):
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(nu=1.5, lengthscale=0.3))
        res = synth_vcm(900, m=3, d=1, task_kernel=spec.task_kernel, tau2=0.05, seed=2)
        data = res.dataset.subset(np.arange(800))
        test = res.dataset.subset(np.arange(800, 900))
        exact = fit_regressor(data, spec, 0.05)
        fitc = fit_regressor(data, spec, 0.05, inducing=select_inducing(data, 80, seed=6))
        me, _ = exact.predict_batch(test.X, test.T)
        mf, _ = fitc.predict_batch(test.X, test.T)
        assert np.mean(np.abs(me - mf)) < 0.05 * np.std(data.y)

    def test_runtime_scales_subquadratically_in_n(self):
        # doubling n at fixed p must less than triple the fit time; the two
        # sizes alternate so a change in host speed hits both alike, and CPU
        # time leaves out the time another process holds the CPU
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
                t0 = time.process_time()
                fit_regressor(data, SPEC, 0.05, inducing=ind)
                best[n] = min(best[n], time.process_time() - t0)
        assert best[3000] < 3.0 * best[1500]

    @pytest.mark.parametrize("tau2", [0.0, np.inf, np.nan])
    def test_invalid_tau2(self, tau2):
        data = make_data(10)
        with pytest.raises(ValueError, match="tau2 must be positive and finite"):
            fit_regressor(data, SPEC, tau2, inducing=select_inducing(data, 5, seed=0))


class TestFITCClassification:
    def test_matches_exact_classifier_when_inducing_is_training_set(self):
        base = make_data(60, seed=11)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        exact = fit_classifier(data, SPEC, 0.1)
        fitc = fit_classifier(data, SPEC, 0.1, inducing=InducingSet(X=data.X, T=data.T))
        rng = np.random.default_rng(12)
        Xs, Ts = rng.standard_normal((20, 2)), rng.uniform(0, 1, (20, 1))
        np.testing.assert_allclose(
            fitc.predict_proba_batch(Xs, Ts), exact.predict_proba_batch(Xs, Ts), atol=1e-6
        )

    def test_probabilities_in_unit_interval(self):
        base = make_data(120, seed=13)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        fitc = fit_classifier(data, SPEC, 0.1, inducing=select_inducing(data, 20, seed=14))
        p = fitc.predict_proba_batch(data.X, data.T)
        assert np.all((p > 0) & (p < 1))

    def test_rejects_non_binary_labels(self):
        data = make_data(10, seed=15)
        with pytest.raises(ValueError):
            fit_classifier(data, SPEC, 0.1, inducing=select_inducing(data, 5, seed=0))


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
        fitc = fit_classifier(data, SPEC, tau2, inducing=inducing)
        cov, basis = inducing.covariance(data, SPEC, tau2)
        Luu, V, lam = basis.Luu, cov.V, cov.lam
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

    def assert_matches_dense_laplace(self, V, lam, y):
        """Mode, dual and evidence of the Woodbury route against dense Laplace."""
        low = laplace_mode(LowRankDiag(V, lam), y)
        dense = laplace_mode(V.T @ V + np.diag(np.broadcast_to(lam, y.shape)), y)
        np.testing.assert_allclose(low.mode, dense.mode, atol=1e-6)
        np.testing.assert_allclose(low.dual, dense.dual, atol=1e-6)
        assert low.log_marginal_likelihood() == pytest.approx(
            dense.log_marginal_likelihood(), abs=1e-6
        )

    def test_matches_dense_laplace_at_large_amplitude(self):
        # instance amplitude 1e4: A b reaches ~1e9 while b is O(1), which
        # made the Newton step b - sqrt(W) B^{-1} sqrt(W) A b cancel and fail
        spec = KernelSpec(Matern(nu=1.5, lengthscale=2.0, amplitude=1e4), SPEC.task_kernel)
        base = make_data(600, seed=1)
        data = Dataset(X=base.X, T=base.T, y=threshold_labels(base.y))
        inducing = select_inducing(data, 100, seed=1)
        fitc = fit_classifier(data, spec, 0.1, inducing=inducing)
        cov, _ = inducing.covariance(data, spec, 0.1)
        V, lam = cov.V, cov.lam
        low = laplace_mode(LowRankDiag(V, lam), data.y)
        np.testing.assert_array_equal(fitc.state.dual, low.dual)
        self.assert_matches_dense_laplace(V, lam, data.y)

    def test_weight_space_tree_covariance_matches_dense_laplace(self):
        # Linear x Tree (k=200, Gram entries up to 640) in weight space at
        # n=3000: the cancelling step stalled above the gradient tolerance
        rng = np.random.default_rng(0)
        kernel = Tree(random_tree(200, rng))
        X, T = rng.standard_normal((3000, 2)), rng.integers(1, 201, size=3000)
        V = _weight_features(KernelSpec(Linear(), kernel), kernel.factor, X, T).T
        latent = 0.05 * (V.T @ rng.standard_normal(V.shape[0]))
        y = (rng.uniform(size=3000) < 1.0 / (1.0 + np.exp(-latent))).astype(float)
        self.assert_matches_dense_laplace(V, 0.1, y)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 15),
        # latent variances up to 1e4 p: from scale ~30 the Woodbury step
        # b - S(A b) cancelled and failed; from ~100 the dense oracle's own
        # step (the same formula) starts to fail, so the range ends there
        scale=st.floats(-1.0, 2.0).map(lambda e: 10.0**e),
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
            fit_classifier(data, SPEC, 0.1, inducing=inducing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def fitted(likelihood, route):
    """A fitted model of ``likelihood`` on ``route``, over m = 2 features."""
    spec = SPEC
    if route in ("weight-space", "tree-precision"):
        rng = np.random.default_rng(21)
        data = Dataset(
            X=rng.standard_normal((40, 2)), T=rng.integers(1, 6, size=40), y=rng.standard_normal(40)
        )
        task = Tree(random_tree(5, rng))
        spec = KernelSpec(Linear(), task if route == "tree-precision" else FixedGram(task.gram))
    else:
        data = make_data(30, seed=22)
    if likelihood == "classification":
        data = Dataset(X=data.X, T=data.T, y=threshold_labels(data.y))
    inducing = select_inducing(data, 8, seed=23) if route == "fitc" else None
    fit = fit_regressor if likelihood == "regression" else fit_classifier
    return fit(data, spec, 0.1, inducing=inducing)


# every route of both likelihoods, with the model class and basis it fits
ROUTES = pytest.mark.parametrize(
    "likelihood, route, cls, basis",
    [
        ("regression", "dense", FittedRegressor, DenseBasis),
        ("regression", "weight-space", FittedRegressor, WeightSpaceBasis),
        ("regression", "tree-precision", FittedRegressor, TreeBasis),
        ("regression", "fitc", FittedRegressor, FITCBasis),
        ("classification", "dense", FittedClassifier, DenseBasis),
        ("classification", "weight-space", FittedClassifier, WeightSpaceBasis),
        ("classification", "tree-precision", FittedClassifier, TreeBasis),
        ("classification", "fitc", FittedClassifier, FITCBasis),
    ],
)


class TestOneModelClassPerLikelihood:
    """FITC fits return the exact model classes with an inducing-point basis."""

    @ROUTES
    def test_wrong_feature_count_is_rejected_alike(self, likelihood, route, cls, basis):
        model = fitted(likelihood, route)
        assert type(model) is cls and type(model.basis) is basis
        predict = model.predict_batch if likelihood == "regression" else model.predict_proba_batch
        with pytest.raises(ValueError, match="test instances have 3 features, training has 2"):
            predict(np.zeros((4, 3)), model.data.T[:4])
        # one task row is not broadcast over several instance rows on any route
        with pytest.raises(ValueError, match="instance rows and task rows disagree: 5 vs 1"):
            predict(np.zeros((5, 2)), model.data.T[:1])

    @ROUTES
    def test_single_point_is_a_batch_of_one(self, likelihood, route, cls, basis):
        # row 0 as one point (a feature vector, and an id or coordinate row)
        # and as a batch of one row; a longer batch may round differently
        model = fitted(likelihood, route)
        X, T = model.data.X, model.data.T
        if likelihood == "regression":
            mean, var = model.predict_batch(X[:1], T[:1])
            one = model.predict(X[0], T[0])
            assert (one.mean, one.latent_var) == (mean[0], var[0])
        else:
            assert model.predict_proba(X[0], T[0]) == model.predict_proba_batch(X[:1], T[:1])[0]

    @ROUTES
    def test_bad_test_task_is_rejected_on_both_paths(self, likelihood, route, cls, basis):
        model = fitted(likelihood, route)
        single, batch = (
            (model.predict, model.predict_batch) if likelihood == "regression"
            else (model.predict_proba, model.predict_proba_batch)
        )
        x = model.data.X[0]
        discrete = model.data.has_discrete_tasks
        # a non-integral id for discrete training tasks, a non-finite coordinate for continuous ones
        bad, message = (1.5, "discrete task ids must be integers, got 1.5") if discrete else (
            np.inf, "task coordinates must be finite")
        with pytest.raises(ValueError, match=message):
            single(x, bad)
        with pytest.raises(ValueError, match=message):
            batch(x[None], np.array([bad]) if discrete else np.array([[bad]]))
        if not discrete:  # one task coordinate too many
            with pytest.raises(ValueError, match="test tasks have 2 coordinates, training tasks have 1"):
                single(x, np.zeros(2))
            with pytest.raises(ValueError, match="test tasks have 2 coordinates, training tasks have 1"):
                batch(x[None], np.zeros((1, 2)))

    @ROUTES
    def test_non_finite_test_instance_is_rejected(self, likelihood, route, cls, basis):
        model = fitted(likelihood, route)
        single, batch = (
            (model.predict, model.predict_batch) if likelihood == "regression"
            else (model.predict_proba, model.predict_proba_batch)
        )
        X, T = model.data.X[:3].copy(), model.data.T[:3]
        X[2, 1] = np.inf
        with pytest.raises(ValueError, match="test instances must be finite; row 2 is not"):
            batch(X, T)
        with pytest.raises(ValueError, match="test instances must be finite; row 0 is not"):
            single([np.nan, 0.0], T[0])

    @ROUTES
    def test_test_tasks_are_checked_once_per_prediction(self, likelihood, route, cls, basis, monkeypatch):
        # the training tasks were checked when the Dataset was built
        model = fitted(likelihood, route)
        calls = []
        original = kernels.as_task_array
        monkeypatch.setattr(kernels, "as_task_array", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        X, T = model.data.X, model.data.T
        if likelihood == "regression":
            model.predict(X[0], T[0])
            model.predict_batch(X[:5], T[:5])
        else:
            model.predict_proba(X[0], T[0])
            model.predict_proba_batch(X[:5], T[:5])
        assert len(calls) == 2

    def test_fitc_classifier_name_is_the_exact_class(self):
        assert sparse_fitc.FittedFITCClassifier is FittedClassifier

    @pytest.mark.parametrize("route", ["dense", "tree-precision"])
    def test_fitc_regression_evidence_is_exact_with_every_point_inducing(self, route):
        # criterion 6's setting and tolerance (TOL_FITC_EXACT in test_acceptance.py)
        assert_exact_with_every_point_inducing("regression", route, seed=5)

    @pytest.mark.parametrize("route", ["dense", "tree-precision"])
    @pytest.mark.parametrize("seed", [5, 11, 13])
    def test_fitc_classifier_evidence_is_exact_with_every_point_inducing(self, seed, route):
        # criterion 6's tolerance, on the Laplace evidence
        assert_exact_with_every_point_inducing("classification", route, seed)

    @pytest.mark.parametrize("likelihood", ["regression", "classification"])
    @pytest.mark.parametrize("variant", ["ids-for-coordinates", "coordinates-for-ids"])
    def test_inducing_tasks_of_another_variant_are_rejected(self, likelihood, variant):
        # ids read as coordinates made a model file that fails to load, and
        # coordinates under a tree kernel one whose ids were out of range
        if variant == "ids-for-coordinates":
            data, spec = make_data(20, seed=3), SPEC
            inducing = InducingSet(X=data.X[:5], T=np.arange(1, 6))
            message = "inducing points have discrete task ids, training points have 1-coordinate tasks"
        else:
            rng = np.random.default_rng(3)
            data = Dataset(X=rng.standard_normal((20, 2)), T=rng.integers(1, 4, size=20),
                           y=rng.standard_normal(20))
            spec = KernelSpec(Matern(), Tree(random_tree(3, rng)))
            inducing = InducingSet(X=data.X[:5], T=data.T[:5, None].astype(float))
            message = "inducing points have 1-coordinate tasks, training points have discrete task ids"
        if likelihood == "classification":
            data = Dataset(X=data.X, T=data.T, y=threshold_labels(data.y))
        fit = fit_regressor if likelihood == "regression" else fit_classifier
        with pytest.raises(ValueError, match=message):
            fit(data, spec, 0.1, inducing=inducing)

    def test_inducing_tasks_of_another_dimension_are_rejected(self):
        data = make_data(20, seed=3)
        inducing = InducingSet(X=data.X[:5], T=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="inducing points have 2-coordinate tasks, "
                                             "training points have 1-coordinate tasks"):
            fit_regressor(data, SPEC, 0.1, inducing=inducing)


def assert_exact_with_every_point_inducing(likelihood, route, seed):
    """FITC over every training point against the exact ``route``, at criterion 6's 1e-6.

    The FITC branch comes before every exact route.  The dense route is
    Matern x Matern; the tree route Linear x ``Tree`` with m points of m
    random features per task, so that K, the inducing Gram, is nonsingular.
    """
    rng = np.random.default_rng(seed)
    if route == "dense":
        data, spec = make_data(80, seed=seed), SPEC
        Xs, Ts = rng.standard_normal((20, 2)), rng.uniform(0, 1, (20, 1))
    else:
        k, m = 8, 3
        spec = KernelSpec(Linear(), Tree(random_tree(k, rng, 0.3, 3.0)))
        data = Dataset(X=rng.standard_normal((k * m, m)), T=np.repeat(np.arange(1, k + 1), m),
                       y=rng.standard_normal(k * m))
        Xs, Ts = rng.standard_normal((20, m)), rng.integers(1, k + 1, size=20)
    if likelihood == "classification":
        data = Dataset(X=data.X, T=data.T, y=threshold_labels(data.y))
    fit = fit_regressor if likelihood == "regression" else fit_classifier
    exact = fit(data, spec, 0.05)
    fitc = fit(data, spec, 0.05, inducing=InducingSet(X=data.X, T=data.T))
    assert type(exact.basis) is {"dense": DenseBasis, "tree-precision": TreeBasis}[route]
    assert type(fitc.basis) is FITCBasis
    assert abs(fitc.log_marginal_likelihood() - exact.log_marginal_likelihood()) < 1e-6
    for a, b in zip(latent(fitc, Xs, Ts), latent(exact, Xs, Ts)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)
    if likelihood == "classification":
        np.testing.assert_allclose(fitc.predict_proba_batch(Xs, Ts),
                                   exact.predict_proba_batch(Xs, Ts), rtol=0, atol=1e-6)


def latent(model, Xs, Ts):
    """Latent predictive means and variances of either likelihood's model."""
    if isinstance(model, FittedRegressor):
        return model.predict_batch(Xs, Ts)
    return _latent_predictive(model, Xs, Ts, model.state.B_chol, model.tau2, model.state.W)
