import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.optimize

from vcgp._linalg import NumericalError, add_diagonal
from vcgp.gp_classify import (
    fit_classifier,
    laplace_mode,
    logistic_gaussian_integral,
    sigmoid,
    tune_classifier_hyperparameters,
)
from vcgp.gp_core import Dataset, SearchConfig
from vcgp.kernels import (
    Constant,
    FixedGram,
    KernelSpec,
    Linear,
    Matern,
    product_kernel_matrix,
)


def unit_scalar_classifier(y=1.0, a=1.0):
    """n=1 classifier whose latent covariance K + tau2 equals ``a``."""
    data = Dataset(X=[[1.0]], T=np.array([1]), y=[y])
    spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.array([[a / 2]])))
    return fit_classifier(data, spec, tau2=a / 2)


class TestMode:
    def test_scalar_root_finding_oracle(self):
        # for n=1, y=1, A=1 the mode solves sigmoid(z) - 1 + z = 0
        root = scipy.optimize.brentq(lambda z: sigmoid(z) - 1 + z, -5, 5, xtol=1e-14)
        model = unit_scalar_classifier()
        assert model.mode[0] == pytest.approx(root, abs=1e-8)
        assert model.mode[0] == pytest.approx(0.40105813754154707, abs=1e-8)

    def test_flipped_labels_negate_mode(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            X=rng.standard_normal((6, 2)),
            T=rng.uniform(0, 1, (6, 1)),
            y=rng.integers(0, 2, 6).astype(float),
        )
        spec = KernelSpec(instance_kernel=Matern(), task_kernel=Matern(lengthscale=0.4))
        m1 = fit_classifier(data, spec, tau2=0.3)
        m2 = fit_classifier(Dataset(X=data.X, T=data.T, y=1.0 - data.y), spec, tau2=0.3)
        np.testing.assert_allclose(m1.mode, -m2.mode, atol=1e-8)

    def test_matches_direct_maximization(self):
        rng = np.random.default_rng(1)
        data = Dataset(
            X=rng.standard_normal((5, 2)),
            T=rng.uniform(0, 1, (5, 1)),
            y=np.array([1.0, 0.0, 1.0, 1.0, 0.0]),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        tau2 = 0.2
        model = fit_classifier(data, spec, tau2)
        K = product_kernel_matrix(data.X, data.T, data.X, data.T, spec)
        A_inv = np.linalg.inv(K + tau2 * np.eye(5))

        def neg_post(z):
            return -(data.y @ z - np.sum(np.logaddexp(0, z)) - 0.5 * z @ A_inv @ z)

        res = scipy.optimize.minimize(neg_post, np.zeros(5), method="BFGS", tol=1e-13)
        np.testing.assert_allclose(model.mode, res.x, atol=1e-6)

    def test_hessian_diagonal_range(self):
        model = unit_scalar_classifier()
        assert np.all(model.W > 0) and np.all(model.W <= 0.25)

    def test_fit_that_needs_jitter_runs_newton_on_the_jittered_covariance(self):
        # K = G[t, t'] with one eigenvalue of -3e-7, below the noise: only the
        # jitter makes K + tau2 I positive definite
        data = Dataset(X=np.ones((6, 1)), T=np.array([1, 2, 1, 2, 1, 2]),
                       y=[1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        G = np.array([[1.0, 1.0 + 1e-7], [1.0 + 1e-7, 1.0]])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(G))
        tau2 = 1e-9
        model = fit_classifier(data, spec, tau2)
        assert model.jitter > 0
        # K + (tau2 + jitter) I, the two diagonal additions in the fit's order
        A = add_diagonal(product_kernel_matrix(data.X, data.T, data.X, data.T, spec), tau2)
        state = laplace_mode(add_diagonal(A, model.jitter), data.y)
        assert np.array_equal(model.mode, state.mode)
        assert np.array_equal(model.state.dual, state.dual)
        assert model.state.iterations == state.iterations

    def test_labels_must_be_binary(self):
        data = Dataset(X=[[1.0]], T=np.array([1]), y=[0.5])
        with pytest.raises(ValueError):
            fit_classifier(data, KernelSpec(instance_kernel=Linear()), tau2=0.1)


def test_newton_peak_memory_below_two_gram_arrays():
    # one Newton factor alive at a time, built in one buffer and factorized
    # in place: about 1.1 n x n arrays; with the previous step's factor kept
    # and the copies made it was 3 to 5
    n = 600
    rng = np.random.default_rng(0)
    X, T = rng.standard_normal((n, 3)), rng.uniform(0, 1, (n, 1))
    spec = KernelSpec(Matern(nu=1.5, lengthscale=2.5), Matern(nu=1.5, lengthscale=0.3))
    A = product_kernel_matrix(X, T, X, T, spec) + 0.1 * np.eye(n)
    y = (X[:, 0] + np.sin(6 * T[:, 0]) + 0.5 * rng.standard_normal(n) > 0).astype(float)
    laplace_mode(A, y)  # imports and one-time set-up stay out of the count
    tracemalloc.start()
    try:
        state = laplace_mode(A, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.iterations >= 3
    assert peak < 2 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"


class TestPredictProba:
    def test_unrelated_task_gives_half(self):
        G = np.array([[1.0, 0.0], [0.0, 0.0]])
        data = Dataset(X=[[1.0]], T=np.array([1]), y=[1.0])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(G))
        model = fit_classifier(data, spec, tau2=0.4)
        assert model.predict_proba([3.0], 2) == pytest.approx(0.5, abs=1e-12)

    def test_positive_point_pulls_probability_up(self):
        model = unit_scalar_classifier(y=1.0)
        assert model.predict_proba([1.0], 1) > 0.5

    def test_probability_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        data = Dataset(
            X=rng.standard_normal((10, 2)),
            T=rng.uniform(0, 1, (10, 1)),
            y=rng.integers(0, 2, 10).astype(float),
        )
        spec = KernelSpec(instance_kernel=Matern(amplitude=3.0), task_kernel=Matern(lengthscale=0.3))
        model = fit_classifier(data, spec, tau2=0.1)
        p = model.predict_proba_batch(rng.standard_normal((20, 2)), rng.uniform(0, 1, (20, 1)))
        assert np.all(p > 0) and np.all(p < 1)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(3)
        data = Dataset(
            X=rng.standard_normal((7, 2)),
            T=rng.uniform(0, 1, (7, 1)),
            y=rng.integers(0, 2, 7).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.6))
        m1 = fit_classifier(data, spec, tau2=0.2)
        m2 = fit_classifier(Dataset(X=data.X, T=data.T, y=1.0 - data.y), spec, tau2=0.2)
        Xs, Ts = rng.standard_normal((5, 2)), rng.uniform(0, 1, (5, 1))
        np.testing.assert_allclose(
            m1.predict_proba_batch(Xs, Ts), 1.0 - m2.predict_proba_batch(Xs, Ts), atol=1e-10
        )

    def test_quadrature_matches_monte_carlo(self):
        rng = np.random.default_rng(4)
        data = Dataset(
            X=rng.standard_normal((4, 2)),
            T=rng.uniform(0, 1, (4, 1)),
            y=np.array([1.0, 0.0, 1.0, 0.0]),
        )
        spec = KernelSpec(instance_kernel=Matern(lengthscale=2.0), task_kernel=Matern(lengthscale=0.5))
        model = fit_classifier(data, spec, tau2=0.1)
        x, t = rng.standard_normal(2), rng.uniform(0, 1, 1)
        p = model.predict_proba(x, t)
        # rebuild the same Laplace latent Gaussian and integrate by MC
        ks = product_kernel_matrix(data.X, data.T, x.reshape(1, -1), t.reshape(1, -1), spec).ravel()
        mu = float(ks @ model.state.dual)
        sw = np.sqrt(model.state.W)
        v = scipy.linalg.solve_triangular(model.state.B_chol, sw * ks, lower=True)
        k_star = product_kernel_matrix(
            x.reshape(1, -1), t.reshape(1, -1), x.reshape(1, -1), t.reshape(1, -1), spec
        )[0, 0]
        var = float(k_star + 0.1 - v @ v)
        z = np.random.default_rng(99).standard_normal(10**6)
        p_mc = float(np.mean(sigmoid(mu + math.sqrt(var) * z)))
        assert p == pytest.approx(p_mc, abs=1e-3)

    def test_decision_boundary_matches_map_logistic_regression(self):
        # separable two-point problem; latent noise nearly zero so the GP
        # posterior mean reduces to the MAP weight vector's inner products
        X = np.array([[2.0, 0.5], [-1.5, -1.0]])
        data = Dataset(X=X, T=np.zeros((2, 1)), y=np.array([1.0, 0.0]))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Constant(1.0))
        model = fit_classifier(data, spec, tau2=1e-6)

        def neg_map(w):
            z = X @ w
            return -(data.y @ z - np.sum(np.logaddexp(0, z))) + 0.5 * w @ w

        w = scipy.optimize.minimize(neg_map, np.zeros(2), method="BFGS", tol=1e-12).x
        grid = np.array([[a, b] for a in np.linspace(-2, 2, 9) for b in np.linspace(-2, 2, 9)])
        p = model.predict_proba_batch(grid, np.zeros((grid.shape[0], 1)))
        gp_class = p >= 0.5
        map_class = grid @ w >= 0
        # ignore grid points sitting numerically on the boundary
        off_boundary = np.abs(grid @ w) > 1e-3
        assert np.array_equal(gp_class[off_boundary], map_class[off_boundary])


class TestLaplaceEvidence:
    def test_scalar_value_and_quadrature_oracle(self):
        model = unit_scalar_classifier(y=1.0, a=1.0)
        # independent scalar route: mode from 1-d root finding, then the
        # evidence formula by hand
        zhat = scipy.optimize.brentq(lambda z: sigmoid(z) - 1 + z, -5, 5, xtol=1e-14)
        w = sigmoid(zhat) * (1 - sigmoid(zhat))
        by_hand = math.log(sigmoid(zhat)) - 0.5 * zhat**2 - 0.5 * math.log(1 + w)
        assert model.log_marginal_likelihood() == pytest.approx(by_hand, abs=1e-8)
        # the exact marginal (1-d quadrature) is log(1/2); the approximation
        # carries an intrinsic error of about 7.5e-3 at this prior scale
        exact, _ = scipy.integrate.quad(
            lambda z: sigmoid(z) * math.exp(-0.5 * z**2) / math.sqrt(2 * math.pi), -12, 12
        )
        assert exact == pytest.approx(0.5, abs=1e-12)
        assert model.log_marginal_likelihood() == pytest.approx(math.log(exact), abs=1e-2)

    def test_degenerate_prior_limit(self):
        rng = np.random.default_rng(5)
        n = 4
        data = Dataset(
            X=rng.standard_normal((n, 2)),
            T=np.arange(1, n + 1),
            y=rng.integers(0, 2, n).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(np.zeros((n, n))))
        model = fit_classifier(data, spec, tau2=1e-10)
        assert model.log_marginal_likelihood() == pytest.approx(-n * math.log(2), abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            X=rng.standard_normal((8, 2)),
            T=rng.uniform(0, 1, (8, 1)),
            y=rng.integers(0, 2, 8).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        m1 = fit_classifier(data, spec, tau2=0.3)
        m2 = fit_classifier(data.subset(rng.permutation(8)), spec, tau2=0.3)
        assert m1.log_marginal_likelihood() == pytest.approx(
            m2.log_marginal_likelihood(), abs=1e-10
        )


class TestQuadratureHelper:
    def test_against_adaptive_quadrature(self):
        for mu, var in [(0.0, 1.0), (1.5, 0.25), (-2.0, 4.0), (0.3, 1e-8)]:
            exact, _ = scipy.integrate.quad(
                lambda z: sigmoid(mu + math.sqrt(var) * z)
                * math.exp(-0.5 * z**2)
                / math.sqrt(2 * math.pi),
                -12,
                12,
            )
            assert logistic_gaussian_integral(mu, var) == pytest.approx(exact, abs=1e-7)

    def test_symmetry_at_zero_mean(self):
        assert logistic_gaussian_integral(0.0, 3.7) == pytest.approx(0.5, abs=1e-14)


class TestClassifierTuning:
    def test_grid_selects_higher_evidence(self):
        rng = np.random.default_rng(7)
        data = Dataset(
            X=rng.standard_normal((20, 2)),
            T=rng.uniform(0, 1, (20, 1)),
            y=rng.integers(0, 2, 20).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        search = SearchConfig(method="grid", grid={"tau2": [0.01, 1.0]})
        tau2 = tune_classifier_hyperparameters(data, spec, search).tau2
        e1 = fit_classifier(data, spec, 0.01).log_marginal_likelihood()
        e2 = fit_classifier(data, spec, 1.0).log_marginal_likelihood()
        assert tau2 == (0.01 if e1 > e2 else 1.0)

    def test_returned_model_is_bit_equal_to_a_fresh_fit(self):
        rng = np.random.default_rng(8)
        data = Dataset(
            X=rng.standard_normal((40, 2)),
            T=rng.uniform(0, 1, (40, 1)),
            y=rng.integers(0, 2, 40).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        search = SearchConfig(method="grid", grid={"task.lengthscale": [0.3, 1.0], "tau2": [0.05, 0.5]})
        model = tune_classifier_hyperparameters(data, spec, search)
        fresh = fit_classifier(data, model.spec, model.tau2)
        for name in ("mode", "dual", "pi", "W", "B_chol"):
            assert np.array_equal(getattr(model.state, name), getattr(fresh.state, name)), name
        assert model.state.half_logdet_B == fresh.state.half_logdet_B
        assert model.state.log_lik == fresh.state.log_lik
        X_star, T_star = rng.standard_normal((16, 2)), rng.uniform(0, 1, (16, 1))
        assert np.array_equal(
            model.predict_proba_batch(X_star, T_star), fresh.predict_proba_batch(X_star, T_star)
        )

    def test_a_search_that_is_not_a_grid_is_rejected(self):
        # a gradient search that also carries a grid is not run as the grid
        data = Dataset(X=[[1.0], [2.0]], T=np.array([[0.0], [1.0]]), y=[0.0, 1.0])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern())
        for search in (SearchConfig(), SearchConfig(method="gradient", grid={"tau2": [0.1, 0.2]})):
            with pytest.raises(ValueError, match="classifier tuning requires a grid search"):
                tune_classifier_hyperparameters(data, spec, search)

    def test_every_grid_candidate_failing_raises(self):
        data = Dataset(X=[[1.0], [2.0]], T=np.array([1, 2]), y=[0.0, 1.0])
        bad = KernelSpec(
            instance_kernel=Linear(), task_kernel=FixedGram(np.array([[1.0, 5.0], [5.0, 1.0]]))
        )
        search = SearchConfig(method="grid", grid={"tau2": [1e-8, 1e-6]})
        message = r"every grid candidate failed to fit \(2 candidates\); the last: Cholesky"
        with pytest.raises(NumericalError, match=message) as info:
            tune_classifier_hyperparameters(data, bad, search)
        assert isinstance(info.value.__cause__, NumericalError)

    def test_grid_builds_each_distinct_gram_once(self, gram_builds):
        # 3 task lengthscales x 2 tau2: one instance Gram, one task Gram per lengthscale
        rng = np.random.default_rng(9)
        data = Dataset(
            X=rng.standard_normal((30, 2)),
            T=rng.uniform(0, 1, (30, 1)),
            y=rng.integers(0, 2, 30).astype(float),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        grid = {"task.lengthscale": [0.3, 0.6, 1.0], "tau2": [0.05, 0.5]}
        tune_classifier_hyperparameters(data, spec, SearchConfig(method="grid", grid=grid))
        assert gram_builds == {"instance_gram": 1, "task_gram": 3}


def test_non_finite_test_instance_raises():
    rng = np.random.default_rng(10)
    data = Dataset(
        X=rng.standard_normal((8, 2)), T=rng.uniform(0, 1, (8, 1)), y=[0.0, 1.0] * 4
    )
    model = fit_classifier(data, KernelSpec(instance_kernel=Linear(), task_kernel=Matern()), 0.1)
    with pytest.raises(ValueError):
        model.predict_proba([np.nan, 1.0], [0.5])
    with pytest.raises(ValueError):
        model.predict_proba_batch([[1.0, 0.0], [np.inf, 1.0]], [[0.5], [0.2]])
