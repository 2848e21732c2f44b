import numpy as np
import pytest

from vcgp import verify
from vcgp.gp_core import Dataset, fit_regressor
from vcgp.kernels import KernelSpec, Linear, TaskTree, Tree, tree_task_kernel
from vcgp.multitask_hb import (
    CheckReport,
    end_to_end_equivalence,
    hb_weight_covariance,
    random_tree,
    sample_hb,
    sample_hb_batch,
    verify_prop1,
    verify_prop2,
)

CHAIN = TaskTree(parent={2: 1}, sigma=(1.0, 1.0))


class TestSampler:
    def test_deterministic_per_seed(self):
        tree = random_tree(6, np.random.default_rng(0))
        a = sample_hb(tree, 3, seed=42)
        b = sample_hb(tree, 3, seed=42)
        assert a.shape == (6, 3)
        np.testing.assert_array_equal(a, b)
        c = sample_hb(tree, 3, seed=43)
        assert not np.array_equal(a, c)

    def test_tiny_child_noise_copies_root(self):
        tree = TaskTree(parent={2: 1, 3: 2}, sigma=(1.0, 1e-12, 1e-12))
        s = sample_hb(tree, 4, seed=0)
        np.testing.assert_allclose(s[1], s[0], atol=1e-10)
        np.testing.assert_allclose(s[2], s[0], atol=1e-10)

    def test_single_node_variance(self):
        tree = TaskTree(parent={}, sigma=(1.5,))
        n = 100_000
        W = sample_hb_batch(tree, 2, n, seed=1)
        var = W[:, 0, :].var(axis=0)
        se = 1.5**2 * np.sqrt(2.0 / n)
        assert np.all(np.abs(var - 1.5**2) < 3 * se)

    def test_chain_moments(self):
        n = 200_000
        W = sample_hb_batch(CHAIN, 1, n, seed=2)[:, :, 0]
        cov = W.T @ W / n
        # Var(w1)=1, Cov=1, Var(w2)=2 with Gaussian-exact standard errors
        se = np.sqrt((np.outer([1, 2], [1, 2]) + np.array([[1, 1], [1, 2]]) ** 2) / n)
        target = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert np.max(np.abs(cov - target) / se) < 4

    def test_out_of_order_parent_ids(self):
        # a node whose parent has a larger id still samples parent first
        tree = TaskTree(parent={2: 3, 3: 1}, sigma=(1.0, 0.5, 0.7))
        G = tree_task_kernel(tree)
        n = 200_000
        W = sample_hb_batch(tree, 1, n, seed=3)[:, :, 0]
        cov = W.T @ W / n
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G**2) / n)
        assert np.max(np.abs(cov - G) / se) < 4


class TestProp1MonteCarlo:
    def test_single_node_isotropy(self):
        tree = TaskTree(parent={}, sigma=(1.0,))
        rep = verify_prop1(tree, 2, 100_000, seed=4)
        assert rep.passed

    def test_chain_kron_target(self):
        rep = verify_prop1(CHAIN, 2, 200_000, seed=5)
        assert rep.passed

    def test_random_tree(self):
        tree = random_tree(5, np.random.default_rng(6), sigma_low=0.5, sigma_high=2.0)
        rep = verify_prop1(tree, 3, 100_000, seed=7)
        assert rep.passed

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            verify_prop1(CHAIN, 1, 100, seed=0)

    def test_deviation_shrinks_with_more_samples(self):
        # quadrupling N should roughly halve the max absolute deviation
        tree = random_tree(4, np.random.default_rng(8), sigma_low=0.5, sigma_high=2.0)
        devs = {}
        for n in (20_000, 320_000):
            rep = verify_prop1(tree, 2, n, seed=9)
            devs[n] = rep.details["max_abs_dev"]
        ratio = devs[20_000] / devs[320_000]
        assert 1.3 < ratio < 16.0


class TestProp2:
    def test_single_node(self):
        rep = verify_prop2(TaskTree(parent={}, sigma=(0.7,)))
        assert rep.passed
        G = tree_task_kernel(TaskTree(parent={}, sigma=(0.7,)))
        assert G[0, 0] == pytest.approx(0.49)

    def test_chain_exact(self):
        rep = verify_prop2(CHAIN)
        assert rep.passed and rep.statistic < 1e-12

    def test_random_trees_up_to_50(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            tree = random_tree(int(rng.integers(1, 51)), rng, 0.1, 10.0)
            assert verify_prop2(tree).passed


class TestEndToEnd:
    def test_single_task_collapses_to_bayesian_regression(self):
        rng = np.random.default_rng(11)
        tree = TaskTree(parent={}, sigma=(1.3,))
        n, m, tau2 = 9, 2, 0.3
        data = Dataset(X=rng.standard_normal((n, m)), T=np.ones(n, dtype=int), y=rng.standard_normal(n))
        rep = end_to_end_equivalence(tree, data, tau2=tau2)
        assert rep.passed
        # closed-form check of the weight-space route itself
        model = fit_regressor(
            data, KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree=tree)), tau2
        )
        S = np.linalg.inv(data.X.T @ data.X / tau2 + np.eye(m) / 1.3**2)
        w = S @ data.X.T @ data.y / tau2
        x = rng.standard_normal(m)
        assert model.predict(x, 1).mean == pytest.approx(float(x @ w), abs=1e-8)

    def test_chain_two_tasks(self):
        rng = np.random.default_rng(12)
        data = Dataset(
            X=rng.standard_normal((6, 2)),
            T=np.array([1, 1, 1, 2, 2, 2]),
            y=rng.standard_normal(6),
        )
        rep = end_to_end_equivalence(CHAIN, data, tau2=0.2)
        assert rep.passed and rep.statistic < 1e-8

    def test_hard_sharing_limit_pools_tasks(self):
        # children with (near) zero noise behave like one pooled task
        rng = np.random.default_rng(13)
        tree = TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 1e-8, 1e-8))
        X = rng.standard_normal((8, 2))
        y = rng.standard_normal(8)
        tasks = np.array([1, 2, 3, 1, 2, 3, 2, 3])
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree=tree))
        split_model = fit_regressor(Dataset(X=X, T=tasks, y=y), spec, 0.3)
        pooled_tree = TaskTree(parent={}, sigma=(1.0,))
        pooled_spec = KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree=pooled_tree))
        pooled_model = fit_regressor(
            Dataset(X=X, T=np.ones(8, dtype=int), y=y), pooled_spec, 0.3
        )
        x = rng.standard_normal(2)
        got = split_model.predict(x, 3)
        want = pooled_model.predict(x, 1)
        assert got.mean == pytest.approx(want.mean, abs=1e-6)
        assert got.total_var == pytest.approx(want.total_var, abs=1e-6)

    def test_random_battery(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            tree = random_tree(k, rng, 0.3, 3.0)
            n = int(rng.integers(2, 21))
            m = int(rng.integers(1, 5))
            data = Dataset(
                X=rng.standard_normal((n, m)),
                T=rng.integers(1, k + 1, size=n),
                y=rng.standard_normal(n),
            )
            rep = end_to_end_equivalence(tree, data, tau2=float(rng.uniform(0.05, 0.5)))
            assert rep.passed, rep

    def test_requires_discrete_tasks(self):
        data = Dataset(X=[[1.0]], T=np.zeros((1, 1)), y=[1.0])
        with pytest.raises(ValueError):
            end_to_end_equivalence(CHAIN, data)


class TestWeightCovariance:
    def test_matrix_route_matches_recursion(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            tree = random_tree(int(rng.integers(1, 12)), rng, 0.2, 4.0)
            m = int(rng.integers(1, 4))
            Sigma = hb_weight_covariance(tree, m)
            np.testing.assert_allclose(
                Sigma, np.kron(tree_task_kernel(tree), np.eye(m)), atol=1e-10
            )


class TestBatteryReports:
    """The verify batteries rename each check's report and keep the rest of it."""

    def test_prop2_scope_keeps_details(self):
        reports = verify.run_scope("prop2")
        assert len(reports) == 100
        for rep in reports:
            assert set(rep.details) == {"identity_dev", "inverse_rel_dev"}, rep.name
            assert rep.statistic == max(rep.details.values())

    def test_prop1_analytic_battery_keeps_details(self):
        reports = verify.prop1_analytic_battery(n_trees=3)
        assert [r.name for r in reports] == [f"prop1-analytic/tree{c:02d}" for c in range(3)]
        assert all(r.passed and "kron_dev" in r.details for r in reports)

    @pytest.mark.parametrize("statistic, passed", [(0.5, True), (1.0, False), (2.0, False),
                                                   (float("nan"), False)])
    def test_passed_is_statistic_below_threshold(self, statistic, passed):
        rep = CheckReport(name="check", statistic=statistic, threshold=1.0)
        assert rep.passed is passed
        assert rep.line().endswith("PASS" if passed else "FAIL")
