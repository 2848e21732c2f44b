"""Acceptance battery.

One test per release criterion, each printing a single pass/fail line with
its measured statistic and runtime.  Tolerances are fixed here and must not
be loosened; the verification batteries in ``vcgp.verify`` provide the
underlying checks.
"""

import csv
import time

import numpy as np
import yaml

from vcgp import verify
from vcgp.baselines import primal_oracle_predict
from vcgp.cli import EXIT_OK, main
from vcgp.data_io import synth_vcm, threshold_labels
from vcgp.experiments import derive_seed, run_method, run_settings
from vcgp.gp_core import Dataset, fit_regressor
from vcgp.kernels import FixedGram, KernelSpec, Linear, Matern

TOL_ORACLE = 1e-8
TOL_PROP1 = 1e-8
SE_LIMIT = 4.0
TOL_PROP2 = 1e-8
TOL_MODE = 1e-6
TOL_PROBA = 1e-3
TOL_FITC_EXACT = 1e-6
FITC_DEV_FRAC = 0.05
TOL_GRAD = 1e-4


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def batch_result(reports, elapsed, limit):
    n_pass = sum(r.passed for r in reports)
    worst = max(r.statistic / r.threshold for r in reports)
    ok = n_pass == len(reports) and elapsed < limit
    return ok, f"{n_pass}/{len(reports)} checks, worst stat/threshold {worst:.3g}, {elapsed:.1f}s (limit {limit:.0f}s)"


def test_criterion_1_theorem1_equivalence():
    t0 = time.perf_counter()
    reports = verify.theorem1_battery(n_configs=50, seed=0, tol=TOL_ORACLE)
    ok, detail = batch_result(reports, time.perf_counter() - t0, 10.0)
    report("criterion 1 (predictive distribution vs weight-space oracle)", ok, detail)
    assert ok


def test_criterion_2_tree_covariance_analytic():
    t0 = time.perf_counter()
    reports = verify.prop1_analytic_battery(n_trees=100, seed=1, tol=TOL_PROP1)
    ok, detail = batch_result(reports, time.perf_counter() - t0, 60.0)
    report("criterion 2 (tree covariance: analytic weight-space equivalence)", ok, detail)
    assert ok


def test_criterion_3_tree_covariance_monte_carlo():
    t0 = time.perf_counter()
    reports = verify.prop1_statistical_battery(
        n_trees=5, n_samples=10**6, seed=2, se_limit=SE_LIMIT
    )
    ok, detail = batch_result(reports, time.perf_counter() - t0, 300.0)
    report("criterion 3 (tree covariance: 1e6-sample Monte Carlo)", ok, detail)
    assert ok


def test_criterion_4_laplacian_inverse_identity():
    t0 = time.perf_counter()
    reports = verify.prop2_battery(n_trees=100, seed=3, tol=TOL_PROP2)
    ok, detail = batch_result(reports, time.perf_counter() - t0, 30.0)
    report("criterion 4 (graph-Laplacian inverse equals tree covariance)", ok, detail)
    assert ok


def test_criterion_5_laplace_mode_and_quadrature():
    t0 = time.perf_counter()
    reports = verify.theorem2_battery(
        n_instances=10, seed=4, mode_tol=TOL_MODE, proba_tol=TOL_PROBA, mc_samples=10**7
    )
    ok, detail = batch_result(reports, time.perf_counter() - t0, 120.0)
    report("criterion 5 (Laplace mode + predictive quadrature vs oracles)", ok, detail)
    assert ok


def test_criterion_6_fitc():
    t0 = time.perf_counter()
    reports = verify.fitc_battery(seed=5, exact_tol=TOL_FITC_EXACT, dev_frac=FITC_DEV_FRAC)
    ok, detail = batch_result(reports, time.perf_counter() - t0, 120.0)
    report("criterion 6 (FITC exactness and low-rank accuracy)", ok, detail)
    assert ok


def _ordering_battery(problem: str, sizes, n_seeds: int):
    """Mean error per method over seeds, plus pooled-SE gaps vcgp vs iid."""
    gen_kernel = Matern(nu=1.5, lengthscale=0.15, amplitude=1.0)
    if problem == "regression":
        tuning = {
            "method": "grid",
            "grid": {"task.lengthscale": [0.05, 0.15, 0.5], "tau2": [0.01, 0.1]},
        }
    else:
        tuning = {"method": "grid", "grid": {"tau2": [0.01, 0.1]}}
    settings = run_settings({
        "problem": problem,
        "model": {
            "task_kernel": {"type": "matern", "nu": 1.5, "lengthscale": 0.15},
            "instance_matern": {"lengthscale": 2.0},
            "tau2": 0.05,
        },
        "tuning": tuning,
    })
    methods = ("vcgp-mat", "iid-mat", "vcgp-lin", "iid-lin")
    values = {m: {n: [] for n in sizes} for m in methods}
    n_test = 300
    for n in sizes:
        for s in range(n_seeds):
            res = synth_vcm(
                n + n_test, 3, 1, gen_kernel, 0.05, seed=derive_seed(77, problem, n, s)
            )
            ds = res.dataset
            if problem == "classification":
                ds = Dataset(X=ds.X, T=ds.T, y=threshold_labels(ds.y))
            train = ds.subset(np.arange(n))
            test = ds.subset(np.arange(n, n + n_test))
            for method in methods:
                values[method][n].append(
                    run_method(method, train, test, settings, derive_seed(77, method, n, s))
                )
    gaps = {}
    for kind in ("mat", "lin"):
        vc = np.concatenate([values[f"vcgp-{kind}"][n] for n in sizes]).reshape(len(sizes), -1)
        iid = np.concatenate([values[f"iid-{kind}"][n] for n in sizes]).reshape(len(sizes), -1)
        # per-size means with pooled standard errors; every size must show the gap
        for i, n in enumerate(sizes):
            se = np.sqrt(
                vc[i].std(ddof=1) ** 2 / vc[i].size + iid[i].std(ddof=1) ** 2 / iid[i].size
            )
            gaps[(kind, n)] = (float(iid[i].mean() - vc[i].mean()), float(se))
    return gaps


def test_criterion_7_synthetic_ordering():
    t0 = time.perf_counter()
    sizes = (250, 500, 1000)
    gaps_reg = _ordering_battery("regression", sizes, n_seeds=20)
    gaps_cls = _ordering_battery("classification", sizes, n_seeds=20)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 900.0
    details = []
    for label, gaps in (("mae", gaps_reg), ("zero-one", gaps_cls)):
        for (kind, n), (gap, se) in gaps.items():
            ok = ok and gap > se
            details.append(f"{label}/{kind}/n={n}: gap {gap:.4f} vs SE {se:.4f}")
    report(
        "criterion 7 (varying-coefficient GP beats iid GP on drifting data)",
        ok,
        f"{'; '.join(details)}; {elapsed:.0f}s (limit 900s)",
    )
    assert ok


def test_criterion_8_runtime_scaling_gap():
    # exact fit + batch prediction at n=500 stays under 5 seconds
    res = synth_vcm(800, 3, 1, Matern(nu=1.5, lengthscale=0.2), 0.05, seed=6)
    train = res.dataset.subset(np.arange(500))
    test = res.dataset.subset(np.arange(500, 800))
    spec = KernelSpec(
        instance_kernel=Matern(nu=1.5, lengthscale=2.0),
        task_kernel=Matern(nu=1.5, lengthscale=0.2),
    )
    t0 = time.perf_counter()
    model = fit_regressor(train, spec, 0.05)
    model.predict_batch(test.X, test.T)
    t_vcgp_500 = time.perf_counter() - t0

    # the per-prediction weight-space oracle is at least 10x slower than the
    # product-kernel route on the same n=50, m=10 workload
    rng = np.random.default_rng(7)
    n, m, k, n_star = 50, 10, 5, 20
    B = rng.standard_normal((k, k + 2))
    spec_lin = KernelSpec(
        instance_kernel=Linear(), task_kernel=FixedGram(B @ B.T / k + 0.1 * np.eye(k))
    )
    data = Dataset(
        X=rng.standard_normal((n, m)), T=rng.integers(1, k + 1, size=n), y=rng.standard_normal(n)
    )
    X_star = rng.standard_normal((n_star, m))
    T_star = rng.integers(1, k + 1, size=n_star)

    t_gp = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        gp = fit_regressor(data, spec_lin, 0.1)
        for i in range(n_star):
            gp.predict(X_star[i], int(T_star[i]))
        t_gp = min(t_gp, time.perf_counter() - t0)
    t0 = time.perf_counter()
    for i in range(n_star):
        primal_oracle_predict(data, spec_lin, 0.1, X_star[i], int(T_star[i]))
    t_oracle = time.perf_counter() - t0

    ratio = t_oracle / t_gp
    ok = t_vcgp_500 < 5.0 and ratio >= 10.0
    report(
        "criterion 8 (runtime: product-kernel route vs weight-space route)",
        ok,
        f"n=500 fit+predict {t_vcgp_500:.3f}s (limit 5s); oracle/GP time ratio {ratio:.1f}x (need >=10x)",
    )
    assert ok


def test_criterion_9_marginal_likelihood_gradients():
    t0 = time.perf_counter()
    reports = verify.gradient_battery(n_points=20, seed=8, rtol=TOL_GRAD)
    ok, detail = batch_result(reports, time.perf_counter() - t0, 60.0)
    report("criterion 9 (analytic gradients vs central differences)", ok, detail)
    assert ok


def test_criterion_10_experiment_determinism(tmp_path):
    cfg = {
        "seed": 21,
        "out": str(tmp_path / "run.csv"),
        "problem": "regression",
        "methods": ["vcgp-mat", "iid-lin"],
        "dataset": {
            "synth": {
                "n": 260,
                "m": 2,
                "d": 1,
                "tau2": 0.05,
                "task_kernel": {"type": "matern", "nu": 1.5, "lengthscale": 0.2},
            }
        },
        "split": {"kfold": {"k": 2}},
        "train_sizes": [50],
        "model": {"task_kernel": {"type": "matern", "lengthscale": 0.2}, "tau2": 0.05},
        "tuning": {"method": "grid", "grid": {"tau2": [0.01, 0.1]}},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))

    def run_once():
        assert main(["run", str(path)]) == EXIT_OK
        with open(cfg["out"], newline="") as fh:
            return [
                {k: v for k, v in row.items() if k != "wall_time_s"}
                for row in csv.DictReader(fh)
            ]

    first = run_once()
    second = run_once()
    ok = first == second and len(first) == 4
    report(
        "criterion 10 (experiment runs are reproducible bit-for-bit)",
        ok,
        f"{len(first)} rows identical across reruns (wall-time column excluded)",
    )
    assert ok
