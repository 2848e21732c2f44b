"""Verification batteries: identities, oracle equivalences, approximations.

Each battery returns a list of :class:`CheckReport` so the CLI can print one
machine-readable line per check.  The same functions back the acceptance
test suite; thresholds default to the values the package commits to.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import baselines, gp_classify, gp_core, kernels, multitask_hb, sparse_fitc
from .data_io import synth_vcm
from .gp_core import Dataset, lml_and_gradient
from .gp_classify import sigmoid
from .kernels import FixedGram, KernelSpec, Linear, Matern
from .multitask_hb import CheckReport, random_tree

__all__ = [
    "theorem1_battery",
    "theorem2_battery",
    "prop1_analytic_battery",
    "prop1_statistical_battery",
    "prop2_battery",
    "fitc_battery",
    "gradient_battery",
    "run_scope",
    "SCOPES",
]


def _random_psd_gram(k: int, rng) -> np.ndarray:
    B = rng.standard_normal((k, k + 2))
    G = B @ B.T / (k + 2)
    return G + 0.1 * np.eye(k)


def theorem1_battery(n_configs: int = 50, seed: int = 0, tol: float = 1e-8) -> list[CheckReport]:
    """GP predictions vs the stacked-coefficient oracle on random problems."""
    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_configs):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        tau2 = float(rng.uniform(0.01, 1.0))
        data = Dataset(
            X=rng.standard_normal((n, m)),
            T=rng.integers(1, k + 1, size=n),
            y=rng.standard_normal(n),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=FixedGram(_random_psd_gram(k, rng)))
        model = gp_core.fit_regressor(data, spec, tau2)
        dev = 0.0
        for _ in range(3):
            x_star = rng.standard_normal(m)
            t_star = int(rng.integers(1, k + 1))
            got = model.predict(x_star, t_star)
            want = baselines.primal_oracle_predict(data, spec, tau2, x_star, t_star)
            dev = max(
                dev,
                abs(got.mean - want.mean),
                abs(got.latent_var - want.latent_var),
                abs(got.total_var - want.total_var),
            )
        reports.append(
            CheckReport(
                name=f"theorem1/config{c:02d}",
                statistic=dev,
                threshold=tol,
            )
        )
    return reports


def theorem2_battery(
    n_instances: int = 10,
    seed: int = 0,
    mode_tol: float = 1e-6,
    proba_tol: float = 1e-3,
    mc_samples: int = 10**7,
) -> list[CheckReport]:
    """Laplace mode vs direct maximization; quadrature vs Monte Carlo."""
    import scipy.optimize

    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_instances):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        tau2 = float(rng.uniform(0.05, 0.5))
        data = Dataset(
            X=rng.standard_normal((n, m)),
            T=rng.uniform(0, 1, size=(n, 2)),
            y=rng.integers(0, 2, size=n).astype(float),
        )
        spec = KernelSpec(
            instance_kernel=Matern(nu=1.5, lengthscale=2.0),
            task_kernel=Matern(nu=1.5, lengthscale=0.5),
        )
        model = gp_classify.fit_classifier(data, spec, tau2)

        K = kernels.product_kernel_matrix(data.X, data.T, data.X, data.T, spec)
        A = K + tau2 * np.eye(n)
        A_inv = np.linalg.inv(A)

        def neg_post(z):
            return -(data.y @ z - np.sum(np.logaddexp(0.0, z)) - 0.5 * z @ A_inv @ z)

        res = scipy.optimize.minimize(neg_post, np.zeros(n), method="BFGS", tol=1e-12)
        mode_dev = float(np.max(np.abs(model.mode - res.x)))

        x_star = rng.standard_normal(m)
        t_star = rng.uniform(0, 1, size=2)
        p = model.predict_proba(x_star, t_star)
        ks = kernels.product_kernel_matrix(
            data.X, data.T, x_star.reshape(1, -1), t_star.reshape(1, -1), spec
        ).ravel()
        mu = float(ks @ model.state.dual)
        sw = np.sqrt(model.state.W)
        V = np.linalg.solve(model.state.B_chol, sw * ks)
        var = float(
            kernels.product_kernel_diag(x_star.reshape(1, -1), t_star.reshape(1, -1), spec)[0]
            + tau2
            - V @ V
        )
        z = np.random.default_rng(seed + 1000 + c).standard_normal(mc_samples)
        p_mc = float(np.mean(sigmoid(mu + np.sqrt(max(var, 0.0)) * z)))
        proba_dev = abs(p - p_mc)

        stat = max(mode_dev / mode_tol, proba_dev / proba_tol)
        reports.append(
            CheckReport(
                name=f"theorem2/instance{c:02d}",
                statistic=stat,
                threshold=1.0,
                details={"mode_dev": mode_dev, "proba_dev": proba_dev},
            )
        )
    return reports


def prop1_analytic_battery(n_trees: int = 100, seed: int = 0, tol: float = 1e-8) -> list[CheckReport]:
    """End-to-end weight-space equivalence over random trees."""
    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_trees):
        k = int(rng.integers(1, 21))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 16))
        tree = random_tree(k, rng, sigma_low=0.3, sigma_high=3.0)
        data = Dataset(
            X=rng.standard_normal((n, m)),
            T=rng.integers(1, k + 1, size=n),
            y=rng.standard_normal(n),
        )
        report = multitask_hb.end_to_end_equivalence(
            tree, data, tau2=float(rng.uniform(0.05, 0.5)), tol=tol
        )
        reports.append(replace(report, name=f"prop1-analytic/tree{c:02d}"))
    return reports


def prop1_statistical_battery(
    n_trees: int = 5, n_samples: int = 10**6, seed: int = 0, se_limit: float = 4.0
) -> list[CheckReport]:
    """Monte-Carlo covariance of the hierarchical sampler vs the closed form."""
    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_trees):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        tree = random_tree(k, rng, sigma_low=0.5, sigma_high=2.0)
        rep = multitask_hb.verify_prop1(tree, m, n_samples, seed=seed + c, se_limit=se_limit)
        reports.append(replace(rep, name=f"prop1-mc/tree{c:02d}(k={k},m={m})"))
    return reports


def prop2_battery(n_trees: int = 100, seed: int = 0, tol: float = 1e-8) -> list[CheckReport]:
    """Laplacian-inverse identity over random trees up to k = 50."""
    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_trees):
        k = int(rng.integers(1, 51))
        tree = random_tree(k, rng, sigma_low=0.1, sigma_high=10.0)
        rep = multitask_hb.verify_prop2(tree, tol=tol)
        reports.append(replace(rep, name=f"prop2/tree{c:02d}(k={k})"))
    return reports


def fitc_battery(
    seed: int = 0, exact_tol: float = 1e-6, dev_frac: float = 0.05
) -> list[CheckReport]:
    """FITC exactness with all inducing points; accuracy at p = n/10."""
    rng = np.random.default_rng(seed)
    reports = []

    spec = KernelSpec(
        instance_kernel=Matern(nu=1.5, lengthscale=2.0),
        task_kernel=Matern(nu=1.5, lengthscale=0.3),
    )

    n = 80
    res = synth_vcm(n + 50, m=2, d=1, task_kernel=spec.task_kernel, tau2=0.05, seed=seed)
    data = res.dataset.subset(np.arange(n))
    test = res.dataset.subset(np.arange(n, n + 50))
    exact = gp_core.fit_regressor(data, spec, 0.05)
    all_inducing = sparse_fitc.InducingSet(X=data.X, T=data.T)
    fitc_full = gp_core.fit_regressor(data, spec, 0.05, inducing=all_inducing)
    me, ve = exact.predict_batch(test.X, test.T)
    mf, vf = fitc_full.predict_batch(test.X, test.T)
    dev = max(float(np.max(np.abs(me - mf))), float(np.max(np.abs(ve - vf))))
    reports.append(
        CheckReport(
            name="fitc/exact-when-u-is-train",
            statistic=dev,
            threshold=exact_tol,
        )
    )

    n = 2000
    configs = {
        "linear-instance": (
            KernelSpec(instance_kernel=Linear(), task_kernel=Matern(nu=1.5, lengthscale=0.3)),
            3,
        ),
        "matern-instance": (
            KernelSpec(
                instance_kernel=Matern(nu=1.5, lengthscale=3.0),
                task_kernel=Matern(nu=1.5, lengthscale=0.5),
            ),
            2,
        ),
    }
    for label, (spec2, m) in configs.items():
        res = synth_vcm(n + 300, m=m, d=1, task_kernel=spec2.task_kernel, tau2=0.05, seed=seed + 1)
        data = res.dataset.subset(np.arange(n))
        test = res.dataset.subset(np.arange(n, n + 300))
        exact = gp_core.fit_regressor(data, spec2, 0.05)
        inducing = sparse_fitc.select_inducing(data, n // 10, seed=seed + 2)
        approx = gp_core.fit_regressor(data, spec2, 0.05, inducing=inducing)
        me, _ = exact.predict_batch(test.X, test.T)
        mf, _ = approx.predict_batch(test.X, test.T)
        rel = float(np.mean(np.abs(me - mf)) / np.std(data.y))
        reports.append(
            CheckReport(
                name=f"fitc/p-equals-n-over-10/{label}",
                statistic=rel,
                threshold=dev_frac,
            )
        )
    return reports


def _random_matern(rng, dims: int, ard: bool) -> Matern:
    return Matern(
        nu=float(rng.choice([0.5, 1.5, 2.5])),
        lengthscale=tuple(rng.uniform(0.5, 3.0, size=dims)) if ard else float(rng.uniform(0.3, 2.0)),
        amplitude=float(rng.uniform(0.5, 2.0)),
    )


def _mixed_gradient_case(kind: str, rng) -> tuple[Dataset, KernelSpec, float]:
    """One random problem whose product kernel pairs Matern with another family."""
    n = int(rng.integers(5, 15))
    m = int(rng.integers(1, 4))
    X = rng.standard_normal((n, m))
    y = rng.standard_normal(n)
    ard = bool(rng.integers(0, 2))
    if kind == "linear-x-matern":
        T = rng.uniform(0, 2, size=(n, int(rng.integers(1, 3))))
        spec = KernelSpec(Linear(), _random_matern(rng, T.shape[1], ard))
    else:
        inst = _random_matern(rng, m, ard)
        if kind == "matern-x-constant":
            T = rng.uniform(0, 2, size=(n, 1))
            task = kernels.Constant(float(rng.uniform(0.5, 2.0)))
        else:
            k = int(rng.integers(2, 6))
            T = rng.integers(1, k + 1, size=n)
            if kind == "matern-x-tree":
                task = kernels.Tree(random_tree(k, rng, 0.3, 2.0))
            else:
                task = FixedGram(_random_psd_gram(k, rng))
        spec = KernelSpec(inst, task)
    return Dataset(X=X, T=T, y=y), spec, float(rng.uniform(0.05, 0.5))


_MIXED_GRADIENT_KINDS = ("linear-x-matern", "matern-x-constant", "matern-x-tree", "matern-x-fixed-gram")


def _gradient_fd_error(data: Dataset, spec: KernelSpec, tau2: float, h: float) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    NaN when any gradient is NaN, so such a point fails its check.
    """
    _, grad = lml_and_gradient(data, spec, tau2)
    values = gp_core._param_values(spec, tau2)
    errors = []
    for i, g in enumerate(grad.values()):
        theta = np.log(values[i])
        hi, lo = list(values), list(values)
        hi[i], lo[i] = np.exp(theta + h), np.exp(theta - h)
        f_hi, _ = lml_and_gradient(data, *gp_core._with_param_values(spec, hi))
        f_lo, _ = lml_and_gradient(data, *gp_core._with_param_values(spec, lo))
        fd = (f_hi - f_lo) / (2 * h)
        errors.append(abs(g - fd) / max(abs(g), abs(fd), 1e-8))
    return float(np.max(errors))


def gradient_battery(n_points: int = 20, seed: int = 0, rtol: float = 1e-4) -> list[CheckReport]:
    """Analytic marginal-likelihood gradients vs central finite differences.

    ``n_points`` random Matern x Matern problems, then two problems for each
    mixed product kernel (Linear x Matern, and Matern x Constant, Tree or
    FixedGram task kernels) drawn from a separate generator, so the
    Matern x Matern points do not depend on the mixed ones.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    cases = []
    for c in range(n_points):
        n = int(rng.integers(5, 15))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        ard = bool(rng.integers(0, 2))
        data = Dataset(
            X=rng.standard_normal((n, m)),
            T=rng.uniform(0, 2, size=(n, d)),
            y=rng.standard_normal(n),
        )
        inst_ls = tuple(rng.uniform(0.5, 3.0, size=m)) if ard else float(rng.uniform(0.5, 3.0))
        spec = KernelSpec(
            instance_kernel=Matern(
                nu=float(rng.choice([0.5, 1.5, 2.5])),
                lengthscale=inst_ls,
                amplitude=float(rng.uniform(0.5, 2.0)),
            ),
            task_kernel=Matern(
                nu=float(rng.choice([0.5, 1.5, 2.5])),
                lengthscale=float(rng.uniform(0.3, 2.0)),
                amplitude=float(rng.uniform(0.5, 2.0)),
            ),
        )
        tau2 = float(rng.uniform(0.05, 0.5))
        cases.append((f"gradient/point{c:02d}", data, spec, tau2))
    mixed_rng = np.random.default_rng([seed, 1])
    for kind in _MIXED_GRADIENT_KINDS:
        for c in range(2):
            cases.append((f"gradient/{kind}/{c}", *_mixed_gradient_case(kind, mixed_rng)))
    reports = []
    for name, data, spec, tau2 in cases:
        worst = _gradient_fd_error(data, spec, tau2, h)
        reports.append(CheckReport(name=name, statistic=worst, threshold=rtol))
    return reports


SCOPES = ("prop1", "prop2", "theorem1", "theorem2", "fitc", "gradients", "all")


def run_scope(scope: str, seed: int = 0, mc_samples: int = 10**6) -> list[CheckReport]:
    """Run the named battery (or all of them) and return the reports."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {SCOPES}")
    reports: list[CheckReport] = []
    if scope in ("prop1", "all"):
        reports += prop1_analytic_battery(seed=seed)
        reports += prop1_statistical_battery(seed=seed, n_samples=mc_samples)
    if scope in ("prop2", "all"):
        reports += prop2_battery(seed=seed)
    if scope in ("theorem1", "all"):
        reports += theorem1_battery(seed=seed)
    # the 1e-3 quadrature-vs-MC tolerance needs ~1e7 samples (MC standard
    # error 1.6e-4); smaller requests would fail on sampling noise alone
    if scope in ("theorem2", "all"):
        reports += theorem2_battery(seed=seed, mc_samples=max(mc_samples, 10**7))
    if scope in ("fitc", "all"):
        reports += fitc_battery(seed=seed)
    if scope in ("gradients", "all"):
        reports += gradient_battery(seed=seed)
    return reports
