"""Experiment protocol: methods, folds, metrics, deterministic seeding.

Every random choice flows from the experiment's global seed through
:func:`derive_seed`, which hashes a component name and indices into a
sub-seed, so any individual fold can be reproduced in isolation.  Result
rows are plain dictionaries written as CSV, sorted by (method, n, fold)
regardless of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import baselines, gp_classify, gp_core, sparse_fitc
from .gp_core import Dataset, SearchConfig
from .kernels import Constant, KernelSpec, Linear, Matern, kernel_from_dict

__all__ = [
    "METHOD_NAMES",
    "derive_seed",
    "mae",
    "zero_one_loss",
    "RunSettings",
    "run_method",
    "result_rows_to_csv",
    "summarize_rows",
    "BudgetExceeded",
]

METHOD_NAMES = (
    "vcgp-lin",
    "vcgp-mat",
    "iid-lin",
    "iid-mat",
    "concat-lin",
    "concat-mat",
    "fanzhang-lin",
    "fanzhang-mat",
)

RESULT_COLUMNS = ("method", "n", "fold", "metric", "value", "wall_time_s", "seed")


class BudgetExceeded(RuntimeError):
    """Raised when the configured time budget runs out mid-experiment."""

    def __init__(self, rows):
        super().__init__("time budget exceeded")
        self.rows = rows


def derive_seed(master: int, *key) -> int:
    """Deterministic sub-seed: blake2b of the master seed and a key tuple."""
    digest = hashlib.blake2b(repr((int(master),) + key).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def mae(y_pred, y_true) -> float:
    """Mean absolute error."""
    y_pred = np.asarray(y_pred, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred.shape != y_true.shape:
        raise ValueError("predictions and labels have different lengths")
    return float(np.mean(np.abs(y_pred - y_true)))


def zero_one_loss(y_pred_class, y_true) -> float:
    """Mean zero-one loss between predicted and true classes."""
    y_pred_class = np.asarray(y_pred_class, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred_class.shape != y_true.shape:
        raise ValueError("predictions and labels have different lengths")
    return float(np.mean(y_pred_class != y_true))


def classify_probabilities(p: np.ndarray) -> np.ndarray:
    """Threshold class-1 probabilities at 0.5 (ties go to class 1)."""
    return (np.asarray(p, dtype=float) >= 0.5).astype(float)


@dataclass(frozen=True)
class RunSettings:
    """Per-method model settings resolved from the experiment config."""

    problem: str = "regression"  # regression | classification
    task_kernel: Mapping | None = None           # kernel dict for vcgp methods
    instance_matern: Mapping = field(default_factory=dict)
    tau2: float = 0.1
    tuning: Mapping | None = None                # {"method": none|grid|gradient, ...}
    fitc: Mapping | None = None                  # {"p": int, "seed": int}
    fanzhang: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in ("regression", "classification"):
            raise ValueError("problem must be regression or classification")


def _instance_kernel(method: str, settings: RunSettings):
    if method.endswith("-lin"):
        return Linear()
    return kernel_from_dict({**settings.instance_matern, "type": "matern"})


def _task_kernel(settings: RunSettings):
    if settings.task_kernel is None:
        return Matern()
    return kernel_from_dict(settings.task_kernel, task=True)


def _make_spec(method: str, settings: RunSettings) -> KernelSpec:
    inst = _instance_kernel(method, settings)
    if method.startswith("vcgp"):
        return KernelSpec(instance_kernel=inst, task_kernel=_task_kernel(settings))
    # iid and concat run a plain GP (constant task kernel); concat rebuilds X
    return KernelSpec(instance_kernel=inst, task_kernel=Constant(1.0))


def _search_config(settings: RunSettings, seed: int) -> SearchConfig | None:
    tuning = settings.tuning or {"method": "none"}
    method = tuning.get("method", "none")
    if method == "none":
        return None
    grid = tuning.get("grid")
    if grid is not None:
        grid = {k: list(v) for k, v in grid.items()}
    return SearchConfig(
        method=method,
        grid=grid,
        n_restarts=int(tuning.get("n_restarts", 5)),
        max_iter=int(tuning.get("max_iter", 200)),
        grad_tol=float(tuning.get("grad_tol", 1e-5)),
        tau2_init=float(tuning.get("tau2_init", settings.tau2)),
        seed=seed,
    )


def run_method(
    method: str,
    train: Dataset,
    test: Dataset,
    settings: RunSettings,
    seed: int,
) -> float:
    """Fit one method on the training data and score it on the test data.

    Returns MAE for regression, mean zero-one loss for classification.
    """
    if method not in METHOD_NAMES:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    classification = settings.problem == "classification"
    if method.startswith("fanzhang"):
        if classification:
            raise ValueError(
                "kernel-local smoothing classification is unsupported; "
                "use it for regression only"
            )
        return _run_fanzhang(method, train, test, settings, seed)

    if method.startswith("concat"):
        if train.has_discrete_tasks:
            raise ValueError("concatenation methods need continuous task variables")
        train = Dataset(X=np.hstack([train.X, train.T]), T=np.zeros((train.n, 1)), y=train.y)
        test = Dataset(X=np.hstack([test.X, test.T]), T=np.zeros((test.n, 1)), y=test.y)

    spec = _make_spec(method, settings)
    tau2 = settings.tau2
    model = None
    search = _search_config(settings, derive_seed(seed, "tune"))
    if search is not None:
        if classification:
            model = gp_classify.tune_classifier_hyperparameters(train, spec, search)
        else:
            model = gp_core.tune_hyperparameters(train, spec, search)
        spec, tau2 = model.spec, model.tau2

    fitc = settings.fitc
    if fitc:
        model = None  # FITC takes the exact evidence's hyperparameters, not its model
        p = min(int(fitc.get("p", 1000)), train.n)
        inducing = sparse_fitc.select_inducing(
            train, p, derive_seed(seed, "inducing", int(fitc.get("seed", 0)))
        )
        if classification:
            model = sparse_fitc.fit_fitc_classifier(train, spec, tau2, inducing)
        else:
            model = sparse_fitc.fit_fitc(train, spec, tau2, inducing)
    elif model is None:
        fit = gp_classify.fit_classifier if classification else gp_core.fit_regressor
        model = fit(train, spec, tau2)

    if classification:
        proba = model.predict_proba_batch(test.X, test.T)
        return zero_one_loss(classify_probabilities(proba), test.y)
    mean, _ = model.predict_batch(test.X, test.T)
    return mae(mean, test.y)


def _run_fanzhang(method, train, test, settings, seed) -> float:
    fz = dict(settings.fanzhang)
    feature_map = None
    if method.endswith("-mat"):
        kernel = kernel_from_dict({**fz.get("matern", {}), "type": "matern"})
        feature_map = baselines.matern_feature_map(
            train, kernel, n_basis=int(fz.get("n_basis", 200)), seed=derive_seed(seed, "basis")
        )
    bandwidths = fz.get("bandwidths", (0.05, 0.1, 0.3, 1.0))
    ridges = fz.get("ridges", (1e-6, 1e-3, 1e-1))
    h, lam = baselines.fan_zhang_cv(
        train,
        bandwidths,
        ridges,
        n_folds=int(fz.get("cv_folds", 5)),
        seed=derive_seed(seed, "cv"),
        feature_map=feature_map,
    )
    pred = baselines.fan_zhang_fit_predict(train, test.X, test.T, h, lam, feature_map=feature_map)
    return mae(pred, test.y)


def run_experiment(
    dataset_for_fold,
    methods: Sequence[str],
    train_sizes: Sequence[int],
    n_folds: int,
    settings: RunSettings,
    global_seed: int,
    budget_seconds: float | None = None,
) -> list[dict]:
    """Run the full (method, n, fold) grid and return result rows.

    ``dataset_for_fold(method, n, fold, seed)`` must return a (train, test)
    dataset pair; randomness inside it should use the provided derived seed.
    Raises :class:`BudgetExceeded` carrying the completed rows if the time
    budget runs out.
    """
    rows: list[dict] = []
    start = time.perf_counter()
    metric_name = "zero_one" if settings.problem == "classification" else "mae"
    for method in methods:
        for n in train_sizes:
            for fold in range(n_folds):
                fold_seed = derive_seed(global_seed, "fold", method, int(n), int(fold))
                train, test = dataset_for_fold(method, n, fold, fold_seed)
                t0 = time.perf_counter()
                value = run_method(method, train, test, settings, fold_seed)
                wall = time.perf_counter() - t0
                rows.append(
                    {
                        "method": method,
                        "n": int(n),
                        "fold": int(fold),
                        "metric": metric_name,
                        "value": value,
                        "wall_time_s": wall,
                        "seed": fold_seed,
                    }
                )
                if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
                    raise BudgetExceeded(sorted_rows(rows))
    return sorted_rows(rows)


def sorted_rows(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (r["method"], r["n"], r["fold"]))


def result_rows_to_csv(rows: list[dict], path) -> None:
    """Write result rows with the stable column set and deterministic order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in sorted_rows(rows):
            out = dict(row)
            out["value"] = repr(float(row["value"]))
            out["wall_time_s"] = f"{row['wall_time_s']:.6f}"
            writer.writerow(out)


def summarize_rows(rows: list[dict]) -> list[dict]:
    """Aggregate per-fold rows into mean and standard error per (method, n)."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r["method"], int(r["n"]), r["metric"]), []).append(float(r["value"]))
    out = []
    for (method, n, metric), values in sorted(groups.items()):
        v = np.asarray(values)
        se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
        out.append(
            {
                "method": method,
                "n": n,
                "metric": metric,
                "mean": float(v.mean()),
                "stderr": se,
                "folds": int(v.size),
            }
        )
    return out
