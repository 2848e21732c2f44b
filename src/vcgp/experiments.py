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
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import baselines, gp_classify, gp_core, sparse_fitc
from .gp_core import Dataset, SearchConfig
from .kernels import Constant, KernelSpec, Linear, Matern, TaskKernel, kernel_from_dict

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
    "config_value",
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


_REQUIRED = object()
# what each kind of config value must be: (container types or None, description)
_KINDS = {float: (None, "a number"), int: (None, "an integer"), dict: (Mapping, "a mapping"),
          list: ((list, tuple), "a list"), str: (str, "a string")}


def config_value(name: str, value, kind: type, default=_REQUIRED):
    """``kind(value)`` for a kind in ``_KINDS``, or ``default`` if value is None.

    Raises ``ValueError`` naming the dotted config key ``name`` when the
    value is missing without a default or is not of that kind.
    """
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"config is missing required key {name!r}")
        return default
    container, want = _KINDS[kind]
    # a YAML yes/true is a bool, which Python would take as the number 1
    ok = isinstance(value, container) if container else not isinstance(value, bool)
    try:
        if ok:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"config key {name!r} must be {want}, got {value!r}")


def _float_list(name: str, value, default=_REQUIRED) -> list[float]:
    """A list of numbers; a bad element raises ``ValueError`` naming ``name[i]``."""
    values = config_value(name, value, list, default)
    return [config_value(f"{name}[{i}]", v, float) for i, v in enumerate(values)]


@dataclass(frozen=True)
class RunSettings:
    """Per-method model settings resolved from the experiment config.

    The sections are parsed and checked once, at construction, into the
    fields after ``fanzhang``; a malformed one raises ``ValueError`` naming
    its config key before any fold runs.
    """

    problem: str = "regression"  # regression | classification
    task_kernel: Mapping | None = None           # kernel dict for vcgp methods
    instance_matern: Mapping = field(default_factory=dict)
    tau2: float = 0.1
    tuning: Mapping | None = None                # {"method": none|grid|gradient, ...}
    fitc: Mapping | None = None                  # {"p": int, "seed": int}
    fanzhang: Mapping = field(default_factory=dict)
    instance_kernel: Matern = field(init=False, repr=False, compare=False)
    vcgp_task_kernel: TaskKernel = field(init=False, repr=False, compare=False)
    search: SearchConfig | None = field(init=False, repr=False, compare=False)  # seed 0
    fitc_p_seed: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    fanzhang_args: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.problem not in ("regression", "classification"):
            raise ValueError("problem must be regression or classification")
        tau2 = config_value("model.tau2", self.tau2, float)
        matern = config_value("model.instance_matern", self.instance_matern, dict, {})
        tuning = config_value("tuning", self.tuning, dict, {})
        fitc = config_value("model.fitc", self.fitc, dict, {})
        fz = config_value("fanzhang", self.fanzhang, dict, {})
        fz_matern = config_value("fanzhang.matern", fz.get("matern"), dict, {})
        task = self.task_kernel
        parsed = dict(
            tau2=tau2,
            instance_kernel=kernel_from_dict({**matern, "type": "matern"}),
            vcgp_task_kernel=Matern() if task is None else kernel_from_dict(task, task=True),
            search=_search_config(tuning, tau2),
            fitc_p_seed=(
                config_value("model.fitc.p", fitc.get("p"), int, 1000),
                config_value("model.fitc.seed", fitc.get("seed"), int, 0),
            ) if fitc else None,
            fanzhang_args=dict(
                kernel=kernel_from_dict({**fz_matern, "type": "matern"}),
                n_basis=config_value("fanzhang.n_basis", fz.get("n_basis"), int, 200),
                bandwidths=_float_list(
                    "fanzhang.bandwidths", fz.get("bandwidths"), (0.05, 0.1, 0.3, 1.0)
                ),
                ridges=_float_list("fanzhang.ridges", fz.get("ridges"), (1e-6, 1e-3, 1e-1)),
                n_folds=config_value("fanzhang.cv_folds", fz.get("cv_folds"), int, 5),
            ),
        )
        for name, value in parsed.items():
            object.__setattr__(self, name, value)


def _search_config(tuning: Mapping, tau2: float) -> SearchConfig | None:
    """The tuning section as a :class:`SearchConfig` with seed 0, or None for no tuning."""
    if tuning.get("method", "none") == "none":
        return None
    grid = config_value("tuning.grid", tuning.get("grid"), dict, None)
    return SearchConfig(
        method=tuning["method"],
        grid=grid and {k: _float_list(f"tuning.grid.{k}", v) for k, v in grid.items()},
        n_restarts=config_value("tuning.n_restarts", tuning.get("n_restarts"), int, 5),
        max_iter=config_value("tuning.max_iter", tuning.get("max_iter"), int, 200),
        grad_tol=config_value("tuning.grad_tol", tuning.get("grad_tol"), float, 1e-5),
        tau2_init=config_value("tuning.tau2_init", tuning.get("tau2_init"), float, tau2),
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

    inst = Linear() if method.endswith("-lin") else settings.instance_kernel
    # iid and concat run a plain GP (constant task kernel); concat rebuilds X
    task = settings.vcgp_task_kernel if method.startswith("vcgp") else Constant(1.0)
    spec = KernelSpec(instance_kernel=inst, task_kernel=task)
    tau2 = settings.tau2
    model = None
    if settings.search is not None:
        tune = (gp_classify.tune_classifier_hyperparameters if classification
                else gp_core.tune_hyperparameters)
        model = tune(train, spec, replace(settings.search, seed=derive_seed(seed, "tune")))
        spec, tau2 = model.spec, model.tau2

    if settings.fitc_p_seed:
        model = None  # FITC takes the exact evidence's hyperparameters, not its model
        p, fitc_seed = settings.fitc_p_seed
        inducing = sparse_fitc.select_inducing(
            train, min(p, train.n), derive_seed(seed, "inducing", fitc_seed)
        )
        fit = sparse_fitc.fit_fitc_classifier if classification else sparse_fitc.fit_fitc
        model = fit(train, spec, tau2, inducing)
    elif model is None:
        fit = gp_classify.fit_classifier if classification else gp_core.fit_regressor
        model = fit(train, spec, tau2)

    if classification:
        proba = model.predict_proba_batch(test.X, test.T)
        return zero_one_loss(classify_probabilities(proba), test.y)
    mean, _ = model.predict_batch(test.X, test.T)
    return mae(mean, test.y)


def _run_fanzhang(method, train, test, settings, seed) -> float:
    fz = settings.fanzhang_args
    feature_map = None
    if method.endswith("-mat"):
        feature_map = baselines.matern_feature_map(
            train, fz["kernel"], n_basis=fz["n_basis"], seed=derive_seed(seed, "basis")
        )
    h, lam = baselines.fan_zhang_cv(
        train,
        fz["bandwidths"],
        fz["ridges"],
        n_folds=fz["n_folds"],
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
