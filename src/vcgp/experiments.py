"""Experiment protocol: methods, folds, metrics, deterministic seeding.

Every random choice flows from the experiment's global seed through
:func:`derive_seed`, which hashes a component name and indices into a
sub-seed, so any individual fold can be reproduced in isolation.  Result
rows are plain dictionaries written as CSV, sorted by (method, n, fold)
regardless of execution order.

The ``vcgp run`` config format is parsed here and nowhere else:
:func:`parse_config` reads every key once, through :func:`config_value`,
into a frozen :class:`ExperimentConfig`, and :meth:`ExperimentConfig.splits`
checks the split and train sizes against the record pool.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import baselines, data_io, gp_classify, gp_core, sparse_fitc
from .data_io import PreprocessPolicy, Schema
from .gp_core import Dataset, SearchConfig
from .kernels import Constant, KernelSpec, Linear, Matern, TaskKernel, kernel_from_dict

__all__ = [
    "METHOD_NAMES",
    "derive_seed",
    "mae",
    "zero_one_loss",
    "RunSettings",
    "run_settings",
    "ExperimentConfig",
    "parse_config",
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
# each kind's accepted types and description (YAML reads 1e-3 as a string; float() takes it)
_KINDS = {float: ((int, float, str), "a number"), int: ((int, str), "an integer"),
          dict: (Mapping, "a mapping"), list: ((list, tuple), "a list"), str: (str, "a string"),
          bool: (bool, "true or false")}


def config_value(name: str, value, kind: type, default=_REQUIRED, low=None, high=math.inf,
                 choices=None, finite=True):
    """``kind(value)`` for a kind in ``_KINDS``, or ``default`` if value is None.

    A number must be finite unless ``finite`` is false (a time budget may be
    infinite) and exceed ``low`` (the bounded numbers are variances, times
    and tolerances), an integer lie in ``low..high``, a string be in
    ``choices``.  Anything else raises ``ValueError`` naming the dotted
    config key ``name``.
    """
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"config is missing required key {name!r}")
        return default
    types, want = _KINDS[kind]
    if choices is not None:
        want = f"one of {', '.join(choices)}"
    elif kind is float:
        want = "a finite number" if finite else "a number"
        want += f" above {low}" if low is not None else ""
    elif low is not None:
        want = f"an integer in {low}..{high}" if high < math.inf else f"an integer of at least {low}"
    # a YAML yes/true is a bool, which Python would also take as the number 1
    if isinstance(value, types) and (kind is bool or not isinstance(value, bool)):
        try:
            parsed = kind(value)
        except (TypeError, ValueError):
            pass
        else:
            in_range = low is None or (parsed > low if kind is float else low <= parsed <= high)
            if kind is float and finite:
                in_range = in_range and math.isfinite(parsed)
            if in_range and (choices is None or parsed in choices):
                return parsed
    raise ValueError(f"config key {name!r} must be {want}, got {value!r}")


def _at_least_zero(name: str, value: float) -> float:
    """``value``, or ``ValueError`` naming ``name`` below 0: config_value's low is exclusive."""
    if not value >= 0:
        raise ValueError(f"config key {name!r} must be a number of at least 0, got {value!r}")
    return value


def _numbers(name: str, value, kind: type, default=_REQUIRED, low=None, size=None) -> list:
    """A non-empty list of ``kind`` (of ``size`` items, if given); a bad item names ``name[i]``."""
    values = config_value(name, value, list, default)
    if not values or size not in (None, len(values)):
        raise ValueError(f"config key {name!r} must list {size or 'some'} numbers, got {value!r}")
    return [config_value(f"{name}[{i}]", v, kind, low=low) for i, v in enumerate(values)]


# the tuning keys each search method reads, besides tuning.method
_TUNING_KEYS = {"none": (), "grid": ("grid",), "gradient": ("n_restarts", "max_iter", "grad_tol")}

# the keys of each config section, by dotted name ("" is the top level);
# tuning.grid and dataset.policy.brackets are checked by what they name
_SECTION_KEYS = {
    "": ("seed", "out", "budget_seconds", "problem", "methods", "train_sizes", "dataset",
         "split", "model", "tuning", "fanzhang"),
    "model": ("task_kernel", "instance_matern", "tau2", "fitc"),
    "model.fitc": ("p", "seed"),
    "tuning": ("method", *_TUNING_KEYS["grid"], *_TUNING_KEYS["gradient"]),
    "fanzhang": ("matern", "n_basis", "bandwidths", "ridges", "cv_folds"),
    "dataset": ("csv", "synth", "schema", "policy"),
    "dataset.synth": ("n", "m", "d", "task_kernel", "tau2", "seed"),
    "dataset.schema": ("target", "numeric", "categorical", "task_coords", "task_time", "task_id"),
    "dataset.policy": ("brackets", "drop_missing", "standardize"),
    "split": ("kfold", "blocked"),
    "split.kfold": ("k",),
    "split.blocked": ("num_blocks", "window"),
}


def _section(name: str, value, default=_REQUIRED) -> Mapping:
    """The mapping at config key ``name``; a key it does not take raises ``ValueError`` naming it."""
    section = config_value(name, value, dict, default) if name else value
    keys = _SECTION_KEYS[name]
    for key in section:
        if key not in keys:
            dotted = f"{name}.{key}" if name else str(key)
            raise ValueError(f"unknown config key {dotted!r}; "
                             f"{name or 'the top level'} takes {', '.join(keys)}")
    return section


def _kernel(name: str, value, default: Mapping, task: bool = False, **fixed):
    """The kernel dict at config key ``name`` (or ``default``), updated by ``fixed``, parsed.

    Errors name the key.
    """
    kernel = config_value(name, value, dict, default)
    try:
        return kernel_from_dict({**kernel, **fixed}, task=task)
    except ValueError as exc:
        raise ValueError(f"{exc} (config key {name!r})") from None


@dataclass(frozen=True)
class RunSettings:
    """Per-method model settings, parsed from the experiment config by :func:`run_settings`."""

    problem: str                      # regression | classification
    instance_kernel: Matern           # for the -mat methods
    task_kernel: TaskKernel           # for the vcgp methods
    tau2: float                       # the fit's tau2, or where a search starts
    search: SearchConfig | None       # seed 0; None for no tuning
    fitc: tuple[int, int] | None      # (p, seed) of the inducing points; None for exact fits
    fanzhang: Mapping                 # the -mat feature map's kernel and fan_zhang_cv's settings


def run_settings(cfg: Mapping) -> RunSettings:
    """The ``problem``, ``model``, ``tuning`` and ``fanzhang`` sections of ``cfg``, parsed."""
    problem = config_value("problem", cfg.get("problem"), str, "regression",
                           choices=("regression", "classification"))
    model = _section("model", cfg.get("model"), {})
    tau2 = config_value("model.tau2", model.get("tau2"), float, 0.1, low=0)
    fitc = _section("model.fitc", model.get("fitc"), {})
    fz = _section("fanzhang", cfg.get("fanzhang"), {})
    ridges = _numbers("fanzhang.ridges", fz.get("ridges"), float, (1e-6, 1e-3, 1e-1))
    ridges = [_at_least_zero(f"fanzhang.ridges[{i}]", ridge) for i, ridge in enumerate(ridges)]
    return RunSettings(
        problem=problem,
        instance_kernel=_kernel("model.instance_matern", model.get("instance_matern"), {},
                                type="matern"),
        task_kernel=_kernel("model.task_kernel", model.get("task_kernel"), {"type": "matern"},
                            task=True),
        tau2=tau2,
        search=_search_config(_section("tuning", cfg.get("tuning"), {}), tau2,
                              gradient=problem == "regression" and model.get("fitc") is None),
        fitc=(
            config_value("model.fitc.p", fitc.get("p"), int, 1000, low=1),
            config_value("model.fitc.seed", fitc.get("seed"), int, 0),
        ) if model.get("fitc") is not None else None,  # fitc: {} takes both defaults
        fanzhang=dict(
            kernel=_kernel("fanzhang.matern", fz.get("matern"), {}, type="matern"),
            n_basis=config_value("fanzhang.n_basis", fz.get("n_basis"), int, 200, low=1),
            bandwidths=_numbers(
                "fanzhang.bandwidths", fz.get("bandwidths"), float, (0.05, 0.1, 0.3, 1.0), low=0
            ),
            ridges=ridges,
            n_folds=config_value("fanzhang.cv_folds", fz.get("cv_folds"), int, 5, low=2),
        ),
    )


def _search_config(tuning: Mapping, tau2: float, gradient: bool) -> SearchConfig | None:
    """The tuning section as a :class:`SearchConfig` from ``tau2`` with seed 0, or None for no tuning."""
    # only the exact Gaussian evidence has a gradient here: classification and FITC tune on a grid
    methods = ("none", "grid") + (("gradient",) if gradient else ())
    method = config_value("tuning.method", tuning.get("method"), str, "none", choices=methods)
    for key in tuning:
        if key not in ("method", *_TUNING_KEYS[method]):
            raise ValueError(f"config key 'tuning.{key}' is set, but 'tuning.method' is {method}, "
                             f"which reads {', '.join(_TUNING_KEYS[method]) or 'no other key'}")
    if method == "none":
        return None
    grid = config_value("tuning.grid", tuning.get("grid"), dict, {})
    if method == "grid" and not grid:
        raise ValueError("config key 'tuning.grid' must map at least one parameter to its values")
    for key in grid:
        if not gp_core._PARAM_NAME.fullmatch(str(key)):
            raise ValueError(f"unknown config key 'tuning.grid.{key}'; a grid key is tau2, or "
                             "instance./task. then lengthscale, lengthscale[i] or amplitude")
    return SearchConfig(
        method=method,
        grid={k: _numbers(f"tuning.grid.{k}", v, float, low=0) for k, v in grid.items()} or None,
        n_restarts=config_value("tuning.n_restarts", tuning.get("n_restarts"), int, 5, low=1),
        max_iter=config_value("tuning.max_iter", tuning.get("max_iter"), int, 200, low=1),
        grad_tol=config_value("tuning.grad_tol", tuning.get("grad_tol"), float, 1e-5, low=0),
        tau2_init=tau2,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """A ``vcgp run`` config, each key parsed and checked once by :func:`parse_config`."""

    seed: int
    out: str
    budget_seconds: float | None
    methods: tuple[str, ...]
    train_sizes: tuple[int, ...]
    settings: RunSettings
    synth: Mapping | None = None             # synth_vcm's arguments, for a synthetic dataset
    csv: str | None = None                   # or a CSV file, its schema and policy
    schema: Schema | None = None
    policy: PreprocessPolicy | None = None
    kfold: int | None = None                 # split.kfold.k, for a k-fold split
    blocked: tuple[int, int] | None = None   # or (num_blocks, window)

    def splits(self, pool_size: int, times) -> dict[int, list]:
        """Each train size's (train, test) index pairs over a pool of ``pool_size`` records.

        ``times`` orders the records for a blocked split (None if they have no
        temporal task field).  The split and every train size are checked
        against the pool first, raising ``ValueError`` naming the config key.
        """
        if self.kfold is not None:
            k = config_value("split.kfold.k", self.kfold, int, low=2, high=pool_size)
            largest = pool_size - math.ceil(pool_size / k)  # the smallest training fold
            split = functools.partial(data_io.kfold_splits, pool_size, k)
        else:
            if times is None:
                raise ValueError("config key 'split.blocked' needs a temporal task field")
            num_blocks, window = self.blocked
            config_value("split.blocked.num_blocks", num_blocks, int, low=2, high=pool_size)
            blocks = [b.size for b in np.array_split(np.arange(pool_size), num_blocks)]
            largest = min(sum(blocks[i:i + window]) for i in range(num_blocks - window))
            split = functools.partial(data_io.blocked_splits, times, num_blocks, window)
        for i, n in enumerate(self.train_sizes):
            config_value(f"train_sizes[{i}]", n, int, low=1, high=largest)
        return {n: split(n, seed=derive_seed(self.seed, "split", n)) for n in self.train_sizes}


def parse_config(cfg: Mapping) -> ExperimentConfig:
    """Parse and check every key of a ``vcgp run`` config mapping, once.

    A missing, malformed or out-of-range value raises ``ValueError`` naming its
    dotted key.  :meth:`ExperimentConfig.splits` checks the bounds set by the data.
    """
    cfg = _section("", cfg)
    seed = config_value("seed", cfg.get("seed"), int, 0)
    settings = run_settings(cfg)
    names = METHOD_NAMES
    if settings.problem == "classification":  # kernel-local smoothing has no classifier
        names = tuple(m for m in METHOD_NAMES if not m.startswith("fanzhang"))
    methods = tuple(config_value(f"methods[{i}]", m, str, choices=names)
                    for i, m in enumerate(config_value("methods", cfg.get("methods"), list)))
    if not methods:
        raise ValueError("config key 'methods' must list some methods, got []")
    # tuning needs two training points
    train_sizes = tuple(_numbers("train_sizes", cfg.get("train_sizes"), int,
                                 low=2 if settings.search else 1))
    split = _section("split", cfg.get("split"))
    if ("blocked" in split) == ("kfold" in split):
        raise ValueError("config key 'split' needs exactly one of 'split.blocked' or 'split.kfold'")
    fields = _dataset(_section("dataset", cfg.get("dataset")), seed)
    if "kfold" in split:
        kfold = _section("split.kfold", split["kfold"])
        fields["kfold"] = config_value("split.kfold.k", kfold.get("k"), int, low=2)
    else:
        b = _section("split.blocked", split["blocked"])
        num_blocks = config_value("split.blocked.num_blocks", b.get("num_blocks"), int, low=2)
        fields["blocked"] = (num_blocks, config_value("split.blocked.window", b.get("window"),
                                                      int, low=1, high=num_blocks - 1))
    return ExperimentConfig(
        seed=seed,
        out=config_value("out", cfg.get("out"), str, "results.csv"),
        budget_seconds=config_value("budget_seconds", cfg.get("budget_seconds"), float, None,
                                    low=0, finite=False),
        methods=methods,
        train_sizes=train_sizes,
        settings=settings,
        **fields,
    )


def _dataset(dataset: Mapping, seed: int) -> dict:
    """The ``synth``, or ``csv``, ``schema`` and ``policy``, fields of :class:`ExperimentConfig`."""
    if ("csv" in dataset) == ("synth" in dataset):
        raise ValueError("config key 'dataset' needs exactly one of 'dataset.csv' or 'dataset.synth'")
    if "synth" in dataset:
        for key in ("schema", "policy"):
            if key in dataset:
                raise ValueError(f"config key 'dataset.{key}' describes a CSV; "
                                 "it cannot be used with 'dataset.synth'")
        s = _section("dataset.synth", dataset["synth"])
        return dict(synth=dict(
            n=config_value("dataset.synth.n", s.get("n"), int, low=1),
            m=config_value("dataset.synth.m", s.get("m"), int, 3, low=1),
            d=config_value("dataset.synth.d", s.get("d"), int, 1, low=1),
            task_kernel=_kernel("dataset.synth.task_kernel", s.get("task_kernel"),
                                {"type": "matern", "lengthscale": 0.2}, task=True),
            # 0 draws noise-free data
            tau2=_at_least_zero("dataset.synth.tau2",
                                config_value("dataset.synth.tau2", s.get("tau2"), float, 0.05)),
            seed=config_value("dataset.synth.seed", s.get("seed"), int, derive_seed(seed, "synth"),
                              low=0),
        ))
    path = config_value("dataset.csv", dataset["csv"], str)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])  # each schema column must be one of these
    schema = _section("dataset.schema", dataset.get("schema"))
    policy = _section("dataset.policy", dataset.get("policy"), {})
    brackets = config_value("dataset.policy.brackets", policy.get("brackets"), dict, {})
    columns = {}
    for key in ("target", "task_time", "task_id"):
        columns[key] = config_value(f"dataset.schema.{key}", schema.get(key), str,
                                    _REQUIRED if key == "target" else None, choices=header)
    for key in ("numeric", "categorical", "task_coords"):
        names = config_value(f"dataset.schema.{key}", schema.get(key), list, ())
        columns[key] = tuple(config_value(f"dataset.schema.{key}[{i}]", c, str, choices=header)
                             for i, c in enumerate(names))
    if (columns["task_id"] is None) == (not columns["task_coords"] and not columns["task_time"]):
        raise ValueError("config needs exactly one task variant: 'dataset.schema.task_id', or "
                         "'dataset.schema.task_coords' and/or 'dataset.schema.task_time'")
    # a bracket compares numbers, so it needs a column the schema loads as one
    numbers = (columns["target"], columns["task_id"], *columns["numeric"], *columns["task_coords"])
    for column in brackets:
        if column not in numbers:
            raise ValueError(f"config key 'dataset.policy.brackets.{column}' must name the target, "
                             "a numeric, task_coords or task_id column of 'dataset.schema'")
    return dict(
        csv=path,
        schema=Schema(**columns),
        policy=PreprocessPolicy(
            brackets={column: tuple(_numbers(f"dataset.policy.brackets.{column}", pair, float,
                                             size=2)) for column, pair in brackets.items()},
            drop_missing=config_value("dataset.policy.drop_missing", policy.get("drop_missing"),
                                      bool, True),
            standardize=config_value("dataset.policy.standardize", policy.get("standardize"),
                                     bool, True),
        ),
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
    task = settings.task_kernel if method.startswith("vcgp") else Constant(1.0)
    spec = KernelSpec(instance_kernel=inst, task_kernel=task)
    inducing = None
    if settings.fitc:
        p, fitc_seed = settings.fitc
        inducing = sparse_fitc.select_inducing(
            train, min(p, train.n), derive_seed(seed, "inducing", fitc_seed)
        )
    if settings.search is None:
        fit = gp_classify.fit_classifier if classification else gp_core.fit_regressor
        model = fit(train, spec, settings.tau2, inducing=inducing)
    else:
        tune = (gp_classify.tune_classifier_hyperparameters if classification
                else gp_core.tune_hyperparameters)
        search = replace(settings.search, seed=derive_seed(seed, "tune"))
        model = tune(train, spec, search, inducing=inducing)

    if classification:
        proba = model.predict_proba_batch(test.X, test.T)
        return zero_one_loss(classify_probabilities(proba), test.y)
    mean, _ = model.predict_batch(test.X, test.T)
    return mae(mean, test.y)


def _run_fanzhang(method, train, test, settings, seed) -> float:
    fz = settings.fanzhang
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


def run_experiment(config: ExperimentConfig, n_folds: int, dataset_for_fold) -> list[dict]:
    """Run the config's full (method, n, fold) grid and return result rows.

    ``dataset_for_fold(n, fold)`` returns the (train, test) dataset pair of
    fold ``fold`` at training size ``n``.  Raises :class:`BudgetExceeded`
    carrying the completed rows if the time budget runs out.
    """
    rows: list[dict] = []
    start = time.perf_counter()
    settings, budget_seconds = config.settings, config.budget_seconds
    metric_name = "zero_one" if settings.problem == "classification" else "mae"
    for method in config.methods:
        for n in config.train_sizes:
            for fold in range(n_folds):
                fold_seed = derive_seed(config.seed, "fold", method, int(n), int(fold))
                train, test = dataset_for_fold(n, fold)
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
