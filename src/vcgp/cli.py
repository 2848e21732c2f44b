"""Command-line front end.

Subcommands:

  run        execute an experiment config (YAML) and write per-fold rows
  verify     run a verification battery and print one line per check
  metrics    compute MAE / zero-one loss from a predictions CSV
  synth      generate a synthetic varying-coefficient dataset as CSV
  summarize  aggregate a results CSV into means and standard errors

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure,
3 time budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys

import numpy as np
import yaml

from . import data_io, experiments, verify
from ._linalg import NumericalError
from .data_io import PreprocessPolicy, Preprocessor, Schema, synth_vcm
from .experiments import (
    METHOD_NAMES,
    BudgetExceeded,
    RunSettings,
    config_value,
    derive_seed,
    mae,
    result_rows_to_csv,
    run_experiment,
    summarize_rows,
    zero_one_loss,
)
from .gp_core import Dataset
from .kernels import kernel_from_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this project reserves 2
    # for numerical failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vcgp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="YAML experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the global seed")
    p_run.add_argument("--out", default=None, help="override the output CSV path")
    p_run.add_argument(
        "--budget-seconds", type=float, default=None, help="override the time budget"
    )

    p_verify = sub.add_parser("verify", help="run a verification battery")
    p_verify.add_argument("scope", choices=verify.SCOPES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--mc-samples", type=int, default=10**6, help="samples for Monte-Carlo checks"
    )

    p_metrics = sub.add_parser("metrics", help="score a predictions CSV")
    p_metrics.add_argument("predictions", help="CSV with y_pred and/or p1 columns")
    p_metrics.add_argument(
        "--labels", default=None, help="optional CSV with a y_true column (else in predictions)"
    )

    p_synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--m", type=int, default=3)
    p_synth.add_argument("--d", type=int, default=1)
    p_synth.add_argument("--tau2", type=float, default=0.05)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument(
        "--task-kernel",
        default="{type: matern, nu: 1.5, lengthscale: 0.2, amplitude: 1.0}",
        help="task kernel as a YAML mapping",
    )
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--truth-out", default=None, help="also write true coefficients")

    p_sum = sub.add_parser("summarize", help="aggregate a results CSV")
    p_sum.add_argument("results")
    p_sum.add_argument("--out", default=None, help="output CSV (default: stdout)")
    return parser


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config must be a YAML mapping")
    return cfg


def _validate_config(cfg: dict) -> list[str]:
    """Check the top-level keys, dataset and split; return the methods to run."""
    methods = config_value("methods", cfg.get("methods"), list, None) or [cfg.get("method")]
    for m in methods:
        if m not in METHOD_NAMES:
            raise UsageError(f"unknown method {m!r}; choose from {METHOD_NAMES}")
    dataset = config_value("dataset", cfg.get("dataset"), dict)
    if ("csv" in dataset) == ("synth" in dataset):
        raise UsageError("dataset needs exactly one of 'csv' or 'synth'")
    if "csv" in dataset:
        if not os.path.exists(dataset["csv"]):
            raise UsageError(f"dataset file not found: {dataset['csv']}")
        if "schema" not in dataset:
            raise UsageError("csv datasets need a schema section")
    split = config_value("split", cfg.get("split"), dict)
    if ("blocked" in split) == ("kfold" in split):
        raise UsageError("split needs exactly one of 'blocked' or 'kfold'")
    config_value("train_sizes", cfg.get("train_sizes"), list)
    return methods


def _schema_from(cfg: dict) -> Schema:
    columns = {key: tuple(config_value(f"dataset.schema.{key}", cfg.get(key), list, ()))
               for key in ("numeric", "categorical", "task_coords")}
    return Schema(
        target=config_value("dataset.schema.target", cfg.get("target"), str),
        **columns,
        task_time=cfg.get("task_time"),
        task_id=cfg.get("task_id"),
    )


def _policy_from(cfg: dict) -> PreprocessPolicy:
    brackets = config_value("dataset.policy.brackets", cfg.get("brackets"), dict, {})
    brackets = {c: (float(lo), float(hi)) for c, (lo, hi) in brackets.items()}
    return PreprocessPolicy(
        brackets=brackets,
        drop_missing=bool(cfg.get("drop_missing", True)),
        standardize=bool(cfg.get("standardize", True)),
    )


def _settings_from(cfg: dict) -> RunSettings:
    model = config_value("model", cfg.get("model"), dict, {})
    return RunSettings(
        problem=cfg.get("problem", "regression"),
        task_kernel=model.get("task_kernel"),
        instance_matern=model.get("instance_matern", {}),
        tau2=model.get("tau2", 0.1),
        tuning=cfg.get("tuning"),
        fitc=model.get("fitc"),
        fanzhang=cfg.get("fanzhang", {}),
    )


def _prepare_source(cfg: dict, seed: int):
    """Load or synthesize the full record pool; return (records_or_dataset, schema, policy)."""
    dataset = cfg["dataset"]
    if "synth" in dataset:
        s = config_value("dataset.synth", dataset["synth"], dict)
        task_kernel = kernel_from_dict(
            s.get("task_kernel", {"type": "matern", "lengthscale": 0.2}), task=True
        )
        res = synth_vcm(
            n=config_value("dataset.synth.n", s.get("n"), int),
            m=config_value("dataset.synth.m", s.get("m"), int, 3),
            d=config_value("dataset.synth.d", s.get("d"), int, 1),
            task_kernel=task_kernel,
            tau2=config_value("dataset.synth.tau2", s.get("tau2"), float, 0.05),
            seed=config_value("dataset.synth.seed", s.get("seed"), int, derive_seed(seed, "synth")),
        )
        return res.dataset, None, None
    schema = _schema_from(config_value("dataset.schema", dataset["schema"], dict))
    policy = _policy_from(config_value("dataset.policy", dataset.get("policy"), dict, {}))
    records = data_io.filter_records(data_io.load_csv(dataset["csv"], schema), schema, policy)
    if not records:
        raise UsageError("preprocessing filtered out every record")
    return records, schema, policy


def _binarize_at_train_median(train: Dataset, test: Dataset):
    """Turn continuous targets into labels: above the training median -> 1."""
    if set(np.unique(train.y)) <= {0.0, 1.0} and set(np.unique(test.y)) <= {0.0, 1.0}:
        return train, test
    cut = float(np.median(train.y))
    return (
        Dataset(X=train.X, T=train.T, y=(train.y > cut).astype(float)),
        Dataset(X=test.X, T=test.T, y=(test.y > cut).astype(float)),
    )


def _split_pairs(cfg: dict, pool_size: int, times, n: int, seed: int):
    split = cfg["split"]
    if "kfold" in split:
        k = config_value("split.kfold", split["kfold"], dict).get("k")
        k = config_value("split.kfold.k", k, int)
        if not 2 <= k <= pool_size:
            raise UsageError(f"config key 'split.kfold.k' must lie in 2..{pool_size}, got {k}")
        return data_io.kfold_splits(pool_size, k, n=n, seed=seed)
    b = config_value("split.blocked", split["blocked"], dict)
    if times is None:
        raise UsageError("blocked splits need a temporal task field")
    num_blocks = config_value("split.blocked.num_blocks", b.get("num_blocks"), int)
    window = config_value("split.blocked.window", b.get("window"), int)
    return data_io.blocked_splits(times, num_blocks, window, n, seed=seed)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if args.budget_seconds is not None:
        cfg["budget_seconds"] = args.budget_seconds
    methods = _validate_config(cfg)

    seed = config_value("seed", cfg.get("seed"), int, 0)
    out = cfg.get("out", "results.csv")
    budget = config_value("budget_seconds", cfg.get("budget_seconds"), float, None)
    settings = _settings_from(cfg)
    train_sizes = [config_value("train_sizes", n, int) for n in cfg["train_sizes"]]

    source, schema, policy = _prepare_source(cfg, seed)
    classification = settings.problem == "classification"

    if isinstance(source, Dataset):
        times = source.T[:, 0] if source.T.ndim == 2 else None
        pool_size = source.n

        def train_test(train_idx, test_idx):
            return source.subset(train_idx), source.subset(test_idx)

    else:
        records = source
        if schema.task_time is not None:
            times = np.array(
                [r.values[schema.task_time].toordinal() for r in records], dtype=float
            )
        elif schema.task_coords:
            times = np.array([r.values[schema.task_coords[0]] for r in records], dtype=float)
        else:
            times = None
        pool_size = len(records)

        def train_test(train_idx, test_idx):
            train_recs = [records[i] for i in train_idx]
            test_recs = [records[i] for i in test_idx]
            pre = Preprocessor(schema, policy).fit(train_recs)
            return pre.transform(train_recs), pre.transform(test_recs)

    @functools.cache
    def splits(n):
        return _split_pairs(cfg, pool_size, times, n, seed=derive_seed(seed, "split", n))

    @functools.cache
    def fold_pair(n, fold):
        # shared by every method, so a CSV fold's Preprocessor is fitted once
        train, test = train_test(*splits(n)[fold])
        if classification:
            train, test = _binarize_at_train_median(train, test)
        return train, test

    n_folds = len(splits(min(train_sizes)))

    try:
        rows = run_experiment(
            lambda method, n, fold, fold_seed: fold_pair(n, fold),
            methods,
            train_sizes,
            n_folds,
            settings,
            global_seed=seed,
            budget_seconds=budget,
        )
    except BudgetExceeded as exc:
        result_rows_to_csv(exc.rows, out)
        print(f"budget exceeded; {len(exc.rows)} partial rows written to {out}", file=sys.stderr)
        return EXIT_BUDGET
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    result_rows_to_csv(rows, out)
    print(f"{len(rows)} result rows written to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify.run_scope(args.scope, seed=args.seed, mc_samples=args.mc_samples)
    for rep in reports:
        print(rep.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"# {len(reports) - n_fail}/{len(reports)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def _read_column(path: str, *names: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {name: [] for name in names if name in (reader.fieldnames or [])}
        for row in reader:
            for name in cols:
                cols[name].append(float(row[name]))
    return {name: np.asarray(vals) for name, vals in cols.items()}


def cmd_metrics(args) -> int:
    pred_cols = _read_column(args.predictions, "y_pred", "p1", "y_true")
    if args.labels is not None:
        label_cols = _read_column(args.labels, "y_true")
        if "y_true" not in label_cols:
            raise UsageError("labels CSV needs a y_true column")
        y_true = label_cols["y_true"]
    elif "y_true" in pred_cols:
        y_true = pred_cols["y_true"]
    else:
        raise UsageError("no y_true column found; pass --labels or include it")

    printed = False
    if "y_pred" in pred_cols:
        print(f"mae={mae(pred_cols['y_pred'], y_true)!r}")
        printed = True
    if "p1" in pred_cols:
        classes = (pred_cols["p1"] >= 0.5).astype(float)
        print(f"zero_one={zero_one_loss(classes, y_true)!r}")
        printed = True
    if not printed:
        raise UsageError("predictions CSV needs a y_pred or p1 column")
    return EXIT_OK


def cmd_synth(args) -> int:
    task_kernel = kernel_from_dict(yaml.safe_load(args.task_kernel), task=True)
    res = synth_vcm(args.n, args.m, args.d, task_kernel, args.tau2, args.seed)
    data_io.write_dataset_csv(res.dataset, args.out)
    if args.truth_out:
        data_io.write_dataset_csv(res.dataset, args.truth_out, W=res.W)
    print(f"wrote {args.n} rows to {args.out}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    with open(args.results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = summarize_rows(rows)
    writer_target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(
            writer_target, fieldnames=["method", "n", "metric", "mean", "stderr", "folds"]
        )
        writer.writeheader()
        for row in summary:
            writer.writerow(row)
    finally:
        if args.out:
            writer_target.close()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "metrics":
            return cmd_metrics(args)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "summarize":
            return cmd_summarize(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
