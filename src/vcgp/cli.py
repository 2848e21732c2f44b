"""Command-line front end.

Subcommands:

  run        execute an experiment config (YAML) and write per-fold rows
  verify     run a verification battery and print one line per check
  metrics    compute MAE / zero-one loss from a predictions CSV
  synth      generate a synthetic varying-coefficient dataset as CSV
  summarize  aggregate a results CSV into means and standard errors

`run` reads the YAML and applies --seed, --out and --budget-seconds here;
`experiments.parse_config` parses and checks every key.  Exit codes: 0 success,
1 usage or configuration error, 2 numerical failure, 3 time budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np
import yaml

from . import data_io, verify
from ._linalg import NumericalError
from .data_io import Preprocessor, synth_vcm
from .experiments import (
    BudgetExceeded,
    mae,
    parse_config,
    result_rows_to_csv,
    run_experiment,
    summarize_rows,
    zero_one_loss,
)
from .gp_core import Dataset
from .kernels import kernel_from_dict

# libyaml's parser where PyYAML has it: the same dicts as SafeLoader's, read
# about seven times faster (a 200-node tree config: 40 -> 5 ms)
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(stream):
    """The YAML document in ``stream`` (a string or file), as ``yaml.safe_load`` reads it."""
    return yaml.load(stream, Loader=_YAML_LOADER)

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


def _binarize_at_train_median(train: Dataset, test: Dataset):
    """Turn continuous targets into labels: above the training median -> 1."""
    if set(np.unique(train.y)) <= {0.0, 1.0} and set(np.unique(test.y)) <= {0.0, 1.0}:
        return train, test
    cut = float(np.median(train.y))
    return (
        Dataset(X=train.X, T=train.T, y=(train.y > cut).astype(float)),
        Dataset(X=test.X, T=test.T, y=(test.y > cut).astype(float)),
    )


def cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = load_yaml(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config must be a YAML mapping")
    for key in ("seed", "out", "budget_seconds"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    config = parse_config(cfg)

    if config.synth is not None:
        source = synth_vcm(**config.synth).dataset
        times = source.T[:, 0] if source.T.ndim == 2 else None
        pool_size = source.n

        def train_test(train_idx, test_idx):
            return source.subset(train_idx), source.subset(test_idx)

    else:
        schema, policy = config.schema, config.policy
        table = data_io.filter_records(data_io.load_csv(config.csv, schema), schema, policy)
        if not table:
            raise UsageError("preprocessing filtered out every record")
        if schema.task_time is not None:
            times = np.array([d.toordinal() for d in table.columns[schema.task_time]], dtype=float)
        else:
            times = table.columns[schema.task_coords[0]] if schema.task_coords else None
        pool_size = len(table)

        def train_test(train_idx, test_idx):
            train, test = table[train_idx], table[test_idx]
            pre = Preprocessor(schema, policy).fit(train)
            return pre.transform(train), pre.transform(test)

    splits = config.splits(pool_size, times)

    @functools.cache
    def fold_pair(n, fold):
        # shared by every method, so a CSV fold's Preprocessor is fitted once
        train, test = train_test(*splits[n][fold])
        if config.settings.problem == "classification":
            train, test = _binarize_at_train_median(train, test)
        return train, test

    try:
        rows = run_experiment(config, len(splits[config.train_sizes[0]]), fold_pair)
    except BudgetExceeded as exc:
        result_rows_to_csv(exc.rows, config.out)
        print(f"budget exceeded; {len(exc.rows)} partial rows written to {config.out}",
              file=sys.stderr)
        return EXIT_BUDGET
    result_rows_to_csv(rows, config.out)
    print(f"{len(rows)} result rows written to {config.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = verify.run_scope(args.scope, seed=args.seed, mc_samples=args.mc_samples)
    for rep in reports:
        print(rep.line())
    n_fail = sum(not r.passed for r in reports)
    print(f"# {len(reports) - n_fail}/{len(reports)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def _cell(path: str, line: int, row: dict, name: str, kind=float):
    """``kind(row[name])``; else ``UsageError`` naming the file, the line and the column."""
    try:
        if row[name] is None:  # a short row
            raise ValueError
        return kind(row[name])
    except ValueError:
        what = {str: "a value", int: "an integer"}.get(kind, "a number")
        raise UsageError(f"{path} line {line}: column {name!r} expected {what}, "
                         f"got {row[name] or ''!r}") from None


def _read_column(path: str, *names: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {name: [] for name in names if name in (reader.fieldnames or [])}
        for row in reader:
            for name in cols:
                cols[name].append(_cell(path, reader.line_num, row, name))
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
    task_kernel = kernel_from_dict(load_yaml(args.task_kernel), task=True)
    res = synth_vcm(args.n, args.m, args.d, task_kernel, args.tau2, args.seed)
    data_io.write_dataset_csv(res.dataset, args.out)
    if args.truth_out:
        data_io.write_dataset_csv(res.dataset, args.truth_out, W=res.W)
    print(f"wrote {args.n} rows to {args.out}")
    return EXIT_OK


# the results-CSV columns that summarize reads, and their types
_SUMMARIZED = {"method": str, "n": int, "metric": str, "value": float}


def cmd_summarize(args) -> int:
    path = args.results
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in _SUMMARIZED:
            if name not in (reader.fieldnames or []):
                raise UsageError(f"{path} has no {name!r} column")
        rows = [{name: _cell(path, reader.line_num, row, name, kind) for name, kind in _SUMMARIZED.items()}
                for row in reader]
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
    except (UsageError, ValueError, OSError, MemoryError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
