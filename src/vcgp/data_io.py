"""Dataset ingestion, preprocessing, evaluation splits, synthetic data.

The ingest path is CSV with a header; a :class:`Schema` names the numeric
and categorical feature columns, the target, and the task fields (either
continuous coordinates plus an optional date column, or a discrete id
column).  Preprocessing filters records by value brackets and missing
values, one-hot encodes categoricals with the category set frozen from the
training records, optionally z-scores numeric columns with training
statistics, and assembles the task variable.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from ._linalg import chol_with_jitter
from .gp_core import Dataset
from .kernels import FixedGram, Laplacian, TaskKernel, Tree, task_gram

__all__ = [
    "Schema",
    "RawRecord",
    "PreprocessPolicy",
    "Preprocessor",
    "load_csv",
    "preprocess",
    "blocked_splits",
    "kfold_splits",
    "synth_vcm",
    "SynthResult",
    "write_dataset_csv",
    "threshold_labels",
]


@dataclass(frozen=True)
class Schema:
    """Column roles for a CSV dataset.

    The task variable is either continuous -- built from ``task_coords``
    columns plus, optionally, ``task_time`` (a date column encoded as days
    since the earliest training record) -- or discrete via ``task_id``.
    """

    target: str
    numeric: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    task_coords: tuple[str, ...] = ()
    task_time: str | None = None
    task_id: str | None = None

    def __post_init__(self):
        discrete = self.task_id is not None
        continuous = bool(self.task_coords) or self.task_time is not None
        if discrete == continuous:
            raise ValueError(
                "exactly one task variant required: task_id, or task_coords/task_time"
            )

    @property
    def columns(self) -> tuple[str, ...]:
        cols = list(self.numeric) + list(self.categorical) + [self.target]
        cols += list(self.task_coords)
        if self.task_time:
            cols.append(self.task_time)
        if self.task_id:
            cols.append(self.task_id)
        return tuple(cols)


@dataclass(frozen=True)
class RawRecord:
    """One typed CSV row; ``row`` is the 1-based line number for messages."""

    row: int
    values: Mapping[str, object]

    def missing(self, schema: Schema) -> bool:
        return any(self.values.get(c) is None for c in schema.columns)


def _parse_cell(raw: str, column: str, kind: str, row: int):
    raw = raw.strip()
    if raw == "":
        return None
    if kind == "numeric":
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"line {row}: column {column!r} expected a number, got {raw!r}"
            ) from None
    if kind == "date":
        try:
            return _dt.datetime.fromisoformat(raw)
        except ValueError:
            raise ValueError(
                f"line {row}: column {column!r} expected an ISO date, got {raw!r}"
            ) from None
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"line {row}: column {column!r} expected an integer, got {raw!r}"
            ) from None
    return raw


def load_csv(path, schema: Schema) -> Iterator[RawRecord]:
    """Stream typed records from a CSV file.

    Unknown columns required by the schema raise immediately; malformed
    cells raise with their line number.  Missing values come through as
    ``None`` so the preprocessing policy can act on them.
    """
    kinds = {c: "numeric" for c in schema.numeric}
    kinds.update({c: "categorical" for c in schema.categorical})
    kinds[schema.target] = "numeric"
    for c in schema.task_coords:
        kinds[c] = "numeric"
    if schema.task_time:
        kinds[schema.task_time] = "date"
    if schema.task_id:
        kinds[schema.task_id] = "int"

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing_cols = [c for c in kinds if c not in header]
        if missing_cols:
            raise ValueError(f"CSV is missing schema columns: {missing_cols}")
        for i, row in enumerate(reader, start=2):
            values = {c: _parse_cell(row[c] or "", c, kind, i) for c, kind in kinds.items()}
            yield RawRecord(row=i, values=values)


@dataclass(frozen=True)
class PreprocessPolicy:
    """Record filtering and encoding choices.

    ``brackets`` maps a column to an inclusive (low, high) range; records
    outside any bracket are dropped, as are records with missing values when
    ``drop_missing`` is set.  ``standardize`` z-scores numeric columns with
    training statistics.
    """

    brackets: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    drop_missing: bool = True
    standardize: bool = True


def filter_records(records: Iterable[RawRecord], schema: Schema, policy: PreprocessPolicy):
    """Apply the stateless part of the policy: brackets and missing values."""
    kept = []
    for rec in records:
        if policy.drop_missing and rec.missing(schema):
            continue
        ok = True
        for col, (lo, hi) in policy.brackets.items():
            v = rec.values.get(col)
            if v is None or not (lo <= v <= hi):
                ok = False
                break
        if ok:
            kept.append(rec)
    return kept


class Preprocessor:
    """Training-fitted encoder from records to a numeric :class:`Dataset`.

    Fitting freezes the categorical category sets, the z-scoring statistics,
    and the time origin (earliest training date).  Unseen test categories
    map to all-zero one-hot blocks.
    """

    def __init__(self, schema: Schema, policy: PreprocessPolicy):
        self.schema = schema
        self.policy = policy
        self._categories: dict[str, list[str]] = {}
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._time_origin = None
        self._fitted = False

    def fit(self, records: Iterable[RawRecord]) -> "Preprocessor":
        records = list(records)
        if not records:
            raise ValueError("no records to fit the preprocessor on")
        for col in self.schema.categorical:
            self._categories[col] = sorted(
                {str(r.values[col]) for r in records if r.values[col] is not None}
            )
        if self.schema.numeric:
            M = np.array(
                [[_num(r, c) for c in self.schema.numeric] for r in records], dtype=float
            )
            self._mean = np.nanmean(M, axis=0)
            std = np.nanstd(M, axis=0)
            self._std = np.where(std > 0, std, 1.0)
        if self.schema.task_time:
            dates = [r.values[self.schema.task_time] for r in records]
            self._time_origin = min(d for d in dates if d is not None)
        self._fitted = True
        return self

    def transform(self, records: Iterable[RawRecord]) -> Dataset:
        if not self._fitted:
            raise RuntimeError("fit the preprocessor before transforming")
        records = list(records)
        if not records:
            raise ValueError("all records were filtered out; nothing to transform")
        cols = []
        if self.schema.numeric:
            M = np.array(
                [[_num(r, c) for c in self.schema.numeric] for r in records], dtype=float
            )
            if self.policy.standardize:
                M = (M - self._mean) / self._std
            cols.append(M)
        for col in self.schema.categorical:
            cats = self._categories[col]
            block = np.zeros((len(records), len(cats)))
            index = {c: j for j, c in enumerate(cats)}
            for i, r in enumerate(records):
                j = index.get(str(r.values[col]))
                if j is not None:
                    block[i, j] = 1.0
            cols.append(block)
        X = np.hstack(cols) if cols else np.ones((len(records), 1))
        y = np.array([r.values[self.schema.target] for r in records], dtype=float)

        if self.schema.task_id:
            T = np.array([r.values[self.schema.task_id] for r in records], dtype=int)
        else:
            parts = []
            if self.schema.task_coords:
                parts.append(
                    np.array(
                        [[_num(r, c) for c in self.schema.task_coords] for r in records],
                        dtype=float,
                    )
                )
            if self.schema.task_time:
                days = np.array(
                    [
                        (r.values[self.schema.task_time] - self._time_origin).total_seconds()
                        / 86400.0
                        for r in records
                    ]
                )
                parts.append(days.reshape(-1, 1))
            T = np.hstack(parts)
        return Dataset(X=X, T=T, y=y)


def _num(rec: RawRecord, col: str) -> float:
    v = rec.values[col]
    return float("nan") if v is None else float(v)


def preprocess(records: Iterable[RawRecord], schema: Schema, policy: PreprocessPolicy) -> Dataset:
    """Filter, fit, and encode in one step (the single-table convenience).

    For train/test pipelines, call :func:`filter_records`, fit a
    :class:`Preprocessor` on the training records only, and transform both
    sides with it.
    """
    kept = filter_records(records, schema, policy)
    if not kept:
        raise ValueError("preprocessing filtered out every record")
    return Preprocessor(schema, policy).fit(kept).transform(kept)


# ---------------------------------------------------------------------------
# evaluation splits
# ---------------------------------------------------------------------------


def blocked_splits(
    times, num_blocks: int, window: int, n: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sliding-window temporal evaluation pairs.

    Records are ordered by ``times`` and cut into ``num_blocks`` contiguous
    blocks of (nearly) equal size.  Pair i trains on a random ``n``-subsample
    of blocks [i, i+window) and tests on block i+window, giving
    ``num_blocks - window`` pairs.  Returned index arrays refer to positions
    in ``times``.
    """
    times = np.asarray(times)
    if window >= num_blocks:
        raise ValueError("window must be smaller than num_blocks")
    order = np.argsort(times, kind="stable")
    blocks = np.array_split(order, num_blocks)
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(num_blocks - window):
        pool = np.concatenate(blocks[i : i + window])
        if n > pool.size:
            raise ValueError(
                f"requested n={n} training points but the window holds {pool.size}"
            )
        train = rng.choice(pool, size=n, replace=False)
        pairs.append((np.sort(train), blocks[i + window]))
    return pairs


def kfold_splits(
    n_records: int, k: int, n: int | None = None, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold pairs, optionally subsampling each training fold to n."""
    if not 2 <= k <= n_records:
        raise ValueError(f"k must lie in 2..{n_records}, the number of records, got {k}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_records)
    folds = np.array_split(order, k)
    pairs = []
    for i, test in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        if n is not None:
            if n > train.size:
                raise ValueError(f"requested n={n} but the fold holds {train.size}")
            train = rng.choice(train, size=n, replace=False)
        pairs.append((np.sort(train), np.sort(test)))
    return pairs


# ---------------------------------------------------------------------------
# synthetic varying-coefficient data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthResult:
    """Synthetic dataset plus the coefficient vectors that generated it."""

    dataset: Dataset
    W: np.ndarray  # (n, m) true coefficients at each observation


def synth_vcm(
    n: int, m: int, d: int, task_kernel: TaskKernel, tau2: float, seed: int
) -> SynthResult:
    """Draw a synthetic dataset from the varying-coefficient process.

    Task points are uniform on [0, 1]^d, or, for a discrete-task kernel
    (tree, Laplacian, fixed Gram), task ids uniform on 1..k with ``d``
    unused; each coefficient dimension is an independent zero-mean Gaussian
    draw with the task kernel as covariance (over the k tasks for discrete
    kernels); instances are standard normal; labels are the linear
    observation model with noise variance ``tau2`` (0 for none; a negative
    or non-finite one raises ``ValueError``).  Deterministic per seed.
    """
    if not 0 <= tau2 < np.inf:
        raise ValueError(f"tau2 must be a finite number of at least 0, got {tau2!r}")
    rng = np.random.default_rng(seed)
    if not isinstance(task_kernel, (Tree, Laplacian, FixedGram)):
        if n > 5000:
            raise ValueError("dense sampling is limited to n <= 5000")
        T = rng.uniform(0.0, 1.0, size=(n, d))
        KT = task_gram(task_kernel, T, T)
        L, _ = chol_with_jitter(KT + 1e-10 * np.eye(n), context="task Gram for synthesis")
        W = (L @ rng.standard_normal((n, m)))
    else:
        G = task_kernel.gram
        k = G.shape[0]
        T = rng.integers(1, k + 1, size=n)
        L, _ = chol_with_jitter(G + 1e-10 * np.eye(k), context="task Gram for synthesis")
        W = (L @ rng.standard_normal((k, m)))[T - 1]
    X = rng.standard_normal((n, m))
    noise = rng.standard_normal(n) * np.sqrt(tau2) if tau2 > 0 else 0.0
    y = np.einsum("ij,ij->i", X, W) + noise
    return SynthResult(dataset=Dataset(X=X, T=T, y=y), W=W)


def threshold_labels(y: np.ndarray) -> np.ndarray:
    """Binarize a continuous target at its median (above median -> 1)."""
    y = np.asarray(y, dtype=float)
    return (y > np.median(y)).astype(float)


def write_dataset_csv(dataset: Dataset, path, W: np.ndarray | None = None) -> None:
    """Write a dataset (optionally with true coefficients) as CSV."""
    n, m = dataset.X.shape
    T = dataset.T if dataset.T.ndim == 2 else dataset.T.reshape(-1, 1)
    header = [f"x{j+1}" for j in range(m)]
    header += [f"t{j+1}" for j in range(T.shape[1])] if dataset.T.ndim == 2 else ["task_id"]
    header += ["y"]
    if W is not None:
        header += [f"w{j+1}" for j in range(W.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [repr(float(v)) for v in dataset.X[i]]
            row += [repr(float(v)) if dataset.T.ndim == 2 else str(int(v)) for v in T[i]]
            row += [repr(float(dataset.y[i]))]
            if W is not None:
                row += [repr(float(v)) for v in W[i]]
            writer.writerow(row)
