"""Dataset ingestion, preprocessing, evaluation splits, synthetic data.

The ingest path is CSV with a header; a :class:`Schema` names the numeric
and categorical feature columns, the target, and the task fields (either
continuous coordinates plus an optional date column, or a discrete id
column).  :func:`load_csv` reads the file whole into a :class:`Table`: one
conversion pass per schema column, no object per row (``RawRecord`` is gone).
Preprocessing filters rows by value brackets and missing values, one-hot
encodes categoricals with the category set frozen from the training rows,
optionally z-scores numeric columns with training statistics, and
assembles the task variable.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from typing import Mapping

import numpy as np

from ._linalg import chol_with_jitter
from .gp_core import Dataset
from .kernels import FixedGram, Laplacian, TaskKernel, Tree, task_gram

__all__ = [
    "Schema",
    "Table",
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


@dataclass(frozen=True, eq=False)
class Table:
    """The schema columns of a CSV file, one array entry per data row.

    ``columns[c]`` is a float array for numeric columns (NaN where the cell
    is empty), an int array for the task id (0 where empty), and an object
    array of ``datetime`` or ``str`` for dates and categories (None where
    empty); ``present[c]`` is False where the cell was empty and ``lines``
    holds each row's line in the file.  A slice, mask or index array takes rows.
    """

    lines: np.ndarray
    columns: Mapping[str, np.ndarray]
    present: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, rows) -> "Table":
        return Table(
            self.lines[rows],
            {c: v[rows] for c, v in self.columns.items()},
            {c: v[rows] for c, v in self.present.items()},
        )


# kind: (conversion of a stripped cell, dtype, entry of an empty cell, what a cell must be)
_KINDS = {
    "numeric": (float, float, np.nan, "a number"),
    "int": (int, np.int64, 0, "an integer"),
    "date": (_dt.datetime.fromisoformat, object, None, "an ISO date"),
    "categorical": (str, object, None, None),
}


def _column(cells, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, present) of one column's raw cells; a bad cell raises what was expected."""
    convert, dtype, empty, expected = _KINDS[kind]
    cells = list(map(str.strip, cells))
    present = np.fromiter(map(bool, cells), bool, len(cells))
    values = np.full(len(cells), empty, dtype=dtype)
    try:
        values[present] = np.fromiter(map(convert, compress(cells, cells)), dtype, present.sum())
    except ValueError:
        raise ValueError(expected) from None
    except OverflowError:  # an integer beyond int64
        raise ValueError(f"{expected} in the int64 range") from None
    if kind == "numeric" and not np.isfinite(values[present]).all():
        raise ValueError("a finite number")
    return values, present


def load_csv(path, schema: Schema) -> Table:
    """Read the schema columns of a CSV file into a :class:`Table`.

    Blank lines are skipped; empty cells are kept for the policy to act on.
    A schema column absent from the header raises, and so does a malformed
    cell, or a numeric one that is not finite, naming the first by line; so
    does a date column that mixes dates with and without a UTC offset.
    """
    kinds = dict.fromkeys(schema.columns, "numeric")  # a later role wins, in this order
    kinds.update(dict.fromkeys(schema.categorical, "categorical"))
    kinds.update(dict.fromkeys((schema.target, *schema.task_coords), "numeric"))
    kinds.update({c: k for c, k in ((schema.task_time, "date"), (schema.task_id, "int")) if c})

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing_cols = [c for c in kinds if c not in header]
        if missing_cols:
            raise ValueError(f"CSV is missing schema columns: {missing_cols}")
        rows, lines, width = [], [], len(header)
        for row in reader:
            if row:  # not a blank line; a short row's last cells read as empty
                rows.append(row if len(row) >= width else row + [""] * (width - len(row)))
                lines.append(reader.line_num)
    index = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
    columns, present = {}, {}
    try:
        for c, kind in kinds.items():
            columns[c], present[c] = _column(map(itemgetter(index[c]), rows), kind)
    except ValueError:  # name the first bad cell in row-major order
        for line, row in zip(lines, rows):
            for c, kind in kinds.items():
                raw = row[index[c]].strip()
                try:
                    _column([raw], kind)
                except ValueError as exc:
                    raise ValueError(
                        f"line {line}: column {c!r} expected {exc}, got {raw!r}"
                    ) from None
        raise
    for c in (c for c, kind in kinds.items() if kind == "date"):  # the two kinds do not compare
        at = np.flatnonzero(present[c])
        aware = [d.tzinfo is not None for d in columns[c][at]]
        if len(set(aware)) > 1:
            first, bad = lines[at[0]], lines[at[aware.index(not aware[0])]]
            raise ValueError(f"line {bad}: column {c!r} mixes dates with and without a UTC offset "
                             f"(line {first} has {'one' if aware[0] else 'none'})")
    return Table(np.array(lines, dtype=int), columns, present)


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


def filter_records(table: Table, schema: Schema, policy: PreprocessPolicy) -> Table:
    """Apply the stateless part of the policy: brackets and missing values.

    Without ``drop_missing``, a kept row's empty non-categorical cell raises.
    """
    keep = np.ones(len(table), dtype=bool)
    for col in schema.columns if policy.drop_missing else ():
        keep &= table.present[col]
    for col, (lo, hi) in policy.brackets.items():
        v = table.columns[col]
        keep &= table.present[col] & (lo <= v) & (v <= hi)
    kept = table[keep]
    if not policy.drop_missing:
        needed = [c for c in schema.columns if c not in schema.categorical]
        empty = np.argwhere(~np.column_stack([kept.present[c] for c in needed]))
        if empty.size:
            raise ValueError(f"line {kept.lines[empty[0, 0]]}: column {needed[empty[0, 1]]!r} is "
                             "empty, and only categorical cells may be without drop_missing")
    return kept


class Preprocessor:
    """Training-fitted encoder from table rows to a numeric :class:`Dataset`.

    Fitting freezes the categorical category sets, the z-scoring statistics,
    and the time origin (earliest training date).  Unseen test categories
    and missing categorical cells map to all-zero one-hot blocks.
    """

    def __init__(self, schema: Schema, policy: PreprocessPolicy):
        self.schema = schema
        self.policy = policy
        self._categories: dict[str, list[str]] = {}
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._time_origin = None
        self._fitted = False

    def fit(self, table: Table) -> "Preprocessor":
        if not len(table):
            raise ValueError("no records to fit the preprocessor on")
        for col in self.schema.categorical:
            self._categories[col] = sorted(set(filter(None, table.columns[col])))
        if self.schema.numeric:
            M = np.column_stack([table.columns[c] for c in self.schema.numeric])
            self._mean = np.nanmean(M, axis=0)
            std = np.nanstd(M, axis=0)
            self._std = np.where(std > 0, std, 1.0)
        if self.schema.task_time:
            self._time_origin = min(filter(None, table.columns[self.schema.task_time]))
        self._fitted = True
        return self

    def transform(self, table: Table) -> Dataset:
        if not self._fitted:
            raise RuntimeError("fit the preprocessor before transforming")
        n = len(table)
        if not n:
            raise ValueError("all records were filtered out; nothing to transform")
        cols = []
        if self.schema.numeric:
            M = np.column_stack([table.columns[c] for c in self.schema.numeric])
            if self.policy.standardize:
                M = (M - self._mean) / self._std
            cols.append(M)
        for col in self.schema.categorical:
            cats = self._categories[col]
            index = {c: j for j, c in enumerate(cats)}
            codes = np.fromiter(map(index.get, table.columns[col], repeat(-1)), int, n)
            cols.append((codes[:, None] == np.arange(len(cats))).astype(float))
        X = np.hstack(cols) if cols else np.ones((n, 1))
        y = table.columns[self.schema.target]

        if self.schema.task_id:
            T = table.columns[self.schema.task_id]
        else:
            parts = []
            if self.schema.task_coords:
                parts.append(np.column_stack([table.columns[c] for c in self.schema.task_coords]))
            if self.schema.task_time:
                since = table.columns[self.schema.task_time] - self._time_origin
                days = np.fromiter(map(_dt.timedelta.total_seconds, since), float, n) / 86400.0
                parts.append(days.reshape(-1, 1))
            T = np.hstack(parts)
        return Dataset(X=X, T=T, y=y)


def preprocess(table: Table, schema: Schema, policy: PreprocessPolicy) -> Dataset:
    """Filter, fit, and encode in one step (the single-table convenience).

    For train/test pipelines, call :func:`filter_records`, fit a
    :class:`Preprocessor` on the training rows only, and transform both
    sides with it.
    """
    kept = filter_records(table, schema, policy)
    if not len(kept):
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
    or non-finite one raises ``ValueError``, as does an ``n``, ``m`` or
    ``d`` below 1).  Deterministic per seed.
    """
    for name, size in (("n", n), ("m", m), ("d", d)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size!r}")
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
