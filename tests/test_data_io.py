import csv
import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp.data_io import (
    PreprocessPolicy,
    Preprocessor,
    Schema,
    blocked_splits,
    filter_records,
    kfold_splits,
    load_csv,
    preprocess,
    synth_vcm,
    threshold_labels,
    write_dataset_csv,
)
from vcgp.kernels import Constant, FixedGram, Matern, task_gram

SALES_SCHEMA = Schema(
    target="price",
    numeric=("floor_space", "land_area"),
    categorical=("kind",),
    task_coords=("lat", "lon"),
    task_time="sale_date",
)

SALES_HEADER = "floor_space,land_area,kind,price,lat,lon,sale_date\n"


def write(tmp_path, body, name="data.csv"):
    path = tmp_path / name
    path.write_text(SALES_HEADER + body)
    return path


def reference_rows(path, schema):
    """Per-cell reading: csv rows, blank lines skipped, schema cells parsed in turn.

    Returns (line, {column: value or None}) per row; the first bad cell in
    row-major order raises, naming its physical line.
    """
    kinds = {c: "numeric" for c in schema.numeric}
    kinds.update({c: "categorical" for c in schema.categorical})
    kinds[schema.target] = "numeric"
    kinds.update({c: "numeric" for c in schema.task_coords})
    if schema.task_time:
        kinds[schema.task_time] = "date"
    if schema.task_id:
        kinds[schema.task_id] = "int"
    convert = {"numeric": float, "int": int, "date": datetime.datetime.fromisoformat}
    expected = {"numeric": "a number", "int": "an integer", "date": "an ISO date"}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: j for j, name in enumerate(next(reader))}
        for row in reader:
            if not row:
                continue
            values = {}
            for c, kind in kinds.items():
                raw = row[index[c]].strip() if index[c] < len(row) else ""
                if raw == "" or kind == "categorical":
                    values[c] = raw or None
                    continue
                where = f"line {reader.line_num}: column {c!r}"
                try:
                    values[c] = convert[kind](raw)
                except ValueError:
                    raise ValueError(f"{where} expected {expected[kind]}, got {raw!r}") from None
                if kind == "numeric" and not math.isfinite(values[c]):
                    raise ValueError(f"{where} expected a finite number, got {raw!r}")
            rows.append((reader.line_num, values))
    return rows


def reference_dataset(train, test, schema, policy):
    """Per-row encoding of ``test`` rows with statistics of ``train`` rows (value dicts)."""

    def numbers(rows, cols):
        return np.array(
            [[np.nan if r[c] is None else float(r[c]) for c in cols] for r in rows], dtype=float
        )

    blocks = []
    if schema.numeric:
        M = numbers(train, schema.numeric)
        std = np.nanstd(M, axis=0)
        blocks.append(numbers(test, schema.numeric))
        if policy.standardize:
            blocks[0] = (blocks[0] - np.nanmean(M, axis=0)) / np.where(std > 0, std, 1.0)
    for col in schema.categorical:
        cats = sorted({r[col] for r in train if r[col] is not None})
        onehot = [[float(r[col] == c) for c in cats] for r in test]
        blocks.append(np.array(onehot).reshape(-1, len(cats)))
    X = np.hstack(blocks) if blocks else np.ones((len(test), 1))
    y = np.array([r[schema.target] for r in test], dtype=float)
    if schema.task_id:
        return X, np.array([r[schema.task_id] for r in test], dtype=int), y
    parts = [numbers(test, schema.task_coords)] if schema.task_coords else []
    if schema.task_time:
        origin = min(r[schema.task_time] for r in train if r[schema.task_time] is not None)
        days = [(r[schema.task_time] - origin).total_seconds() / 86400.0 for r in test]
        parts.append(np.array(days).reshape(-1, 1))
    return X, np.hstack(parts), y


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestLoadCsv:
    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "")
        assert len(load_csv(path, SALES_SCHEMA)) == 0

    def test_three_row_fixture_exact_values(self, tmp_path):
        body = (
            "1000,2000,house,500000,40.7,-74.0,2003-05-01\n"
            "800,1500,condo,300000,40.8,-73.9,2004-06-02\n"
            "1200,2500,house,700000,40.6,-74.1,2005-07-03\n"
        )
        table = load_csv(write(tmp_path, body), SALES_SCHEMA)
        assert len(table) == 3
        assert table.columns["floor_space"][0] == 1000.0
        assert table.columns["kind"][1] == "condo"
        assert table.columns["price"][2] == 700000.0
        assert table.columns["sale_date"][0].year == 2003
        assert table.lines[0] == 2 and table.lines[2] == 4

    def test_malformed_numeric_cell_names_line(self, tmp_path):
        body = "1000,2000,house,500000,40.7,-74.0,2003-05-01\n800,oops,condo,300000,40.8,-73.9,2004-06-02\n"
        with pytest.raises(ValueError, match="line 3"):
            load_csv(write(tmp_path, body), SALES_SCHEMA)

    def test_missing_schema_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("floor_space,price\n1,2\n")
        with pytest.raises(ValueError, match="missing schema columns"):
            load_csv(path, SALES_SCHEMA)

    def test_bad_date(self, tmp_path):
        body = "1000,2000,house,500000,40.7,-74.0,not-a-date\n"
        with pytest.raises(ValueError, match="ISO date"):
            load_csv(write(tmp_path, body), SALES_SCHEMA)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("x1,x2,t,y\n1,2,0.5,1\n\n3,abc,0.5,2\n")
        schema = Schema(target="y", numeric=("x1", "x2"), task_coords=("t",))
        with pytest.raises(ValueError) as info:
            load_csv(path, schema)
        assert str(info.value) == "line 4: column 'x2' expected a number, got 'abc'"

    def test_task_id_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("x,t,y\n1,2,3\n1,-9223372036854775809,3\n")
        schema = Schema(target="y", numeric=("x",), task_id="t")
        with pytest.raises(ValueError) as info:
            load_csv(path, schema)
        assert str(info.value) == (
            "line 3: column 't' expected an integer in the int64 range, got '-9223372036854775809'"
        )

    def test_dates_with_and_without_an_offset_name_the_first_that_differs(self, tmp_path):
        body = (
            "1000,2000,house,500000,40.7,-74.0,2003-05-01T00:00:00+01:00\n"
            "800,1500,condo,300000,40.8,-73.9,\n"  # an empty cell has no date to compare
            "800,1500,condo,300000,40.8,-73.9,2004-06-02T00:00:00Z\n"
            "800,1500,condo,300000,40.8,-73.9,2004-06-03\n"
        )
        with pytest.raises(ValueError) as info:
            load_csv(write(tmp_path, body), SALES_SCHEMA)
        assert str(info.value) == (
            "line 5: column 'sale_date' mixes dates with and without a UTC offset (line 2 has one)"
        )

    @pytest.mark.parametrize("column", ["land_area", "price", "lon"])
    @pytest.mark.parametrize("cell", ["nan", " -NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_numeric_cell_names_line_and_column(self, tmp_path, column, cell):
        row = dict(zip(SALES_HEADER.strip().split(","),
                       "800,1500,condo,300000,40.8,-73.9,2004-06-02".split(",")))
        body = "1000,2000,house,500000,40.7,-74.0,2003-05-01\n" + ",".join(
            cell if c == column else v for c, v in row.items()) + "\n"
        with pytest.raises(ValueError) as info:
            load_csv(write(tmp_path, body), SALES_SCHEMA)
        assert str(info.value) == (
            f"line 3: column {column!r} expected a finite number, got {cell.strip()!r}"
        )


# cells that each column kind reads (whitespace, underscores, signs, exponents,
# non-ASCII digits, empty), and garbage for any column
INTEGERS = st.one_of(
    st.sampled_from(["", " 7 ", "1_000", "+3", "-0", "007", "\u0663\u0664", "\uff11\uff12"]),
    st.integers(-10**4, 10**4).map(str),
)
NUMBERS = st.one_of(
    INTEGERS,
    st.sampled_from(["-0.0", "1e3", " 2.5E-3", ".5", "5.", "\u0663.\u0665", "\u00a012\u00a0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
DATES = st.one_of(
    st.sampled_from(["", "2003-05-01", " 2003-05-01T12:30:00 ", "2003-05-01 08:00"]),
    st.dates().map(str),
)
GARBAGE = st.one_of(
    st.sampled_from(["1__000", "_1", "1e999", "nan", "-inf", "0x1A", "abc", "2003-02-30",
                     "20030501", "1.0"]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.+-e_ ,\"x\u0663", max_size=6),
)
HEADER = ["a", "k", "y", "c", "d", "t", "z"]
VALID = {"a": NUMBERS, "k": st.text(" ab,", max_size=3), "y": NUMBERS, "c": NUMBERS,
         "d": DATES, "t": INTEGERS, "z": GARBAGE}
# one cell in 15 is garbage; a row's last draw is its length: 0 writes a
# blank line, under 7 a short row, over 7 a long one
CELL = {c: st.integers(0, 14).flatmap(lambda i, c=c: GARBAGE if i == 0 else VALID[c])
        for c in HEADER}
ROWS = st.lists(
    st.tuples(*CELL.values(), st.integers(0, len(HEADER) + 2)).map(
        lambda cells: list(cells[:cells[-1]]) + ["extra"] * (cells[-1] - len(HEADER))),
    max_size=8,
)
PARSE_SCHEMAS = (
    Schema(target="y", numeric=("a",), categorical=("k",), task_coords=("c",), task_time="d"),
    Schema(target="y", numeric=("a", "c"), task_id="t"),
)


class TestParseSemantics:
    """The columnar parse keeps each cell's Python semantics and the first error."""

    @settings(max_examples=60)
    @given(rows=ROWS)
    def test_matches_a_per_cell_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("parse") / "cells.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerows(rows)
        for schema in PARSE_SCHEMAS:
            try:
                expected = reference_rows(path, schema)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    load_csv(path, schema)
                assert str(info.value) == str(exc)
                continue
            table = load_csv(path, schema)
            assert table.lines.tolist() == [line for line, _ in expected]
            for c, values in table.columns.items():
                ref = [v[c] for _, v in expected]
                assert table.present[c].tolist() == [v is not None for v in ref]
                got = [v if p else None for v, p in zip(values.tolist(), table.present[c])]
                assert [type(v) for v in got] == [type(v) for v in ref]
                assert [repr(v) for v in got] == [repr(v) for v in ref]


class TestPreprocess:
    def make_records(self, tmp_path, extra=""):
        body = (
            "1000,2000,house,500000,40.7,-74.0,2003-05-01\n"
            "800,1500,condo,300000,40.8,-73.9,2003-06-02\n"
            "1200,2500,office,700000,40.6,-74.1,2003-07-03\n" + extra
        )
        return load_csv(write(tmp_path, body), SALES_SCHEMA)

    def test_bracket_filtering(self, tmp_path):
        records = self.make_records(
            tmp_path, "900,1800,house,50000,40.5,-74.2,2003-08-04\n"
        )
        policy = PreprocessPolicy(brackets={"price": (100_000, 1_000_000)})
        kept = filter_records(records, SALES_SCHEMA, policy)
        assert len(kept) == 3
        assert (kept.columns["price"] >= 100_000).all()

    def test_missing_values_dropped(self, tmp_path):
        records = self.make_records(tmp_path, "900,,house,400000,40.5,-74.2,2003-08-04\n")
        kept = filter_records(records, SALES_SCHEMA, PreprocessPolicy())
        assert len(kept) == 3

    def test_one_hot_exactly_one_per_known_category(self, tmp_path):
        records = self.make_records(tmp_path)
        ds = preprocess(records, SALES_SCHEMA, PreprocessPolicy(standardize=False))
        onehot = ds.X[:, 2:]  # two numeric columns then three categories
        assert onehot.shape == (3, 3)
        np.testing.assert_array_equal(onehot.sum(axis=1), np.ones(3))

    def test_unseen_category_maps_to_zeros(self, tmp_path):
        records = self.make_records(tmp_path)
        pre = Preprocessor(SALES_SCHEMA, PreprocessPolicy(standardize=False)).fit(records[:2])
        ds = pre.transform(records)
        assert ds.X[2, 2:].sum() == 0.0  # "office" unseen during fit

    def test_task_variable_assembly(self, tmp_path):
        records = self.make_records(tmp_path)
        ds = preprocess(records, SALES_SCHEMA, PreprocessPolicy())
        assert ds.T.shape == (3, 3)
        np.testing.assert_allclose(ds.T[:, 0], [40.7, 40.8, 40.6])
        # days since the earliest training record
        assert ds.T[0, 2] == 0.0
        assert ds.T[1, 2] == pytest.approx(32.0)

    def test_standardization_uses_training_stats(self, tmp_path):
        records = self.make_records(tmp_path)
        pre = Preprocessor(SALES_SCHEMA, PreprocessPolicy(standardize=True)).fit(records)
        ds = pre.transform(records)
        np.testing.assert_allclose(ds.X[:, :2].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.X[:, :2].std(axis=0), 1.0, atol=1e-12)

    def test_deterministic(self, tmp_path):
        records = self.make_records(tmp_path)
        a = preprocess(records, SALES_SCHEMA, PreprocessPolicy())
        b = preprocess(records, SALES_SCHEMA, PreprocessPolicy())
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.T, b.T)
        np.testing.assert_array_equal(a.y, b.y)

    def test_everything_filtered_is_an_error(self, tmp_path):
        records = self.make_records(tmp_path)
        policy = PreprocessPolicy(brackets={"price": (1, 2)})
        with pytest.raises(ValueError, match="filtered"):
            preprocess(records, SALES_SCHEMA, policy)

    def test_discrete_schema(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("a,y,task\n1.0,2.0,1\n2.0,3.0,2\n")
        schema = Schema(target="y", numeric=("a",), task_id="task")
        ds = preprocess(load_csv(path, schema), schema, PreprocessPolicy(standardize=False))
        assert ds.has_discrete_tasks
        np.testing.assert_array_equal(ds.T, [1, 2])

    @pytest.mark.parametrize("column", ["floor_space", "price", "lat", "sale_date"])
    def test_empty_cell_without_drop_missing_names_line_and_column(self, tmp_path, column):
        row = dict(zip(SALES_HEADER.strip().split(","),
                       "900,1800,house,400000,40.5,-74.2,2003-08-04".split(",")))
        extra = ",".join("" if c == column else v for c, v in row.items()) + "\n"
        records = self.make_records(tmp_path, "\n" + extra)
        with pytest.raises(ValueError) as info:
            filter_records(records, SALES_SCHEMA, PreprocessPolicy(drop_missing=False))
        assert str(info.value) == (
            f"line 6: column {column!r} is empty, and only categorical cells may be "
            "without drop_missing"
        )

    def test_empty_task_id_without_drop_missing_names_line_and_column(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("a,y,task\n1.0,2.0,1\n2.0,3.0,\n")
        schema = Schema(target="y", numeric=("a",), task_id="task")
        with pytest.raises(ValueError, match=r"^line 3: column 'task' is empty"):
            preprocess(load_csv(path, schema), schema, PreprocessPolicy(drop_missing=False))

    def test_empty_category_without_drop_missing_is_an_all_zero_block(self, tmp_path):
        records = self.make_records(tmp_path, "900,1800,,400000,40.5,-74.2,2003-08-04\n")
        policy = PreprocessPolicy(drop_missing=False, standardize=False)
        ds = preprocess(records, SALES_SCHEMA, policy)
        assert ds.X.shape == (4, 5)
        np.testing.assert_array_equal(ds.X[3, 2:], 0.0)
        np.testing.assert_array_equal(ds.X[:3, 2:].sum(axis=1), 1.0)

    @pytest.mark.parametrize("discrete", [False, True])
    @pytest.mark.parametrize("standardize", [False, True])
    def test_folds_match_a_per_row_reference_bit_for_bit(self, tmp_path, discrete, standardize):
        rng = np.random.default_rng(5)
        lines = ["a,b,kind,y,lat,date,task"]
        for i in range(60):
            kind = "" if i % 7 == 3 else ["house", "condo", " loft "][i % 3]
            date = datetime.datetime(2003, 1, 1) + datetime.timedelta(
                seconds=int(rng.integers(0, 10**8)), microseconds=int(rng.integers(0, 10**6)))
            lines.append(f"{rng.normal()!r},{rng.normal() * 100!r},{kind},{rng.normal()!r},"
                         f"{rng.uniform(40, 41)!r},{date.isoformat()},{rng.integers(1, 6)}")
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(lines) + "\n")
        tasks = {"task_id": "task"} if discrete else {"task_coords": ("lat",), "task_time": "date"}
        schema = Schema(target="y", numeric=("a", "b"), categorical=("kind",), **tasks)
        policy = PreprocessPolicy(brackets={"y": (-2.0, 2.0)}, drop_missing=False,
                                  standardize=standardize)
        table = filter_records(load_csv(path, schema), schema, policy)
        rows = [v for _, v in reference_rows(path, schema) if -2.0 <= v["y"] <= 2.0]
        assert len(table) == len(rows)
        for train, test in kfold_splits(len(table), k=3, seed=1):
            pre = Preprocessor(schema, policy).fit(table[train])
            for side in (train, test):
                ds = pre.transform(table[side])
                ref = reference_dataset([rows[i] for i in train], [rows[i] for i in side],
                                        schema, policy)
                for got, want in zip((ds.X, ds.T, ds.y), ref):
                    assert_same_bits(got, want)

    def test_schema_requires_one_task_variant(self):
        with pytest.raises(ValueError):
            Schema(target="y", task_coords=("lat",), task_id="t")
        with pytest.raises(ValueError):
            Schema(target="y")


class TestBlockedSplits:
    def test_pair_count_25_blocks_window_5(self):
        times = np.arange(2500)
        pairs = blocked_splits(times, num_blocks=25, window=5, n=50, seed=0)
        assert len(pairs) == 20

    def test_minimal_case(self):
        pairs = blocked_splits(np.arange(20), num_blocks=2, window=1, n=5, seed=0)
        assert len(pairs) == 1

    def test_temporal_ordering(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 100, size=300)
        for train, test in blocked_splits(times, 10, 3, n=20, seed=1):
            assert times[train].max() <= times[test].min()

    def test_every_trailing_block_tested_once(self):
        times = np.arange(100)
        pairs = blocked_splits(times, 10, 4, n=10, seed=2)
        tested = np.sort(np.concatenate([t for _, t in pairs]))
        np.testing.assert_array_equal(tested, np.arange(40, 100))

    def test_oversized_subsample_is_an_error(self):
        with pytest.raises(ValueError, match="n="):
            blocked_splits(np.arange(20), 4, 1, n=10, seed=0)

    def test_window_bound(self):
        with pytest.raises(ValueError):
            blocked_splits(np.arange(20), 4, 4, n=2, seed=0)


class TestKfoldSplits:
    def test_counts_and_disjointness(self):
        pairs = kfold_splits(40, k=4, seed=0)
        assert len(pairs) == 4
        tested = np.sort(np.concatenate([t for _, t in pairs]))
        np.testing.assert_array_equal(tested, np.arange(40))
        for train, test in pairs:
            assert np.intersect1d(train, test).size == 0

    def test_subsampled_training_fold(self):
        pairs = kfold_splits(40, k=4, n=12, seed=1)
        assert all(len(train) == 12 for train, _ in pairs)

    def test_k_bound(self):
        with pytest.raises(ValueError):
            kfold_splits(10, k=1)

    def test_k_above_the_record_count_is_rejected(self):
        # empty test folds would otherwise fail later, as an empty dataset
        with pytest.raises(ValueError, match=r"k must lie in 2\.\.5.*got 8"):
            kfold_splits(5, k=8)
        assert len(kfold_splits(5, k=5)) == 5


class TestSynth:
    def test_constant_task_kernel_gives_constant_coefficients(self):
        res = synth_vcm(30, m=2, d=1, task_kernel=Constant(1.0), tau2=0.0, seed=0)
        np.testing.assert_allclose(res.W - res.W[0], 0.0, atol=1e-4)
        np.testing.assert_allclose(
            res.dataset.y, np.einsum("ij,ij->i", res.dataset.X, res.W), atol=1e-12
        )

    def test_deterministic(self):
        a = synth_vcm(20, 2, 1, Matern(lengthscale=0.3), 0.1, seed=5)
        b = synth_vcm(20, 2, 1, Matern(lengthscale=0.3), 0.1, seed=5)
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
        np.testing.assert_array_equal(a.W, b.W)

    def test_coefficient_moments_match_task_kernel(self):
        # over many independent draws, E[w_i(r) w_j(r)] equals the task Gram
        # of that draw's task points; accumulate studentized deviations
        kernel = Matern(nu=1.5, lengthscale=0.4)
        n_seeds = 10_000
        num = 0.0
        den = 0.0
        for s in range(n_seeds):
            res = synth_vcm(2, m=1, d=1, task_kernel=kernel, tau2=0.0, seed=s)
            k12 = task_gram(kernel, res.dataset.T, res.dataset.T)[0, 1]
            w = res.W[:, 0]
            num += w[0] * w[1] - k12
            den += 1.0 + k12**2  # Var(w1 w2) = k11 k22 + k12^2 with unit diags
        z = num / np.sqrt(den)
        assert abs(z) < 3.0

    def test_discrete_task_kernel_draws_ids_and_per_task_coefficients(self):
        kernel = FixedGram(np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]]))
        res = synth_vcm(200, m=2, d=1, task_kernel=kernel, tau2=0.0, seed=3)
        ids = res.dataset.T
        assert res.dataset.has_discrete_tasks
        assert set(np.unique(ids)) == {1, 2, 3}
        for t in (1, 2, 3):
            rows = res.W[ids == t]
            np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        np.testing.assert_allclose(
            res.dataset.y, np.einsum("ij,ij->i", res.dataset.X, res.W), atol=1e-12
        )

    def test_size_limit(self):
        with pytest.raises(ValueError):
            synth_vcm(5001, 1, 1, Constant(1.0), 0.1, seed=0)

    def test_csv_round_trip_bytes(self, tmp_path):
        res = synth_vcm(15, 2, 2, Matern(lengthscale=0.5), 0.05, seed=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(res.dataset, p1)
        write_dataset_csv(res.dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()
        schema = Schema(target="y", numeric=("x1", "x2"), task_coords=("t1", "t2"))
        ds = preprocess(load_csv(p1, schema), schema, PreprocessPolicy(standardize=False))
        np.testing.assert_allclose(ds.X, res.dataset.X, atol=1e-15)
        np.testing.assert_allclose(ds.y, res.dataset.y, atol=1e-15)


class TestThresholdLabels:
    def test_median_split(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(threshold_labels(y), [0, 0, 1, 1])
