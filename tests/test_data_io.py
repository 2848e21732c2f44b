import numpy as np
import pytest

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


class TestLoadCsv:
    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "")
        assert list(load_csv(path, SALES_SCHEMA)) == []

    def test_three_row_fixture_exact_values(self, tmp_path):
        body = (
            "1000,2000,house,500000,40.7,-74.0,2003-05-01\n"
            "800,1500,condo,300000,40.8,-73.9,2004-06-02\n"
            "1200,2500,house,700000,40.6,-74.1,2005-07-03\n"
        )
        records = list(load_csv(write(tmp_path, body), SALES_SCHEMA))
        assert len(records) == 3
        assert records[0].values["floor_space"] == 1000.0
        assert records[1].values["kind"] == "condo"
        assert records[2].values["price"] == 700000.0
        assert records[0].values["sale_date"].year == 2003
        assert records[0].row == 2 and records[2].row == 4

    def test_malformed_numeric_cell_names_line(self, tmp_path):
        body = "1000,2000,house,500000,40.7,-74.0,2003-05-01\n800,oops,condo,300000,40.8,-73.9,2004-06-02\n"
        with pytest.raises(ValueError, match="line 3"):
            list(load_csv(write(tmp_path, body), SALES_SCHEMA))

    def test_missing_schema_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("floor_space,price\n1,2\n")
        with pytest.raises(ValueError, match="missing schema columns"):
            list(load_csv(path, SALES_SCHEMA))

    def test_bad_date(self, tmp_path):
        body = "1000,2000,house,500000,40.7,-74.0,not-a-date\n"
        with pytest.raises(ValueError, match="ISO date"):
            list(load_csv(write(tmp_path, body), SALES_SCHEMA))


class TestPreprocess:
    def make_records(self, tmp_path, extra=""):
        body = (
            "1000,2000,house,500000,40.7,-74.0,2003-05-01\n"
            "800,1500,condo,300000,40.8,-73.9,2003-06-02\n"
            "1200,2500,office,700000,40.6,-74.1,2003-07-03\n" + extra
        )
        return list(load_csv(write(tmp_path, body), SALES_SCHEMA))

    def test_bracket_filtering(self, tmp_path):
        records = self.make_records(
            tmp_path, "900,1800,house,50000,40.5,-74.2,2003-08-04\n"
        )
        policy = PreprocessPolicy(brackets={"price": (100_000, 1_000_000)})
        kept = filter_records(records, SALES_SCHEMA, policy)
        assert len(kept) == 3
        assert all(r.values["price"] >= 100_000 for r in kept)

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
        ds = preprocess(list(load_csv(path, schema)), schema, PreprocessPolicy(standardize=False))
        assert ds.has_discrete_tasks
        np.testing.assert_array_equal(ds.T, [1, 2])

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
        ds = preprocess(
            list(load_csv(p1, schema)), schema, PreprocessPolicy(standardize=False)
        )
        np.testing.assert_allclose(ds.X, res.dataset.X, atol=1e-15)
        np.testing.assert_allclose(ds.y, res.dataset.y, atol=1e-15)


class TestThresholdLabels:
    def test_median_split(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(threshold_labels(y), [0, 0, 1, 1])
