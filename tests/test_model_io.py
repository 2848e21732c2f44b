import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp.gp_classify import FittedClassifier, fit_classifier
from vcgp.gp_core import Dataset, DenseBasis, LowRankBasis, TreeBasis, _latent_predictive
from vcgp.gp_core import fit_regressor
from vcgp.kernels import FixedGram, KernelSpec, Linear, Matern, TaskTree, Tree
from vcgp.kernels import _tree_laplacian_parts, product_kernel_matrix
from vcgp.model_io import load_model, save_model
from vcgp.multitask_hb import random_tree
from vcgp.sparse_fitc import fit_fitc, fit_fitc_classifier, select_inducing


def continuous_data(seed=0, n=10):
    rng = np.random.default_rng(seed)
    return Dataset(
        X=rng.standard_normal((n, 3)),
        T=rng.uniform(0, 1, (n, 2)),
        y=rng.standard_normal(n),
    )


LIN_MATERN = KernelSpec(instance_kernel=Linear(), task_kernel=Matern())
MATERN_MATERN = KernelSpec(Matern(nu=2.5, lengthscale=1.5), Matern(nu=1.5, lengthscale=0.4))

# a dense regressor file as the format-1 writer wrote it before weight-space
# models existed: Linear x Tree over 3 tasks, n=6, m=2, tau2=0.1
DENSE_FORMAT1_FILE = Path(__file__).parent / "data" / "dense_regressor_format1.bin"

# a weight-space regressor file as the format-1 writer wrote it while the
# factor was that of V^T V + tau2 I: Linear x Tree over 3 tasks, n=14, m=2,
# tau2=0.1; with the writer's predictions at WEIGHT_SPACE_TEST_POINTS and
# its log marginal likelihood
WEIGHT_SPACE_FORMAT1_FILE = Path(__file__).parent / "data" / "weight_space_regressor_format1.bin"
WEIGHT_SPACE_TEST_POINTS = (np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]]), np.array([1, 2, 3]))
WEIGHT_SPACE_FORMAT1_MEAN = [-0.4450342122913361, 0.05685533546894351, 0.5897031107674062]
WEIGHT_SPACE_FORMAT1_VAR = [0.0806440124734945, 0.07412744018578639, 0.05544413336194013]
WEIGHT_SPACE_FORMAT1_LML = -46.665479293683745
TOL_ORACLE = 1e-8  # TOL_ORACLE of test_acceptance.py
WEIGHT_SPACE_MAGIC = b"VCGP-MODEL 1 weight-space-woodbury-regressor"

# a dense classifier file as the format-1 writer wrote it before classifiers
# had a weight-space route: Linear x Tree over 3 tasks, n=14, m=2, tau2=0.1
# (r = 6 <= n/2, so a fit now takes weight space); with the writer's
# single-point probabilities at WEIGHT_SPACE_TEST_POINTS and its evidence
CLASSIFIER_FORMAT1_FILE = Path(__file__).parent / "data" / "linear_tree_classifier_format1.bin"
CLASSIFIER_FORMAT1_PROBA = [0.7575154905873741, 0.8013122301171102, 0.0882289402131099]
CLASSIFIER_FORMAT1_LML = -8.111430597247356


def tree_task_data():
    """n=40 points, m=2, over the k=7 tasks of a random tree, and the tree."""
    rng = np.random.default_rng(9)
    tree = random_tree(7, rng)
    data = Dataset(
        X=rng.standard_normal((40, 2)), T=rng.integers(1, 8, size=40), y=rng.standard_normal(40)
    )
    return data, tree


def weight_space_tree_model():
    """A Linear x FixedGram fit on the tree's Gram: r = 14 <= n/2, so in weight space."""
    data, tree = tree_task_data()
    model = fit_regressor(data, KernelSpec(Linear(), FixedGram(Tree(tree).gram)), 0.1)
    assert isinstance(model.basis, LowRankBasis) and model.chol.shape == (14, 14)
    return model


def weight_space_tree_classifier():
    """The data of :func:`weight_space_tree_model` with 0/1 labels, fitted in weight space."""
    model = weight_space_tree_model()
    data = Dataset(X=model.data.X, T=model.data.T, y=(model.data.y > 0).astype(float))
    model = fit_classifier(data, model.spec, 0.1)
    assert isinstance(model.basis, LowRankBasis) and model.state.B_chol.shape == (14, 14)
    return model


def fitted_model(route, likelihood):
    """A model of each route: dense (over continuous or tree tasks), weight space, tree
    precision, and FITC on continuous or discrete tasks."""
    if route in ("weight-space", "fitc-discrete"):
        model = weight_space_tree_model()
        data, spec = model.data, model.spec
    elif route in ("tree-precision", "dense-tree"):
        data, tree = tree_task_data()
        spec = KernelSpec(Linear() if route == "tree-precision" else Matern(), Tree(tree))
    else:
        data, spec = continuous_data(seed=12, n=30), MATERN_MATERN
    if likelihood == "classifier":
        data = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
    if route.startswith("fitc"):
        fit = fit_fitc if likelihood == "regressor" else fit_fitc_classifier
        return fit(data, spec, 0.1, select_inducing(data, 8, seed=3))
    return (fit_regressor if likelihood == "regressor" else fit_classifier)(data, spec, 0.1)


def query_points(model, count, seed):
    """``count`` test points of the model's instance width and task variant."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count, model.data.m))
    if model.data.has_discrete_tasks:
        return X, rng.integers(1, int(model.data.T.max()) + 1, size=count)
    return X, rng.uniform(0, 1, (count, model.data.T.shape[1]))


def read_model_file(path):
    """Split a model file into its magic line, header and named arrays."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        header = json.loads(fh.readline())
        arrays = {}
        for name, shape in header["arrays"]:
            task_ids = header["discrete_tasks"] and (name == "T" or name.endswith("_T"))
            dtype = np.dtype("<i8" if task_ids else "<f8")
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(fh.read(count * 8), dtype=dtype).reshape(shape)
    return magic, header, arrays


def write_model_file(path, magic, header, arrays):
    """Write a model file whose header lists ``arrays`` as they are."""
    header = {**header, "arrays": [[name, list(a.shape)] for name, a in arrays.items()]}
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a).tobytes())


MISSING = object()


def regressor_or_classifier(kind):
    if kind == "weight-space-classifier":
        return weight_space_tree_classifier()
    if kind.startswith("tree-precision-"):
        return fitted_model("tree-precision", kind.removeprefix("tree-precision-"))
    if kind.startswith("fitc-"):
        return fitted_model("fitc-continuous", kind.removeprefix("fitc-"))
    data = continuous_data(seed=6)
    if kind == "regressor":
        return fit_regressor(data, LIN_MATERN, 0.2)
    labels = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
    return fit_classifier(labels, LIN_MATERN, 0.2)


def rewrite_header(path, edit):
    """Replace a model file's JSON header by ``edit(header)``, keeping the rest."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.dumps(edit(json.loads(header))).encode()
    path.write_bytes(magic + b"\n" + header + b"\n" + payload)


class TestRoundTrip:
    def test_regressor(self, tmp_path):
        data = continuous_data()
        spec = KernelSpec(
            instance_kernel=Matern(nu=2.5, lengthscale=(1.0, 2.0, 0.5), amplitude=1.3),
            task_kernel=Matern(nu=0.5, lengthscale=0.4),
        )
        model = fit_regressor(data, spec, 0.2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, type(model))
        assert loaded.tau2 == model.tau2
        rng = np.random.default_rng(1)
        Xs, Ts = rng.standard_normal((5, 3)), rng.uniform(0, 1, (5, 2))
        np.testing.assert_array_equal(
            model.predict_batch(Xs, Ts)[0], loaded.predict_batch(Xs, Ts)[0]
        )
        np.testing.assert_array_equal(
            model.predict_batch(Xs, Ts)[1], loaded.predict_batch(Xs, Ts)[1]
        )

    def test_regressor_with_tree_kernel_and_discrete_tasks(self, tmp_path):
        rng = np.random.default_rng(2)
        tree = TaskTree(parent={2: 1, 3: 1}, sigma=(1.0, 0.5, 2.0))
        data = Dataset(
            X=rng.standard_normal((8, 2)),
            T=rng.integers(1, 4, size=8),
            y=rng.standard_normal(8),
        )
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree=tree))
        model = fit_regressor(data, spec, 0.1)
        path = tmp_path / "tree.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.data.has_discrete_tasks
        x = rng.standard_normal(2)
        assert model.predict(x, 2).mean == loaded.predict(x, 2).mean

    def test_classifier_discriminating_tag(self, tmp_path):
        data = continuous_data(seed=3)
        data = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
        spec = KernelSpec(instance_kernel=Linear(), task_kernel=Matern(lengthscale=0.5))
        model = fit_classifier(data, spec, 0.3)
        path = tmp_path / "clf.bin"
        save_model(model, path)
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"VCGP-MODEL 1 classifier"
        loaded = load_model(path)
        rng = np.random.default_rng(4)
        Xs, Ts = rng.standard_normal((5, 3)), rng.uniform(0, 1, (5, 2))
        np.testing.assert_array_equal(
            model.predict_proba_batch(Xs, Ts), loaded.predict_proba_batch(Xs, Ts)
        )

    def test_single_point_predictions_bit_equal_after_load(self, tmp_path):
        # triangular solves round differently for C- and Fortran-ordered
        # factors, so this needs the loaded factors in the fitted layout
        rng = np.random.default_rng(7)
        n = 400
        data = Dataset(
            X=rng.standard_normal((n, 3)), T=rng.uniform(0, 1, (n, 1)), y=rng.standard_normal(n)
        )
        labels = Dataset(X=data.X, T=data.T, y=(data.y > 0).astype(float))
        spec = KernelSpec(
            instance_kernel=Matern(nu=1.5, lengthscale=1.0),
            task_kernel=Matern(nu=1.5, lengthscale=0.3),
        )
        Xs, Ts = rng.standard_normal((64, 3)), rng.uniform(0, 1, (64, 1))
        for model in (fit_regressor(data, spec, 0.1), fit_classifier(labels, spec, 0.1)):
            path = tmp_path / "model.bin"
            save_model(model, path)
            loaded = load_model(path)
            for x, t in zip(Xs, Ts):
                if hasattr(model, "predict"):
                    a, b = model.predict(x, t), loaded.predict(x, t)
                    assert (a.mean, a.latent_var) == (b.mean, b.latent_var)
                else:
                    assert model.predict_proba(x, t) == loaded.predict_proba(x, t)

    def test_tree_kernel_single_point_predictions_bit_equal_after_load(self, tmp_path):
        rng = np.random.default_rng(8)
        tree = random_tree(40, rng)
        n = 300
        data = Dataset(
            X=rng.standard_normal((n, 3)), T=rng.integers(1, 41, size=n), y=rng.standard_normal(n)
        )
        model = fit_regressor(data, KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree)), 0.1)
        path = tmp_path / "tree.bin"
        save_model(model, path)
        loaded = load_model(path)
        for x, t in zip(rng.standard_normal((64, 3)), rng.integers(1, 41, size=64)):
            a, b = model.predict(x, t), loaded.predict(x, t)
            assert (a.mean, a.latent_var) == (b.mean, b.latent_var)

    @pytest.mark.parametrize("likelihood", ["regressor", "classifier"])
    @pytest.mark.parametrize(
        "route, tag",
        [
            ("dense", ""),
            ("tree-precision", "tree-precision-"),
            ("weight-space", "weight-space-woodbury-"),
            ("fitc-continuous", "fitc-"),
            ("fitc-discrete", "fitc-"),
        ],
    )
    def test_every_kind_round_trips_bit_for_bit(self, tmp_path, route, tag, likelihood):
        model = fitted_model(route, likelihood)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert path.read_bytes().split(b"\n", 1)[0] == f"VCGP-MODEL 1 {tag}{likelihood}".encode()
        loaded = load_model(path)
        assert type(loaded) is type(model) and type(loaded.basis) is type(model.basis)
        Xs, Ts = query_points(model, 16, seed=10)
        if isinstance(model, FittedClassifier):
            latent = [_latent_predictive(m, Xs, Ts, m.state.B_chol, m.tau2, m.state.W)
                      for m in (model, loaded)]
            assert np.array_equal(model.predict_proba_batch(Xs, Ts), loaded.predict_proba_batch(Xs, Ts))
            for x, t in zip(Xs, Ts):
                assert model.predict_proba(x, t) == loaded.predict_proba(x, t)
        else:
            latent = [m.predict_batch(Xs, Ts) for m in (model, loaded)]
            for x, t in zip(Xs, Ts):
                a, b = model.predict(x, t), loaded.predict(x, t)
                assert (a.mean, a.latent_var) == (b.mean, b.latent_var)
        for got, want in zip(*latent):  # latent means, then variances
            assert np.array_equal(got, want)
        assert loaded.log_marginal_likelihood() == model.log_marginal_likelihood()
        again = tmp_path / "again.bin"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tree_evidence_round_trips_bit_for_bit(self, seed):
        # the fit's pivot factors are C-ordered and a loaded model's Fortran-ordered,
        # so the log-pivot sum must not follow the layout
        rng = np.random.default_rng(seed)
        k, m, n = rng.integers(2, 301), rng.integers(1, 4), rng.integers(20, 601)
        spec = KernelSpec(Linear(), Tree(random_tree(k, rng, 0.3, 3.0)))
        X, T, y = rng.standard_normal((n, m)), rng.integers(1, k + 1, n), rng.standard_normal(n)
        models = [fit_regressor(Dataset(X, T, y), spec, 0.1),
                  fit_classifier(Dataset(X, T, (y > 0).astype(float)), spec, 0.1)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tree.bin"
            for model in models:
                save_model(model, path)
                assert load_model(path).log_marginal_likelihood() == model.log_marginal_likelihood()

    def test_dense_file_from_the_format1_writer_loads(self, tmp_path):
        model = load_model(DENSE_FORMAT1_FILE)
        assert isinstance(model.basis, DenseBasis) and model.chol.shape == (6, 6)
        # the same bytes come back out, and the stored model is the one a fit
        # gives, now on the tree's precision
        path = tmp_path / "again.bin"
        save_model(model, path)
        assert path.read_bytes() == DENSE_FORMAT1_FILE.read_bytes()
        data = model.data
        K = product_kernel_matrix(data.X, data.T, data.X, data.T, model.spec)
        dense = np.linalg.cholesky(K + (model.tau2 + model.jitter) * np.eye(data.n))
        np.testing.assert_allclose(model.chol, dense, rtol=1e-12, atol=1e-12)
        fresh = fit_regressor(data, model.spec, model.tau2)
        assert isinstance(fresh.basis, TreeBasis)
        np.testing.assert_allclose(fresh.alpha, model.alpha, rtol=1e-12)
        assert fresh.log_marginal_likelihood() == pytest.approx(model.log_marginal_likelihood(),
                                                                rel=1e-12)
        for got, want in zip(model.predict_batch(*WEIGHT_SPACE_TEST_POINTS),
                             fresh.predict_batch(*WEIGHT_SPACE_TEST_POINTS)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_weight_space_file_from_the_format1_writer_loads(self, tmp_path):
        model = load_model(WEIGHT_SPACE_FORMAT1_FILE)
        assert isinstance(model.basis, LowRankBasis) and model.chol.shape == (6, 6)
        mean, var = model.predict_batch(*WEIGHT_SPACE_TEST_POINTS)
        np.testing.assert_allclose(mean, WEIGHT_SPACE_FORMAT1_MEAN, rtol=0, atol=TOL_ORACLE)
        np.testing.assert_allclose(var, WEIGHT_SPACE_FORMAT1_VAR, rtol=0, atol=TOL_ORACLE)
        assert abs(model.log_marginal_likelihood() - WEIGHT_SPACE_FORMAT1_LML) < TOL_ORACLE
        # it is written back as the new kind, never as the old one
        path = tmp_path / "again.bin"
        save_model(model, path)
        assert path.read_bytes().split(b"\n", 1)[0] == WEIGHT_SPACE_MAGIC
        again = load_model(path)
        for got, want in zip(again.predict_batch(*WEIGHT_SPACE_TEST_POINTS), (mean, var)):
            assert np.array_equal(got, want)

    def test_dense_classifier_file_of_a_weight_space_spec_loads_as_dense(self, tmp_path):
        model = load_model(CLASSIFIER_FORMAT1_FILE)
        assert isinstance(model.basis, DenseBasis) and model.state.B_chol.shape == (14, 14)
        got = [model.predict_proba(x, t) for x, t in zip(*WEIGHT_SPACE_TEST_POINTS)]
        assert got == CLASSIFIER_FORMAT1_PROBA
        assert model.log_marginal_likelihood() == CLASSIFIER_FORMAT1_LML
        path = tmp_path / "again.bin"
        save_model(model, path)
        assert path.read_bytes() == CLASSIFIER_FORMAT1_FILE.read_bytes()
        # a fresh fit takes the tree's precision and gives the same model to
        # the dense-oracle tolerance of test_sparse_fitc.py
        fresh = fit_classifier(model.data, model.spec, model.tau2)
        assert isinstance(fresh.basis, TreeBasis) and fresh.state.B_chol.shape == (3, 2, 2, 2)
        np.testing.assert_allclose(
            fresh.predict_proba_batch(*WEIGHT_SPACE_TEST_POINTS), got, rtol=0, atol=1e-6
        )
        assert abs(fresh.log_marginal_likelihood() - CLASSIFIER_FORMAT1_LML) < 1e-6

    def test_byte_deterministic(self, tmp_path):
        data = continuous_data(seed=5)
        model = fit_regressor(
            data, KernelSpec(instance_kernel=Linear(), task_kernel=Matern()), 0.2
        )
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model\n{}\n")
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        data = continuous_data(seed=6)
        model = fit_regressor(
            data, KernelSpec(instance_kernel=Linear(), task_kernel=Matern()), 0.2
        )
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    # 2**40 x 2 doubles would be 16 TiB; 2**62 x 4 x 8 bytes wraps an int64 product to 0
    @pytest.mark.parametrize("shape", [[2**40, 2], [2**62, 4]])
    def test_header_shape_larger_than_the_file(self, tmp_path, shape):
        path = tmp_path / "model.bin"
        save_model(regressor_or_classifier("regressor"), path)

        def edit(header):
            header["arrays"][0][1] = shape  # X, the first array
            return header

        rewrite_header(path, edit)
        with pytest.raises(ValueError, match="truncated while reading array 'X'"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["weight-space-classifier", "fitc-", "regressor-fitc", ""])
    def test_unknown_kind(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        save_model(regressor_or_classifier("regressor"), path)
        magic, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(f"VCGP-MODEL 1 {kind}\n".encode() + rest)
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(fit_regressor(continuous_data(seed=6), LIN_MATERN, 0.2), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("regressor", "chol"),
            ("regressor", "alpha"),
            ("regressor", "T"),
            ("regressor", "y"),
            ("classifier", "B_chol"),
            ("classifier", "mode"),
            ("classifier", "dual"),
            ("classifier", "pi"),
            ("classifier", "W"),
            ("weight-space-classifier", "B_chol"),
            ("weight-space-classifier", "weights"),
            ("weight-space-classifier", "dual"),
            ("fitc-regressor", "chol"),
            ("fitc-regressor", "weights"),
            ("fitc-regressor", "alpha"),
            ("fitc-regressor", "inducing_T"),
            ("fitc-regressor", "Luu"),
            ("fitc-regressor", "lam"),
            ("fitc-classifier", "B_chol"),
            ("fitc-classifier", "weights"),
            ("fitc-classifier", "W"),
            ("fitc-classifier", "Luu"),
            ("tree-precision-regressor", "chol"),
            ("tree-precision-regressor", "weights"),
            ("tree-precision-classifier", "B_chol"),
            ("tree-precision-classifier", "weights"),
        ],
    )
    def test_header_shapes_that_disagree(self, tmp_path, kind, name):
        path = tmp_path / "model.bin"
        save_model(regressor_or_classifier(kind), path)
        magic, header, arrays = read_model_file(path)
        # one row or column fewer, written consistently so only the shapes disagree
        arrays[name] = arrays[name][:-1, :-1] if name.endswith("chol") else arrays[name][:-1]
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match=f"array {name!r} has shape"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "kind, name",
        [
            ("regressor", "chol"),
            ("regressor", "alpha"),
            ("weight-space-regressor", "chol"),
            ("weight-space-regressor", "weights"),
            ("classifier", "B_chol"),
            ("classifier", "dual"),
            ("weight-space-classifier", "B_chol"),
            ("weight-space-classifier", "weights"),
            ("weight-space-classifier", "W"),
            ("fitc-regressor", "chol"),
            ("fitc-regressor", "inducing_X"),
            ("fitc-regressor", "Luu"),
            ("fitc-regressor", "lam"),
            ("fitc-classifier", "B_chol"),
            ("fitc-classifier", "inducing_T"),
            ("fitc-classifier", "weights"),
            ("tree-precision-regressor", "chol"),
            ("tree-precision-classifier", "weights"),
        ],
    )
    def test_non_finite_array_is_rejected_by_name(self, tmp_path, kind, name, value):
        # the solves trust a loaded factor to be finite, so the load checks it
        path = tmp_path / "model.bin"
        if kind == "weight-space-regressor":
            save_model(weight_space_tree_model(), path)
        else:
            save_model(regressor_or_classifier(kind), path)
        magic, header, arrays = read_model_file(path)
        arrays[name] = arrays[name].copy()
        arrays[name][(-1, 0) if name.endswith("chol") else -1] = value  # a factor's lower triangle
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match=f"array {name!r} has a non-finite entry"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("regressor", "tau2", MISSING),
            ("regressor", "jitter", MISSING),
            ("regressor", "spec", MISSING),
            ("regressor", "arrays", MISSING),
            ("regressor", "discrete_tasks", MISSING),
            ("classifier", "log_lik", MISSING),
            ("classifier", "iterations", MISSING),
            ("regressor", "tau2", -1.0),
            ("regressor", "tau2", 0.0),
            ("regressor", "tau2", "x"),
            ("regressor", "tau2", float("nan")),
            ("regressor", "tau2", float("inf")),
            ("regressor", "jitter", float("nan")),
            ("regressor", "jitter", -1e-9),
            ("regressor", "jitter", None),
            ("regressor", "discrete_tasks", 0),
            ("regressor", "spec", ["linear", "matern"]),
            ("regressor", "arrays", "X"),
            ("regressor", "arrays", [["X"]]),
            ("regressor", "arrays", [["X", [10, -3]]]),
            ("classifier", "log_lik", float("nan")),
            ("classifier", "log_lik", "-3.0"),
            ("classifier", "iterations", -1),
            ("classifier", "iterations", 2.5),
            ("classifier", "iterations", True),
            ("weight-space-classifier", "log_lik", MISSING),
            ("weight-space-classifier", "iterations", MISSING),
            ("weight-space-classifier", "tau2", 0.0),
            ("weight-space-classifier", "iterations", -1),
            ("fitc-regressor", "tau2", MISSING),
            ("fitc-regressor", "jitter", -1e-9),
            ("fitc-classifier", "log_lik", MISSING),
            ("fitc-classifier", "tau2", float("inf")),
        ],
    )
    def test_header_fields_that_are_missing_or_invalid(self, tmp_path, kind, field, value):
        path = tmp_path / "model.bin"
        save_model(regressor_or_classifier(kind), path)

        def edit(header):
            if value is MISSING:
                del header[field]
            else:
                header[field] = value
            return header

        rewrite_header(path, edit)
        with pytest.raises(ValueError, match=f"header .*{field!r}"):
            load_model(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(regressor_or_classifier("regressor"), path)
        rewrite_header(path, lambda header: list(header.items()))
        with pytest.raises(ValueError, match="header must be a JSON object"):
            load_model(path)

    @pytest.mark.parametrize("name", ["chol", "weights"])
    def test_weight_space_sizes_that_disagree_with_the_factor(self, tmp_path, name):
        path = tmp_path / "primal.bin"
        save_model(weight_space_tree_model(), path)
        magic, header, arrays = read_model_file(path)
        # r = m * width(task_factor) = 14; one row or column fewer
        arrays[name] = arrays[name][:-1, :-1] if name == "chol" else arrays[name][:-1]
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match=f"array {name!r} has shape"):
            load_model(path)

    def test_weight_space_task_factor_narrower_than_the_factor(self, tmp_path):
        path = tmp_path / "primal.bin"
        save_model(weight_space_tree_model(), path)
        magic, header, arrays = read_model_file(path)
        arrays["task_factor"] = arrays["task_factor"][:, :-1]
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match="array 'chol' has shape"):
            load_model(path)

    def test_weight_space_task_factor_rows_must_match_the_tasks(self, tmp_path):
        path = tmp_path / "primal.bin"
        save_model(weight_space_tree_model(), path)
        magic, header, arrays = read_model_file(path)
        arrays["task_factor"] = arrays["task_factor"][:-1]
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match=r"'task_factor' has shape \(6, 7\), expected \(7, \*\)"):
            load_model(path)

    @pytest.mark.parametrize("route", ["dense-tree", "weight-space", "tree-precision", "fitc-discrete"])
    @pytest.mark.parametrize("likelihood", ["regressor", "classifier"])
    def test_task_ids_outside_the_kernel_are_rejected_by_name(self, tmp_path, route, likelihood):
        # such a file used to load, and then every prediction raised
        path = tmp_path / "model.bin"
        save_model(fitted_model(route, likelihood), path)
        magic, header, arrays = read_model_file(path)
        for name in ("T", "inducing_T") if route.startswith("fitc") else ("T",):
            for bad, message in ((9, r"task ids must lie in 1\.\.7"), (0, "discrete task ids must be >= 1")):
                edited = dict(arrays, **{name: arrays[name].copy()})
                edited[name][0] = bad
                write_model_file(path, magic, header, edited)
                with pytest.raises(ValueError, match=rf"array {name!r}: {message}"):
                    load_model(path)

    def test_tree_precision_file_needs_a_forest_task_kernel(self, tmp_path):
        path = tmp_path / "tree.bin"
        save_model(fitted_model("tree-precision", "regressor"), path)
        magic, header, arrays = read_model_file(path)
        header["spec"]["task_kernel"] = {"type": "fixed_gram", "gram": np.eye(7).tolist()}
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match="tree-precision model needs a linear instance kernel"):
            load_model(path)

    @pytest.mark.parametrize("edit", [None, "negative-edge", "negative-regularizer"])
    def test_tree_precision_file_needs_a_laplacian_of_definite_structure(self, tmp_path, edit):
        path = tmp_path / "tree.bin"
        model = fitted_model("tree-precision", "regressor")
        save_model(model, path)
        magic, header, arrays = read_model_file(path)
        M, R = _tree_laplacian_parts(model.spec.task_kernel.tree)
        if edit == "negative-edge":
            M[1, M[1] > 0] *= -1.0  # node 2's edges, both ways
            M[:, 1] = M[1]
        elif edit == "negative-regularizer":
            R[1, 1] = -1e-3
        header["spec"]["task_kernel"] = {"type": "laplacian", "M": M.tolist(), "R": R.tolist()}
        write_model_file(path, magic, header, arrays)
        if edit is None:  # the same kernel as the tree's
            assert isinstance(load_model(path).basis, TreeBasis)
            return
        with pytest.raises(ValueError, match="tree-precision model needs a linear instance kernel"):
            load_model(path)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_fitc_diagonal_must_be_positive(self, tmp_path, value):
        # the evidence takes log(lam); a fit floors it above 0
        path = tmp_path / "fitc.bin"
        save_model(regressor_or_classifier("fitc-regressor"), path)
        magic, header, arrays = read_model_file(path)
        arrays["lam"] = arrays["lam"].copy()
        arrays["lam"][3] = value
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match="array 'lam' must be positive"):
            load_model(path)

    def test_weight_space_file_needs_a_linear_instance_kernel(self, tmp_path):
        path = tmp_path / "primal.bin"
        save_model(weight_space_tree_model(), path)
        magic, header, arrays = read_model_file(path)
        header["spec"]["instance_kernel"] = {"type": "matern"}
        write_model_file(path, magic, header, arrays)
        with pytest.raises(ValueError, match="linear instance kernel"):
            load_model(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), tmp_path / "x.bin")
