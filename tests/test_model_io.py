import json
from pathlib import Path

import numpy as np
import pytest

from vcgp.gp_classify import fit_classifier
from vcgp.gp_core import Dataset, DenseBasis, WeightBasis, fit_regressor
from vcgp.kernels import KernelSpec, Linear, Matern, TaskTree, Tree
from vcgp.model_io import load_model, save_model
from vcgp.multitask_hb import random_tree


def continuous_data(seed=0, n=10):
    rng = np.random.default_rng(seed)
    return Dataset(
        X=rng.standard_normal((n, 3)),
        T=rng.uniform(0, 1, (n, 2)),
        y=rng.standard_normal(n),
    )


LIN_MATERN = KernelSpec(instance_kernel=Linear(), task_kernel=Matern())

# a dense regressor file as the format-1 writer wrote it before weight-space
# models existed: Linear x Tree over 3 tasks, n=6, m=2, tau2=0.1
DENSE_FORMAT1_FILE = Path(__file__).parent / "data" / "dense_regressor_format1.bin"


def weight_space_tree_model():
    """A Linear x Tree fit at n=40, k=7, m=2: r = 14 <= n/2, so in weight space."""
    rng = np.random.default_rng(9)
    tree = random_tree(7, rng)
    data = Dataset(
        X=rng.standard_normal((40, 2)), T=rng.integers(1, 8, size=40), y=rng.standard_normal(40)
    )
    model = fit_regressor(data, KernelSpec(instance_kernel=Linear(), task_kernel=Tree(tree)), 0.1)
    assert isinstance(model.basis, WeightBasis) and model.chol.shape == (14, 14)
    return model


def read_model_file(path):
    """Split a model file into its magic line, header and named arrays."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        header = json.loads(fh.readline())
        arrays = {}
        for name, shape in header["arrays"]:
            dtype = np.dtype("<i8" if name == "T" and header["discrete_tasks"] else "<f8")
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

    def test_weight_space_regressor(self, tmp_path):
        model = weight_space_tree_model()
        path = tmp_path / "primal.bin"
        save_model(model, path)
        assert path.read_bytes().split(b"\n", 1)[0] == b"VCGP-MODEL 1 weight-space-regressor"
        loaded = load_model(path)
        assert np.array_equal(loaded.basis.C, model.basis.C)
        for name in ("chol", "weights", "alpha"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
        rng = np.random.default_rng(10)
        Xs, Ts = rng.standard_normal((16, 2)), rng.integers(1, 8, size=16)
        for got, want in zip(loaded.predict_batch(Xs, Ts), model.predict_batch(Xs, Ts)):
            assert np.array_equal(got, want)
        for x, t in zip(Xs, Ts):
            a, b = model.predict(x, t), loaded.predict(x, t)
            assert (a.mean, a.latent_var) == (b.mean, b.latent_var)
        assert loaded.log_marginal_likelihood() == model.log_marginal_likelihood()

    def test_dense_file_from_the_format1_writer_loads(self, tmp_path):
        model = load_model(DENSE_FORMAT1_FILE)
        assert isinstance(model.basis, DenseBasis) and model.chol.shape == (6, 6)
        # the same bytes come back out, and the stored model is the one a fit gives
        path = tmp_path / "again.bin"
        save_model(model, path)
        assert path.read_bytes() == DENSE_FORMAT1_FILE.read_bytes()
        fresh = fit_regressor(model.data, model.spec, model.tau2)
        assert isinstance(fresh.basis, DenseBasis)
        np.testing.assert_allclose(fresh.chol, model.chol, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fresh.alpha, model.alpha, rtol=1e-12)

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
        with pytest.raises(ValueError, match="'task_factor' has 6 rows, expected 7"):
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
