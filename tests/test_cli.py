import contextlib
import csv
import io
import pathlib
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgp import experiments, kernels
from vcgp.cli import EXIT_BUDGET, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from vcgp.data_io import Preprocessor


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "out": str(tmp_path / "results.csv"),
        "problem": "regression",
        "methods": ["vcgp-mat"],
        "dataset": {
            "synth": {
                "n": 300,
                "m": 2,
                "d": 1,
                "tau2": 0.05,
                "task_kernel": {"type": "matern", "nu": 1.5, "lengthscale": 0.2},
            }
        },
        "split": {"kfold": {"k": 2}},
        "train_sizes": [60],
        "model": {
            "task_kernel": {"type": "matern", "nu": 1.5, "lengthscale": 0.2},
            "tau2": 0.05,
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_row_count_contract(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        rows = read_rows(cfg["out"])
        assert len(rows) == 2  # one method, one n, kfold(2)
        assert {r["metric"] for r in rows} == {"mae"}

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["run", str(path)]) == EXIT_OK
        first = read_rows(cfg["out"])
        assert main(["run", str(path)]) == EXIT_OK
        second = read_rows(cfg["out"])
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
        assert strip(first) == strip(second)

    def test_budget_exceeded_returns_partial_results(self, tmp_path):
        path, cfg = write_config(tmp_path, budget_seconds=1e-9, train_sizes=[40, 60])
        assert main(["run", str(path)]) == EXIT_BUDGET
        rows = read_rows(cfg["out"])
        assert 1 <= len(rows) < 4

    def test_numerical_failure_exit_code(self, tmp_path):
        data_csv = tmp_path / "tasks.csv"
        lines = ["a,y,task"]
        rng = np.random.default_rng(0)
        for i in range(12):
            lines.append(f"{rng.standard_normal()},{rng.standard_normal()},{1 + i % 2}")
        data_csv.write_text("\n".join(lines) + "\n")
        path, cfg = write_config(
            tmp_path,
            methods=["vcgp-lin"],
            dataset={
                "csv": str(data_csv),
                "schema": {"target": "y", "numeric": ["a"], "task_id": "task"},
            },
            train_sizes=[4],
            model={
                # an indefinite task Gram cannot be factorized at any jitter
                "task_kernel": {"type": "fixed_gram", "gram": [[1.0, 5.0], [5.0, 1.0]]},
                "tau2": 1e-8,
            },
        )
        assert main(["run", str(path)]) == EXIT_NUMERICAL

    def test_missing_config_key(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = yaml.safe_load(path.read_text())
        del cfg["train_sizes"]
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_task_kernel_without_its_gram_names_the_key(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, methods=["vcgp-lin"], model={"task_kernel": {"type": "fixed_gram"}}
        )
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "error: fixed_gram kernel needs the key 'gram'" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, methods=["nope"])
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_missing_dataset_file(self, tmp_path):
        path, _ = write_config(
            tmp_path, dataset={"csv": str(tmp_path / "nope.csv"), "schema": {"target": "y"}}
        )
        assert main(["run", str(path)]) == EXIT_USAGE

    def test_csv_pipeline_with_blocked_splits(self, tmp_path):
        rng = np.random.default_rng(1)
        data_csv = tmp_path / "geo.csv"
        lines = ["a,b,y,lat,lon,date"]
        base = np.datetime64("2003-01-01")
        for i in range(240):
            day = base + np.timedelta64(int(i), "D")
            lines.append(
                f"{rng.standard_normal()},{rng.standard_normal()},"
                f"{rng.standard_normal()},{40 + rng.uniform()},{-74 + rng.uniform()},{day}"
            )
        data_csv.write_text("\n".join(lines) + "\n")
        path, cfg = write_config(
            tmp_path,
            methods=["vcgp-lin"],
            dataset={
                "csv": str(data_csv),
                "schema": {
                    "target": "y",
                    "numeric": ["a", "b"],
                    "task_coords": ["lat", "lon"],
                    "task_time": "date",
                },
            },
            split={"blocked": {"num_blocks": 6, "window": 2}},
            train_sizes=[30],
            model={"task_kernel": {"type": "matern", "lengthscale": 1.0}, "tau2": 0.1},
        )
        assert main(["run", str(path)]) == EXIT_OK
        rows = read_rows(cfg["out"])
        assert len(rows) == 4  # 6 blocks - window 2

    def test_csv_fold_preprocessor_fitted_once_for_all_methods(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        data_csv = tmp_path / "tasks.csv"
        lines = ["a,b,t,y"] + [
            ",".join(str(v) for v in (*rng.standard_normal(2), rng.uniform(), rng.standard_normal()))
            for _ in range(80)
        ]
        data_csv.write_text("\n".join(lines) + "\n")
        path, cfg = write_config(
            tmp_path,
            methods=["vcgp-lin", "iid-lin"],
            dataset={
                "csv": str(data_csv),
                "schema": {"target": "y", "numeric": ["a", "b"], "task_coords": ["t"]},
            },
            train_sizes=[30],
        )
        fits = []
        original = Preprocessor.fit

        def counted(self, records):
            fits.append(len(records))
            return original(self, records)

        monkeypatch.setattr(Preprocessor, "fit", counted)
        assert main(["run", str(path)]) == EXIT_OK
        assert len(read_rows(cfg["out"])) == 4  # 2 methods x 2 folds
        assert len(fits) == 2  # one per fold

    def test_tree_task_gram_is_built_once_per_run(self, tmp_path, monkeypatch):
        tree = {"type": "tree", "parent": {2: 1, 3: 1}, "sigma": [1.0, 0.7, 0.4]}
        path, cfg = write_config(
            tmp_path,
            methods=["vcgp-lin"],
            dataset={"synth": {"n": 120, "m": 2, "tau2": 0.05,
                               "task_kernel": {**tree, "sigma": [1.0, 0.5, 0.5]}}},
            train_sizes=[40],
            model={"task_kernel": tree, "tau2": 0.1},
        )
        grams = []
        original = kernels.tree_task_kernel

        def counted(task_tree):
            grams.append(task_tree.sigma)
            return original(task_tree)

        monkeypatch.setattr(kernels, "tree_task_kernel", counted)
        assert main(["run", str(path)]) == EXIT_OK
        assert len(read_rows(cfg["out"])) == 2  # kfold(2)
        assert grams.count((1.0, 0.7, 0.4)) == 1  # the model's tree, not once per fold

    @pytest.mark.parametrize(
        "path, value, key",
        [
            ("dataset", "synth.csv", "dataset"),
            ("model", "matern", "model"),
            ("tuning", "grid", "tuning"),
            ("model.fitc", 20, "model.fitc"),
            ("model.instance_matern", "matern", "model.instance_matern"),
            ("tuning", {"method": "grid", "grid": "tau2"}, "tuning.grid"),
            ("split.kfold", 2, "split.kfold"),
            ("fanzhang", [0.1], "fanzhang"),
            ("train_sizes", 60, "train_sizes"),
            ("tuning", {"method": "grid", "grid": {"tau2": 0.1}}, "tuning.grid.tau2"),
            ("tuning", {"method": "grid", "grid": {"tau2": [0.1, "a"]}}, "tuning.grid.tau2[1]"),
            ("fanzhang", {"bandwidths": ["a"]}, "fanzhang.bandwidths[0]"),
            ("dataset.synth.n", None, "dataset.synth.n"),
            ("split.kfold.k", None, "split.kfold.k"),
            ("budget_seconds", "soon", "budget_seconds"),
            ("model.tau2", "abc", "model.tau2"),
            # YAML's yes is a bool, which is not a number here
            ("model.tau2", True, "model.tau2"),
            ("split.kfold.k", True, "split.kfold.k"),
            # more folds than the 300 records
            ("split.kfold.k", 301, "split.kfold.k"),
            ("tuning", {"method": "gradient", "n_restarts": "x"}, "tuning.n_restarts"),
            ("seed", "x", "seed"),
            ("methods", "vcgp-mat", "methods"),
            # a mistyped grid key would otherwise be ignored, leaving the run untuned
            ("tuning", {"method": "grid", "grid": {"task.lenghtscale": [0.1, 0.3, 1.0]}},
             "tuning.grid.task.lenghtscale"),
            # a key that only a tuning method reads, with no tuning, or a CSV's
            # schema or policy with a synthetic dataset, would be ignored
            ("tuning", {"method": "none", "n_restarts": 3}, "tuning.n_restarts"),
            ("dataset.schema", {"target": "y"}, "dataset.schema"),
            ("dataset.policy", {"standardize": False}, "dataset.policy"),
            # each train size against the 150-record training folds, before any fold runs
            ("train_sizes", [200], "train_sizes[0]"),
            ("train_sizes", [60, 200], "train_sizes[1]"),
            ("train_sizes", [], "train_sizes"),
            ("train_sizes", [0], "train_sizes[0]"),
            # 12 blocks of 25 records: a window of 2 holds 50 < 60
            ("split", {"blocked": {"num_blocks": 12, "window": 2}}, "train_sizes[0]"),
            ("split", {"blocked": {"num_blocks": 4, "window": 4}}, "split.blocked.window"),
            ("split", {"blocked": {"num_blocks": 301, "window": 2}}, "split.blocked.num_blocks"),
            ("split.kfold.k", 2.5, "split.kfold.k"),
            # out is a path: 2 would write the CSV to stderr
            ("out", 2, "out"),
            ("out", ["x"], "out"),
            ("problem", "regresion", "problem"),
            ("methods", ["vcgp-mat", "vcgp"], "methods[1]"),
            ("tuning", {"method": "grdi"}, "tuning.method"),
            ("tuning", {"method": "grid"}, "tuning.grid"),
            ("tuning", {"method": "grid", "grid": {}}, "tuning.grid"),
            ("tuning", {"method": "grid", "grid": {"tau2": []}}, "tuning.grid.tau2"),
            ("tuning", {"method": "grid", "grid": {"tau2": [0.1, -1]}}, "tuning.grid.tau2[1]"),
            # model.tau2 is where a search starts; there is no second key for it
            ("tuning", {"method": "gradient", "tau2_init": 0.1}, "tuning.tau2_init"),
            ("model.tau2", -1, "model.tau2"),
            ("model.fitc", {"p": 0}, "model.fitc.p"),
            ("model.task_kernel", "matern", "model.task_kernel"),
            ("fanzhang", {"cv_folds": 0}, "fanzhang.cv_folds"),
            ("fanzhang", {"bandwidths": []}, "fanzhang.bandwidths"),
            ("dataset.synth.seed", -1, "dataset.synth.seed"),
            ("dataset.synth.n", 0, "dataset.synth.n"),
            ("budget_seconds", -1, "budget_seconds"),
            # a misspelled key would otherwise run with its default: unbudgeted, untuned
            ("budget_secnds", 1e-9, "budget_secnds"),
            ("tunning", {"method": "grid", "grid": {"tau2": [0.1]}}, "tunning"),
            ("model.tua2", 0.1, "model.tua2"),
            ("model.fitc", {"p": 20, "sead": 0}, "model.fitc.sead"),
            ("tuning", {"method": "gradient", "n_restart": 2}, "tuning.n_restart"),
            ("fanzhang", {"ridge": [0.1]}, "fanzhang.ridge"),
            ("dataset.synth.tau", 0.1, "dataset.synth.tau"),
            ("split.kfold.kk", 2, "split.kfold.kk"),
            ("split", {"blocked": {"num_blocks": 4, "window": 2, "size": 1}},
             "split.blocked.size"),
            ("split.random", {"k": 2}, "split.random"),
            # a ridge may be 0 but not negative; it used to fail inside the fit
            ("fanzhang", {"ridges": [0.0, -1]}, "fanzhang.ridges[1]"),
            ("model.instance_matern", {"lengthscale": -1}, "model.instance_matern"),
            ("fanzhang", {"matern": {"nu": 0.7}}, "fanzhang.matern"),
            ("methods", [], "methods"),
            ("methods", None, "methods"),
            # one key per setting: there is no singular method key beside methods
            ("method", "bogus", "method"),
        ],
    )
    def test_malformed_section_names_its_key(
        self, tmp_path, capsys, monkeypatch, path, value, key
    ):
        cfg = yaml.safe_load(write_config(tmp_path)[0].read_text())
        *parents, last = path.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        if value is None:
            del section[last]
        else:
            section[last] = value
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(cfg))
        folds = []
        monkeypatch.setattr(experiments, "run_method", lambda *args: folds.append(args))
        assert main(["run", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err, err
        assert not folds  # checked before any fold runs

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # classifiers tune on a grid only
            (dict(problem="classification", tuning={"method": "gradient"}), "tuning.method"),
            # FITC tunes on its own evidence, which has no gradient here
            (dict(model={"fitc": {"p": 20}}, tuning={"method": "gradient"}), "tuning.method"),
            # kernel-local smoothing has no classifier
            (dict(problem="classification", methods=["vcgp-lin", "fanzhang-lin"]), "methods[1]"),
            (dict(tuning={"method": "grid", "grid": {"tau2": [0.1]}}, train_sizes=[1]),
             "train_sizes[0]"),
            # a search reads only its own keys: another method's key would be ignored
            (dict(tuning={"method": "gradient", "grid": {"tau2": [0.1]}}), "tuning.grid"),
            (dict(tuning={"method": "grid", "grid": {"tau2": [0.1]}, "n_restarts": 2}),
             "tuning.n_restarts"),
            (dict(tuning={"method": "grid", "grid": {"tau2": [0.1]}, "max_iter": 5}),
             "tuning.max_iter"),
            (dict(tuning={"method": "grid", "grid": {"tau2": [0.1]}, "grad_tol": 1e-6}),
             "tuning.grad_tol"),
        ],
    )
    def test_value_that_clashes_with_another_key_names_its_key(
        self, tmp_path, capsys, monkeypatch, overrides, key
    ):
        path, _ = write_config(tmp_path, **overrides)
        folds = []
        monkeypatch.setattr(experiments, "run_method", lambda *args: folds.append(args))
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err, err
        assert not folds  # checked before any fold runs

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("schema", {"target": "y", "numeric": 5}, "dataset.schema.numeric"),
            ("schema", {"numeric": ["a"]}, "dataset.schema.target"),
            ("policy", {"brackets": 5}, "dataset.policy.brackets"),
            ("policy", 5, "dataset.policy"),
            ("schema", {"target": "y", "numeric": ["a"], "task_id": ["t"]},
             "dataset.schema.task_id"),
            ("schema", {"target": "y", "numeric": [1], "task_coords": ["t"]},
             "dataset.schema.numeric[0]"),
            # "no" is a string, which would run as true
            ("policy", {"drop_missing": "no"}, "dataset.policy.drop_missing"),
            ("policy", {"standardize": "no"}, "dataset.policy.standardize"),
            ("policy", {"brackets": {"a": [1]}}, "dataset.policy.brackets.a"),
            ("policy", {"brackets": {"a": "ab"}}, "dataset.policy.brackets.a"),
            ("policy", {"brackets": {"a": [0, "x"]}}, "dataset.policy.brackets.a[1]"),
            ("policy", {"standardise": False}, "dataset.policy.standardise"),
            ("schema", {"target": "y", "numerics": ["a"], "task_coords": ["t"]},
             "dataset.schema.numerics"),
            # a bracket needs a column the schema loads as a number
            ("policy", {"brackets": {"b": [0, 1]}}, "dataset.policy.brackets.b"),
        ],
    )
    def test_malformed_csv_section_names_its_key(self, tmp_path, capsys, section, value, key):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("a,t,y\n" + "".join(f"{i},{i / 20},{i % 3}\n" for i in range(20)))
        dataset = {"csv": str(data_csv),
                   "schema": {"target": "y", "numeric": ["a"], "task_coords": ["t"]}}
        path, _ = write_config(tmp_path, dataset={**dataset, section: value}, train_sizes=[8])
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}'" in err, err

    @pytest.mark.parametrize("schema, column", [
        ({"target": "y", "task_coords": ["t"]}, "a"),  # in the CSV, not in the schema
        ({"target": "y", "categorical": ["a"], "task_coords": ["t"]}, "a"),
        ({"target": "y", "numeric": ["a"], "task_time": "d"}, "d"),
    ])
    def test_bracket_outside_the_numeric_schema_names_its_key(
        self, tmp_path, capsys, schema, column
    ):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("a,t,d,y\n" + "".join(
            f"{i},{i / 20},2020-01-{i + 1:02d},{i % 3}\n" for i in range(20)))
        dataset = {"csv": str(data_csv), "schema": schema,
                   "policy": {"brackets": {column: [0, 100]}}}
        path, _ = write_config(tmp_path, dataset=dataset, train_sizes=[8])
        assert main(["run", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'dataset.policy.brackets.{column}'" in err, err

    def test_classification_run(self, tmp_path):
        path, cfg = write_config(tmp_path, problem="classification", methods=["vcgp-lin"])
        assert main(["run", str(path)]) == EXIT_OK
        rows = read_rows(cfg["out"])
        assert {r["metric"] for r in rows} == {"zero_one"}
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


# Keys that the two malformed-config tables above set, each with a home in one
# valid toy config, and values that are wrong-typed, out of range or missing (None).
# tuning.n_restarts is the exception: the toy config's grid search does not read
# it, so any value of it must be named.
FUZZ_KEYS = (
    "seed", "out", "budget_seconds", "problem", "methods", "train_sizes", "split", "split.kfold",
    "split.kfold.k", "dataset", "dataset.synth.n", "dataset.synth.seed", "model", "model.tau2",
    "model.task_kernel", "model.instance_matern", "model.fitc", "model.fitc.p", "tuning",
    "tuning.method", "tuning.grid", "tuning.grid.tau2", "tuning.n_restarts", "fanzhang",
    "fanzhang.bandwidths", "fanzhang.cv_folds", "dataset.schema", "dataset.schema.target",
    "dataset.schema.numeric", "dataset.schema.task_id", "dataset.policy",
    "dataset.policy.brackets", "dataset.policy.drop_missing", "dataset.policy.standardize",
)
FUZZ_VALUES = (None, "x", -1, 0, 2.5, True, [], ["x"], [-1], {})


def fuzzed_config(tmp_path, key, value):
    """write_config's valid config with ``key`` set to ``value`` (None deletes it)."""
    extra = dict(
        tuning={"method": "grid", "grid": {"tau2": [0.05], "task.lengthscale": [0.2]}},
        fanzhang={"bandwidths": [0.3], "cv_folds": 3},
    )
    if key.startswith(("dataset.schema", "dataset.policy")):
        data_csv = tmp_path / "d.csv"
        data_csv.write_text("a,t,y\n" + "".join(f"{i},{i / 20},{i % 3}\n" for i in range(20)))
        extra.update(train_sizes=[8], dataset={
            "csv": str(data_csv), "schema": {"target": "y", "numeric": ["a"], "task_coords": ["t"]},
            "policy": {"brackets": {"y": [0, 100]}, "drop_missing": True, "standardize": True},
        })
    cfg = write_config(tmp_path, **extra)[1]
    cfg["model"]["fitc"] = {"p": 20, "seed": 0}
    *parents, last = key.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section.pop(last, None)
    if value is not None:
        section[last] = value
    path = tmp_path / "fuzzed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@settings(max_examples=50)
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES), typo=st.booleans())
def test_config_fuzz_runs_or_names_the_key(key, value, typo):
    if typo:  # set a misspelling of the key instead, next to the valid key
        key += key[-1]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        path = fuzzed_config(pathlib.Path(tmp), key, value)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path)])
    err = err.getvalue()
    # a message about a missing or bad key names it, or a key below it; a
    # misspelled key must not run with the default of the key it misspells
    named = code == EXIT_USAGE and err.startswith("error: ") and f"'{key}" in err
    assert named or (code == EXIT_OK and not (typo and value is not None)), (code, err)


class TestVerifyCommand:
    def test_prop2_passes(self, capsys):
        assert main(["verify", "prop2", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "100/100" in out

    def test_unknown_scope_is_usage_error(self):
        assert main(["verify", "nonsense"]) == EXIT_USAGE


class TestMetricsCommand:
    def test_mae_and_zero_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        with open(pred, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["y_true", "y_pred", "p1"])
            w.writerow([1.0, 2.0, 0.7])
            w.writerow([1.0, 3.0, 0.2])
        assert main(["metrics", str(pred)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mae=1.5" in out
        assert "zero_one=0.5" in out

    def test_separate_labels_file_and_mismatch(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("y_pred\n1.0\n2.0\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("y_true\n1.0\n")
        assert main(["metrics", str(pred), "--labels", str(labels)]) == EXIT_USAGE

    def test_no_prediction_column(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("y_true\n1.0\n")
        assert main(["metrics", str(pred)]) == EXIT_USAGE


class TestSynthCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert (
            main(["synth", "--n", "25", "--m", "2", "--d", "1", "--out", str(out)])
            == EXIT_OK
        )
        rows = read_rows(out)
        assert len(rows) == 25
        assert set(rows[0]) == {"x1", "x2", "t1", "y"}

    def test_tree_task_kernel_writes_task_ids(self, tmp_path):
        out = tmp_path / "tree.csv"
        kernel = "{type: tree, parent: {2: 1, 3: 1}, sigma: [1.0, 0.5, 0.5]}"
        argv = ["synth", "--n", "50", "--task-kernel", kernel, "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 50
        assert "task_id" in rows[0]
        assert {int(r["task_id"]) for r in rows} <= {1, 2, 3}

    @pytest.mark.parametrize("kernel", ["{type: linear}", "matern", "{lengthscale: 0.2}"])
    def test_bad_task_kernel_is_usage_error(self, tmp_path, capsys, kernel):
        argv = ["synth", "--n", "10", "--task-kernel", kernel, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert "kernel" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "kernel, message",
        [
            ("{type: tree, parent: {2: 1}}", "tree kernel needs the key 'sigma'"),
            ("{type: tree, parent: [1], sigma: [1.0, 0.5]}", "tree kernel key 'parent' must be"),
            ("{type: tree, parent: {2: 1}, sigma: 1.0}", "tree kernel key 'sigma' must be"),
            ("{type: laplacian, M: [[1.0]]}", "laplacian kernel needs the key 'R'"),
            ("{type: constant, value: null}", "constant kernel key 'value' must be a number"),
            ("{type: matern, lengthscale: [0.2, x]}", "matern kernel key 'lengthscale' must be"),
        ],
    )
    def test_task_kernel_errors_name_the_key(self, tmp_path, capsys, kernel, message):
        argv = ["synth", "--n", "10", "--task-kernel", kernel, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err


class TestSummarizeCommand:
    def test_aggregates(self, tmp_path, capsys):
        results = tmp_path / "r.csv"
        with open(results, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "n", "fold", "metric", "value", "wall_time_s", "seed"])
            w.writerow(["m", 10, 0, "mae", 1.0, 0.1, 1])
            w.writerow(["m", 10, 1, "mae", 3.0, 0.1, 2])
        assert main(["summarize", str(results)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2.0" in out


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["definitely-not-a-command"]) == EXIT_USAGE
