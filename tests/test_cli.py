import csv

import numpy as np
import pytest
import yaml

from vcgp.cli import EXIT_BUDGET, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from vcgp.data_io import Preprocessor


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "out": str(tmp_path / "results.csv"),
        "problem": "regression",
        "method": "vcgp-mat",
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
            method="vcgp-lin",
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
            tmp_path, method="vcgp-lin", model={"task_kernel": {"type": "fixed_gram"}}
        )
        assert main(["run", str(path)]) == EXIT_USAGE
        assert "error: fixed_gram kernel needs the key 'gram'" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, method="nope")
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
            method="vcgp-lin",
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

    def test_classification_run(self, tmp_path):
        path, cfg = write_config(tmp_path, problem="classification", method="vcgp-lin")
        assert main(["run", str(path)]) == EXIT_OK
        rows = read_rows(cfg["out"])
        assert {r["metric"] for r in rows} == {"zero_one"}
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


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
