import math
import pathlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import yaml

from vcgp import experiments, gp_classify, gp_core, sparse_fitc
from vcgp.data_io import synth_vcm, threshold_labels
from vcgp.experiments import (
    classify_probabilities,
    derive_seed,
    mae,
    parse_config,
    run_method,
    run_settings,
    summarize_rows,
    zero_one_loss,
)
from vcgp.gp_core import Dataset
from vcgp.kernels import KernelSpec, Matern


class TestDeriveSeed:
    def test_deterministic_and_key_sensitive(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestMetrics:
    def test_perfect_predictions(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert zero_one_loss([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_mae_arithmetic(self):
        assert mae([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_zero_one_with_thresholded_probabilities(self):
        classes = classify_probabilities([0.7, 0.2])
        np.testing.assert_array_equal(classes, [1.0, 0.0])
        assert zero_one_loss(classes, [1.0, 1.0]) == pytest.approx(0.5)

    def test_threshold_ties_go_to_class_one(self):
        np.testing.assert_array_equal(classify_probabilities([0.5]), [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            zero_one_loss([1.0], [1.0, 0.0])


class TestRunMethod:
    def make_splits(self, problem, seed=0):
        res = synth_vcm(260, m=2, d=1, task_kernel=Matern(lengthscale=0.2), tau2=0.05, seed=seed)
        ds = res.dataset
        if problem == "classification":
            ds = Dataset(X=ds.X, T=ds.T, y=threshold_labels(ds.y))
        return ds.subset(np.arange(60)), ds.subset(np.arange(60, 260))

    def test_unknown_method(self):
        train, test = self.make_splits("regression")
        with pytest.raises(ValueError, match="unknown method"):
            run_method("magic", train, test, run_settings({}), seed=0)

    def test_fanzhang_classification_unsupported(self):
        train, test = self.make_splits("classification")
        with pytest.raises(ValueError, match="unsupported"):
            run_method(
                "fanzhang-lin", train, test, run_settings({"problem": "classification"}), seed=0
            )

    def test_every_regression_method_runs(self):
        train, test = self.make_splits("regression")
        settings = run_settings({
            "problem": "regression",
            "model": {"task_kernel": {"type": "matern", "lengthscale": 0.2}, "tau2": 0.05},
            "fanzhang": {"bandwidths": [0.1, 0.5], "ridges": [1e-3], "cv_folds": 3},
        })
        for method in ("vcgp-lin", "vcgp-mat", "iid-lin", "iid-mat",
                       "concat-lin", "concat-mat", "fanzhang-lin", "fanzhang-mat"):
            value = run_method(method, train, test, settings, seed=1)
            assert np.isfinite(value), method

    def test_classification_methods_run(self):
        train, test = self.make_splits("classification")
        settings = run_settings({
            "problem": "classification",
            "model": {"task_kernel": {"type": "matern", "lengthscale": 0.2}, "tau2": 0.05},
        })
        for method in ("vcgp-lin", "iid-mat", "concat-lin"):
            value = run_method(method, train, test, settings, seed=2)
            assert 0.0 <= value <= 1.0

    def test_fitc_setting_is_used(self):
        train, test = self.make_splits("regression")
        settings = run_settings({
            "problem": "regression",
            "model": {"task_kernel": {"type": "matern", "lengthscale": 0.2}, "tau2": 0.05,
                      "fitc": {"p": 20, "seed": 1}},
        })
        value = run_method("vcgp-mat", train, test, settings, seed=3)
        assert np.isfinite(value)

    GRID = {"task.lengthscale": [0.2, 0.5], "tau2": [0.05, 0.5]}

    @pytest.mark.parametrize(
        "problem, method, fitc, tuning, fits",
        [
            ("regression", "vcgp-mat", None, {"method": "grid", "grid": GRID},
             {"fit_regressor": 4}),
            ("classification", "vcgp-lin", None,
             {"method": "grid", "grid": {"tau2": [0.05, 0.5, 2.0]}}, {"fit_classifier": 3}),
            ("regression", "vcgp-lin", None,
             {"method": "gradient", "n_restarts": 2, "max_iter": 5}, {"fit_regressor": 1}),
            # FITC tunes on its own evidence: no exact fit, and no refit
            ("regression", "vcgp-mat", {"p": 20}, {"method": "grid", "grid": GRID},
             {"fit_fitc": 4}),
            # its winner, the third candidate, started Newton from the second's
            # dual, so the grid fits it once more from zero
            ("classification", "vcgp-mat", {"p": 20}, {"method": "grid", "grid": GRID},
             {"fit_fitc_classifier": 5}),
            ("regression", "vcgp-mat", {"p": 20}, {"method": "none"}, {"fit_fitc": 1}),
        ],
        ids=["grid-regression", "grid-classification", "gradient-regression",
             "fitc-grid-regression", "fitc-grid-classification", "fitc-untuned"],
    )
    def test_tuned_fold_fits_each_candidate_once_and_never_refits(
        self, monkeypatch, problem, method, fitc, tuning, fits
    ):
        calls = []
        for module, name in ((gp_core, "fit_regressor"), (gp_classify, "fit_classifier"),
                             (sparse_fitc, "fit_fitc"), (sparse_fitc, "fit_fitc_classifier")):
            def counted(*args, _fit=getattr(module, name), **kwargs):
                calls.append(_fit.__name__)
                return _fit(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        train, test = self.make_splits(problem)
        model = {"task_kernel": {"type": "matern"}} | ({"fitc": fitc} if fitc else {})
        settings = run_settings({"problem": problem, "model": model, "tuning": tuning})
        run_method(method, train, test, settings, seed=4)
        assert Counter(calls) == fits

    @pytest.mark.parametrize("problem", ["regression", "classification"])
    def test_fitc_with_every_point_inducing_picks_the_exact_grids_choice(
        self, monkeypatch, problem
    ):
        chosen = []
        for module in (gp_core, gp_classify):  # gp_classify binds _tune_grid by name
            def spied(*args, _tune=module._tune_grid):
                model = _tune(*args)
                chosen.append((model.spec, model.tau2))
                return model

            monkeypatch.setattr(module, "_tune_grid", spied)
        train, test = self.make_splits(problem)
        config = {"problem": problem, "model": {"task_kernel": {"type": "matern"}},
                  "tuning": {"method": "grid", "grid": self.GRID}}
        run_method("vcgp-mat", train, test, run_settings(config), seed=4)
        config["model"]["fitc"] = {"p": train.n}
        run_method("vcgp-mat", train, test, run_settings(config), seed=4)
        assert len(chosen) == 2 and chosen[0] == chosen[1]

    def test_fitc_classification_grid_returns_a_fresh_fits_model(self, monkeypatch):
        # the grid warm-starts its FITC candidates as the exact classifier's
        # and refits the winner from zero
        models, starts = [], []

        def spied(*args, _tune=gp_core._tune_grid):
            models.append(_tune(*args))
            return models[-1]

        def mode(cov, y, context="covariance", dual=None, _mode=gp_classify.laplace_mode):
            starts.append(dual is not None)
            return _mode(cov, y, context, dual)

        monkeypatch.setattr(gp_core, "_tune_grid", spied)
        monkeypatch.setattr(gp_classify, "laplace_mode", mode)
        train, test = self.make_splits("classification")
        settings = run_settings({"problem": "classification",
                                 "model": {"task_kernel": {"type": "matern"}, "fitc": {"p": 20}},
                                 "tuning": {"method": "grid", "grid": self.GRID}})
        run_method("vcgp-mat", train, test, settings, seed=4)
        monkeypatch.undo()
        (model,) = models
        assert starts == [False, True, True, True, False]
        template = KernelSpec(settings.instance_kernel, settings.task_kernel)
        first = gp_core.grid_candidates(template, settings.search.tau2_init, self.GRID)[0]
        assert (model.spec, model.tau2) != first
        inducing = sparse_fitc.InducingSet(model.basis.inducing_X, model.basis.inducing_T)
        fresh = sparse_fitc.fit_fitc_classifier(model.data, model.spec, model.tau2, inducing)
        for name in ("mode", "dual", "W", "B_chol"):
            assert np.array_equal(getattr(model.state, name), getattr(fresh.state, name)), name
        assert model.log_marginal_likelihood() == fresh.log_marginal_likelihood()
        assert np.array_equal(model.predict_proba_batch(test.X, test.T),
                              fresh.predict_proba_batch(test.X, test.T))

    def test_fitc_grid_fold_allocates_no_n_by_n_array(self):
        # test_sparse_fitc.py's test_fit_allocates_no_n_by_n_array, through a tuned fold
        n, p = 3000, 50
        rng = np.random.default_rng(19)
        data = Dataset(X=rng.standard_normal((n + 10, 2)), T=rng.uniform(0, 1, (n + 10, 1)),
                       y=rng.standard_normal(n + 10))
        train, test = data.subset(np.arange(n)), data.subset(np.arange(n, n + 10))
        settings = run_settings({"model": {"fitc": {"p": p}},
                                 "tuning": {"method": "grid", "grid": self.GRID}})
        tracemalloc.start()
        try:
            run_method("vcgp-mat", train, test, settings, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

class TestSummarize:
    def test_mean_and_stderr(self):
        rows = [
            {"method": "m", "n": 10, "metric": "mae", "value": 1.0},
            {"method": "m", "n": 10, "metric": "mae", "value": 3.0},
        ]
        out = summarize_rows(rows)
        assert len(out) == 1
        assert out[0]["mean"] == pytest.approx(2.0)
        assert out[0]["stderr"] == pytest.approx(1.0)
        assert out[0]["folds"] == 2


def test_readme_example_config_parses(tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
    # every schema column of the example, as a CSV header; parse_config reads only that
    data_csv = tmp_path / "sales.csv"
    data_csv.write_text("price,floor_space,land_area,kind,lat,lon,sale_date\n")
    cfg["dataset"]["csv"] = str(data_csv)
    config = parse_config(cfg)
    assert config.methods == ("vcgp-mat", "iid-mat") and config.blocked == (25, 5)
    assert config.settings.fanzhang["ridges"] == [1e-6, 1e-3, 1e-1]


def test_readme_config_block_documents_every_key():
    # a key that the parser takes and the README's config reference does not name fails here
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Experiment config"):readme.index("## Library quick start")]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    tops = [(m.group(1), m.start()) for m in re.finditer(r"^(\w+):", block, re.M)]
    spans = {key: block[start:end] for (key, start), (_, end) in zip(tops, [*tops[1:], ("", None)])}
    # a top-level key starts a line; a section's key is named within its top-level entry
    missing = [key for key in experiments._SECTION_KEYS[""] if key not in spans]
    for name, keys in experiments._SECTION_KEYS.items():
        if name:
            text = spans.get(name.split(".")[0], "")
            missing += [f"{name}.{key}" for key in keys if not re.search(rf"(?<![\w.]){key}(:| \()", text)]
    assert missing == []


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    # a stale name in the library quick start fails here
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    monkeypatch.chdir(tmp_path)  # the example writes model.bin
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), {})
    # a zero instance vector under a linear kernel: mean 0, variance the noise alone
    assert capsys.readouterr().out == "0.0 0.1\n"
    assert (tmp_path / "model.bin").stat().st_size > 0


def test_empty_fitc_section_is_fitc_with_the_defaults():
    assert run_settings({"model": {"fitc": {}}}).fitc == (1000, 0)
    assert run_settings({"model": {}}).fitc is None


def test_zero_ridge_is_accepted():
    assert run_settings({"fanzhang": {"ridges": [0, 0.1]}}).fanzhang["ridges"] == [0.0, 0.1]


def test_infinite_budget_is_accepted():
    # an infinite budget never runs out; every other number must be finite
    cfg = {"methods": ["iid-lin"], "dataset": {"synth": {"n": 20}}, "split": {"kfold": {"k": 2}},
           "train_sizes": [5], "budget_seconds": math.inf}
    assert parse_config(cfg).budget_seconds == math.inf


def test_zero_synthetic_noise_draws_noise_free_data():
    # tau2 = 0 stays valid; a negative one exits naming the key (test_cli.py)
    cfg = {"methods": ["iid-lin"], "dataset": {"synth": {"n": 20, "tau2": 0}},
           "split": {"kfold": {"k": 2}}, "train_sizes": [5]}
    synth = parse_config(cfg).synth
    assert synth["tau2"] == 0.0
    res = synth_vcm(**synth)
    f = np.einsum("ij,ij->i", res.dataset.X, res.W)
    np.testing.assert_allclose(res.dataset.y, f, rtol=0, atol=1e-12)
