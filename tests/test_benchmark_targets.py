"""The benchmark's tracer targets and worker calls must name what the package still has.

``benchmark/layertrace.py`` looks each target up by attribute when it wraps
the program, and ``benchmark/worker.py`` calls package functions by name, so
a renamed or deleted function would otherwise show only when a benchmark run
fails.  These tests import the tracer and read the worker's source; they
wrap and run nothing, but for one ``vcgp run`` in a subprocess that shows
what the tracer sees of a FITC grid.
"""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"
LAYERTRACE = BENCHMARK / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, span", _load_layertrace().TARGETS)
def test_target_resolves(module_name, attr, span):
    obj = importlib.import_module(f"vcgp.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), span


def _worker_names():
    """``(module, attr)`` for each ``<module>.<attr>`` the worker reads off a vcgp module.

    The modules are the worker's ``import vcgp`` and ``from vcgp import ...``
    names; ``module`` is "" for the package itself.
    """
    tree = ast.parse((BENCHMARK / "worker.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: "" for a in node.names if a.name == "vcgp"})
        elif isinstance(node, ast.ImportFrom) and node.module == "vcgp":
            modules.update({a.asname or a.name: a.name for a in node.names})
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


WORKER_NAMES = _worker_names()


def test_worker_names_are_found():
    # the fits, data and model-file calls a benchmark round makes
    for name in [("sparse_fitc", "select_inducing"), ("sparse_fitc", "fit_fitc_classifier"),
                 ("gp_classify", "fit_classifier"), ("gp_core", "fit_regressor"),
                 ("gp_core", "Dataset"), ("", "save_model"), ("", "load_model")]:
        assert name in WORKER_NAMES


@pytest.mark.parametrize("module_name, attr", WORKER_NAMES)
def test_worker_name_resolves(module_name, attr):
    module = importlib.import_module("vcgp" + (f".{module_name}" if module_name else ""))
    assert hasattr(module, attr)


# a toy FITC classification grid under the tracer, in a fresh interpreter
# that writes no bytecode next to the benchmark's sources
_FITC_GRID_RUN = """
import json, sys
import layertrace, workloads
from vcgp import cli

tmp = sys.argv[1]
tracer = layertrace.install()
wl = workloads.generate("cls-grid", 1, tmp, toy=True)
config = dict(wl.config, model=dict(wl.config["model"], fitc={"p": 20}))
with open(tmp + "/fitc.json", "w") as fh:
    json.dump(config, fh)
rc = cli.main(["run", tmp + "/fitc.json", "--out", tmp + "/results.csv"])
grid = config["tuning"]["grid"]
print(json.dumps({"rc": rc, "folds": config["split"]["kfold"]["k"],
                  "grid_size": len(grid["task.lengthscale"]) * len(grid["tau2"]),
                  "metrics": tracer.metrics()}))
"""


def test_tracer_counts_fitc_grid_tuning(tmp_path):
    # FITC tuning goes through the public classifier tuner, so the tracer
    # counts one tuner call per fold and each grid candidate under it
    src = BENCHMARK.parent / "src"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(BENCHMARK)]))
    out = subprocess.run([sys.executable, "-c", _FITC_GRID_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    run = json.loads(out.stdout.splitlines()[-1])
    assert run["rc"] == 0
    metrics, folds = run["metrics"], run["folds"]
    assert metrics["gp_classify.tune_classifier_hyperparameters.calls"] == folds
    assert metrics["gp_classify.tune.candidates"] >= folds * run["grid_size"]
