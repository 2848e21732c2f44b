"""The benchmark's tracer targets and worker calls must name what the package still has.

``benchmark/layertrace.py`` looks each target up by attribute when it wraps
the program, and ``benchmark/worker.py`` calls package functions by name, so
a renamed or deleted function would otherwise show only when a benchmark run
fails.  These tests import the tracer and read the worker's source; they
wrap and run nothing.
"""

import ast
import importlib
import importlib.util
import pathlib

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
