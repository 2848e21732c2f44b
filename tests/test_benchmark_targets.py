"""The benchmark tracer's targets must name functions the package still has.

``benchmark/layertrace.py`` looks each target up by attribute when it wraps
the program, so a renamed or deleted function would otherwise show only when
a traced benchmark run fails.  This test imports the tracer and resolves its
targets; it wraps and runs nothing.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "layertrace.py"


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
