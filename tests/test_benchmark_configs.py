"""Each benchmark workload's config runs through ``vcgp run`` at toy size.

``benchmark/workloads.py`` writes a CSV and a config for every workload, and
the benchmark runs them with ``vcgp run``; a config-parsing or fit-signature
break would otherwise show only as a failed benchmark run.  Everything is
written under ``tmp_path``.
"""

import csv
import pathlib
import sys

import pytest

from vcgp.cli import EXIT_OK, main

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))
# the import leaves no bytecode cache in benchmark/
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402

sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_config_runs(tmp_path, name):
    wl = workloads.generate(name, 1, str(tmp_path), toy=True)
    out = tmp_path / "results.csv"
    assert main(["run", wl.config_path, "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one row per fold, training size and method
    cfg = wl.config
    expected = cfg["split"]["kfold"]["k"] * len(cfg["train_sizes"]) * len(cfg["methods"])
    assert len(rows) == expected
    assert all(r["method"] == cfg["methods"][0] for r in rows)
