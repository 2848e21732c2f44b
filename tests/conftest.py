"""Test-suite settings shared by every test module."""

import os

# single-threaded BLAS unless the environment says otherwise: the suite's
# many small factorizations run faster without threads.  Set before anything
# imports numpy, which reads them once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest
from hypothesis import settings

from vcgp import kernels

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow or busy host cannot turn them red.
settings.register_profile("vcgp", derandomize=True, deadline=None)
settings.load_profile("vcgp")


@pytest.fixture
def gram_builds(monkeypatch):
    """Counts of ``kernels.instance_gram`` and ``kernels.task_gram`` calls from now on."""
    counts = {"instance_gram": 0, "task_gram": 0}
    for name in counts:
        def counting(*args, _name=name, _build=getattr(kernels, name)):
            counts[_name] += 1
            return _build(*args)

        monkeypatch.setattr(kernels, name, counting)
    return counts
