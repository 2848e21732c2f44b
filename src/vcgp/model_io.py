"""Versioned on-disk format for fitted models.

Layout of a model file:

  line 1   ASCII magic: ``VCGP-MODEL 1 <kind>`` with kind in
           {regressor, weight-space-regressor, classifier}
  line 2   JSON header: kernel spec, tau2, jitter, array shapes and task
           variant (and a classifier's log-likelihood and Newton
           iterations), in a fixed key order
  rest     the arrays named in the header, concatenated as row-major
           little-endian float64 (int64 for discrete task ids)

The header's ``arrays`` list fixes both the order and the shapes, so the
payload is self-describing and byte-deterministic.  A file whose arrays do
not fit together (n training rows, n x n factors, length-n vectors; for a
weight-space regressor an r x r factor and r weights, r = m times the task
factor's width), whose header lacks a field or holds an invalid value, or
that has bytes after the last array is rejected.  The file kind follows
from the model's class and basis; FITC models have none and are not saved.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .gp_classify import FittedClassifier, LaplaceState
from .gp_core import Dataset, DenseBasis, FittedRegressor, WeightBasis
from .kernels import Constant, FixedGram, Laplacian, Linear, Tree, spec_from_dict, spec_to_dict

__all__ = ["save_model", "load_model"]

_MAGIC = "VCGP-MODEL 1"
_CHOL_ARRAYS = ("chol", "B_chol")
_ARRAY_NAMES = {
    "regressor": ("X", "T", "y", "chol", "alpha"),
    "weight-space-regressor": ("X", "T", "y", "task_factor", "chol", "weights", "alpha"),
    "classifier": ("X", "T", "y", "mode", "dual", "pi", "W", "B_chol"),
}
# the file kind of each (model class, basis) pair that has one; FITC models have none
_KINDS = {
    (FittedRegressor, DenseBasis): "regressor",
    (FittedRegressor, WeightBasis): "weight-space-regressor",
    (FittedClassifier, DenseBasis): "classifier",
}


def _model_array(model, name: str) -> np.ndarray:
    if name in ("X", "T", "y"):
        return getattr(model.data, name)
    if name == "task_factor":
        return model.basis.C
    return getattr(model.state if isinstance(model, FittedClassifier) else model, name)


def save_model(model, path) -> None:
    """Write a fitted regressor or classifier to ``path``.

    Raises ``TypeError`` for anything else, FITC models included.
    """
    basis = getattr(model, "basis", None)
    kind = _KINDS.get((type(model), type(basis)))
    if kind is None:
        what = type(model).__name__
        if basis is not None:
            what += f" with {type(basis).__name__}"
        raise TypeError(f"cannot serialize model of type {what}")
    extra = {}
    if kind == "classifier":
        extra = {"log_lik": model.state.log_lik, "iterations": model.state.iterations}
    arrays = {name: _model_array(model, name) for name in _ARRAY_NAMES[kind]}
    header = {
        "spec": spec_to_dict(model.spec),
        "tau2": model.tau2,
        "jitter": model.jitter,
        "discrete_tasks": model.data.has_discrete_tasks,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        **extra,
    }
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {kind}\n".encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for name, arr in arrays.items():
            dtype = "<i8" if name == "T" and arr.dtype.kind == "i" else "<f8"
            fh.write(np.ascontiguousarray(arr).astype(dtype).tobytes())


def load_model(path):
    """Read a model written by :func:`save_model`."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode().strip()
        if not magic.startswith(_MAGIC):
            raise ValueError(f"not a model file (bad magic line {magic!r})")
        kind = magic[len(_MAGIC) :].strip()
        if kind not in _ARRAY_NAMES:
            raise ValueError(f"unknown model kind {kind!r}")
        header = json.loads(fh.readline().decode())
        _check_header(header, kind)
        names = [name for name, _ in header["arrays"]]
        if sorted(names) != sorted(_ARRAY_NAMES[kind]):
            raise ValueError(f"a {kind} file holds arrays {_ARRAY_NAMES[kind]}, this one {names}")
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            if name == "T" and header["discrete_tasks"]:
                dtype = np.dtype("<i8")
            else:
                dtype = np.dtype("<f8")
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise ValueError(f"model file truncated while reading array {name!r}")
            # Cholesky factors come back in the Fortran layout LAPACK gives the
            # fitted model: triangular solves round differently per layout
            order = "F" if name in _CHOL_ARRAYS else "C"
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy(order=order)
        if fh.read(1):
            raise ValueError("model file has trailing bytes after its last array")
    _check_shapes(arrays, header["discrete_tasks"])

    spec = spec_from_dict(header["spec"])
    data = Dataset(X=arrays["X"], T=arrays["T"], y=arrays["y"])
    if kind == "classifier":
        state = LaplaceState(
            mode=arrays["mode"],
            dual=arrays["dual"],
            pi=arrays["pi"],
            W=arrays["W"],
            B_chol=arrays["B_chol"],
            half_logdet_B=float(np.sum(np.log(np.diag(arrays["B_chol"])))),
            log_lik=header["log_lik"],
            iterations=header["iterations"],
        )
        return FittedClassifier(
            spec=spec, tau2=header["tau2"], data=data, state=state, weights=state.dual,
            jitter=header["jitter"],
        )
    basis = DenseBasis()
    if kind == "weight-space-regressor":
        _check_task_factor(arrays["task_factor"], spec)
        basis = WeightBasis(arrays["task_factor"])
    return FittedRegressor(
        spec=spec,
        tau2=header["tau2"],
        data=data,
        chol=arrays["chol"],
        alpha=arrays["alpha"],
        weights=arrays.get("weights", arrays["alpha"]),
        jitter=header["jitter"],
        basis=basis,
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and -math.inf < v < math.inf


def _is_array_list(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(a, list) and len(a) == 2 and isinstance(a[0], str)
        and isinstance(a[1], list) and all(_is_int(d) and d >= 0 for d in a[1])
        for a in v
    )


# header field -> (test, what the field must be); the spec's content is
# checked by spec_from_dict
_HEADER_CHECKS = {
    "spec": (lambda v: isinstance(v, dict), "an object"),
    "tau2": (lambda v: _is_finite(v) and v > 0, "a finite number > 0"),
    "jitter": (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0"),
    "discrete_tasks": (lambda v: isinstance(v, bool), "true or false"),
    "arrays": (_is_array_list, "a list of [name, shape] pairs"),
}
_CLASSIFIER_HEADER_CHECKS = {
    "log_lik": (_is_finite, "a finite number"),
    "iterations": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
}


def _check_header(header, kind: str) -> None:
    """Raise ``ValueError`` naming the first header field that is missing or invalid."""
    if not isinstance(header, dict):
        raise ValueError(f"model file header must be a JSON object, not {type(header).__name__}")
    checks = _HEADER_CHECKS | (_CLASSIFIER_HEADER_CHECKS if kind == "classifier" else {})
    for field, (ok, want) in checks.items():
        if field not in header:
            raise ValueError(f"model file header lacks the field {field!r}")
        if not ok(header[field]):
            raise ValueError(
                f"model file header field {field!r} must be {want}, got {header[field]!r}"
            )


def _check_shapes(arrays: dict[str, np.ndarray], discrete_tasks: bool) -> None:
    """Raise ``ValueError`` unless the arrays describe one model over X's n rows."""
    X = arrays["X"]
    if X.ndim != 2:
        raise ValueError(f"model file array 'X' has shape {X.shape}, expected (n, m)")
    n = X.shape[0]
    # the factor and weights are n-sized, or r-sized in weight space
    size = n
    if "task_factor" in arrays:
        if arrays["task_factor"].ndim != 2:
            raise ValueError(
                f"model file array 'task_factor' has shape {arrays['task_factor'].shape}, "
                "expected (k, q)"
            )
        size = X.shape[1] * arrays["task_factor"].shape[1]
    for name, arr in arrays.items():
        if name == "task_factor":
            continue
        if name == "X" or (name == "T" and not discrete_tasks):
            ok = arr.ndim == 2 and arr.shape[0] == n
            want = f"({n}, *)"
        elif name in _CHOL_ARRAYS:
            ok = arr.shape == (size, size)
            want = f"({size}, {size})"
        elif name == "weights":
            ok = arr.shape == (size,)
            want = f"({size},)"
        else:
            ok = arr.shape == (n,)
            want = f"({n},)"
        if not ok:
            raise ValueError(f"model file array {name!r} has shape {arr.shape}, expected {want}")


def _check_task_factor(C: np.ndarray, spec) -> None:
    """Raise ``ValueError`` unless ``C`` can be the weight-space factor of ``spec``'s task Gram."""
    task = spec.task_kernel
    if not isinstance(spec.instance_kernel, Linear) or not isinstance(
        task, (Constant, Tree, Laplacian, FixedGram)
    ):
        raise ValueError(
            f"a weight-space regressor needs a linear instance kernel and a constant or "
            f"discrete task kernel, not {spec}"
        )
    k = 1 if isinstance(task, Constant) else task.gram.shape[0]
    if C.shape[0] != k:
        raise ValueError(f"model file array 'task_factor' has {C.shape[0]} rows, expected {k}")
