"""Versioned on-disk format for fitted models.

Layout of a model file:

  line 1   ASCII magic: ``VCGP-MODEL 1 <kind>`` with kind in
           {regressor, weight-space-regressor, classifier}
  line 2   JSON header: kernel spec, tau2, jitter, array shapes and task
           variant, in a fixed key order
  rest     the arrays named in the header, concatenated as row-major
           little-endian float64 (int64 for discrete task ids)

The header's ``arrays`` list fixes both the order and the shapes, so the
payload is self-describing and byte-deterministic.  A file whose arrays do
not fit together (n training rows, n x n factors, length-n vectors; for a
weight-space regressor an r x r factor and r weights, r = m times the task
factor's width) or that has bytes after the last array is rejected.
"""

from __future__ import annotations

import json

import numpy as np

from .gp_classify import FittedClassifier, LaplaceState
from .gp_core import Dataset, FittedRegressor
from .kernels import Constant, FixedGram, Laplacian, Linear, Tree, spec_from_dict, spec_to_dict

__all__ = ["save_model", "load_model"]

_MAGIC = "VCGP-MODEL 1"
_CHOL_ARRAYS = ("chol", "B_chol")
_ARRAY_NAMES = {
    "regressor": ("X", "T", "y", "chol", "alpha"),
    "weight-space-regressor": ("X", "T", "y", "task_factor", "chol", "weights", "alpha"),
    "classifier": ("X", "T", "y", "mode", "dual", "pi", "W", "B_chol"),
}


def _model_arrays(model) -> dict[str, np.ndarray]:
    common = {"X": model.data.X, "T": model.data.T, "y": model.data.y}
    if isinstance(model, FittedRegressor) and model.weights is not None:
        return {
            **common,
            "task_factor": model.task_factor,
            "chol": model.chol,
            "weights": model.weights,
            "alpha": model.alpha,
        }
    if isinstance(model, FittedRegressor):
        return {**common, "chol": model.chol, "alpha": model.alpha}
    if isinstance(model, FittedClassifier):
        s = model.state
        return {
            **common,
            "mode": s.mode,
            "dual": s.dual,
            "pi": s.pi,
            "W": s.W,
            "B_chol": s.B_chol,
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def save_model(model, path) -> None:
    """Write a fitted regressor or classifier to ``path``."""
    if isinstance(model, FittedRegressor):
        kind = "regressor" if model.weights is None else "weight-space-regressor"
        extra = {}
    elif isinstance(model, FittedClassifier):
        kind = "classifier"
        extra = {"log_lik": model.state.log_lik, "iterations": model.state.iterations}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    arrays = _model_arrays(model)
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
    if kind == "weight-space-regressor":
        _check_task_factor(arrays["task_factor"], spec)
    if kind != "classifier":
        return FittedRegressor(
            spec=spec,
            tau2=header["tau2"],
            data=data,
            chol=arrays["chol"],
            alpha=arrays["alpha"],
            jitter=header["jitter"],
            task_factor=arrays.get("task_factor"),
            weights=arrays.get("weights"),
        )
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
        spec=spec, tau2=header["tau2"], data=data, state=state, jitter=header["jitter"]
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
