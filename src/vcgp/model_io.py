"""Versioned on-disk format for fitted models.

Layout of a model file:

  line 1   ASCII magic: ``VCGP-MODEL 1 <kind>``, the kind being the
           basis's tag followed by the likelihood: ``regressor``,
           ``tree-precision-regressor``, ``weight-space-woodbury-regressor``,
           ``fitc-regressor``, ``classifier``, ``tree-precision-classifier``,
           ``weight-space-woodbury-classifier`` or ``fitc-classifier``
  line 2   JSON header: kernel spec, tau2, jitter, array shapes and task
           variant (and a classifier's log-likelihood and Newton
           iterations), in a fixed key order
  rest     the arrays named in the header, concatenated as row-major
           little-endian float64 (int64 for the task ids of discrete tasks,
           in the arrays named ``T`` or ending in ``_T``)

A model's arrays come from its three parts, in its likelihood's order:

  regressor    X, T, y, <basis>, chol, weights, alpha
  classifier   X, T, y, mode, dual, pi, W, B_chol, <basis>, weights

``<basis>`` is the basis's own arrays (``file_names`` on it): none for a
dense or tree-precision model, ``task_factor`` in weight space,
``inducing_X``, ``inducing_T``, ``Luu`` and FITC's diagonal ``lam`` for
FITC.  A dense model writes no ``weights``: they are its ``alpha`` or dual.
A tree-precision model's factor is a k x 2 x m x m stack of each node's
pivot factor and posterior covariance (:class:`gp_core.TreeBasis`).

The header's ``arrays`` list fixes both the order and the shapes, so the
payload is self-describing and byte-deterministic.  A file whose arrays do
not fit together (n training rows; n-vectors, and the factor and weights
of the shapes the basis gives; the basis's arrays of the shapes it
checks), whose discrete task ids lie outside the task kernel's 1..k, that
holds a NaN or inf in any float array, whose header lacks a field or holds
an invalid value, whose header shapes need more bytes than the file holds,
or that has bytes after the last array is rejected.

A low-rank model's covariance is ``V^T V + lam I``, ``lam = tau2 +
jitter`` in weight space (:class:`gp_core.LowRankDiag`): a regressor's
``chol`` factorizes ``I + V V^T / lam``, a classifier's ``B_chol`` is its
p x p Newton factor.  Files of the older kind ``weight-space-regressor``
hold the factor of ``V V^T + lam I``; they load through the exact
rescaling ``chol / sqrt(lam)`` and are never written.  ``classifier`` files
of weight-space specs, written before classifiers had that route, load as
dense models.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .gp_classify import FittedClassifier, LaplaceState
from .gp_core import Dataset, DenseBasis, FittedRegressor, TreeBasis, WeightSpaceBasis
from .gp_core import _check_file_shapes
from .kernels import check_tasks, spec_from_dict, spec_to_dict
from .sparse_fitc import FITCBasis

__all__ = ["save_model", "load_model"]

_MAGIC = "VCGP-MODEL 1"
_CHOL_ARRAYS = ("chol", "B_chol")
_LIKELIHOODS = {FittedRegressor: "regressor", FittedClassifier: "classifier"}
_BASES = {basis.tag: basis for basis in (DenseBasis, TreeBasis, WeightSpaceBasis, FITCBasis)}
_OLD_WEIGHT_SPACE = "weight-space-regressor"  # read only: chol factorizes V V^T + lam I


def _array_names(likelihood: str, basis) -> tuple[str, ...]:
    """A file's arrays, in order, for a likelihood and a basis class; weights unless dense."""
    weights = ("weights",) if basis.tag else ()
    own = basis.file_names
    if likelihood == "regressor":
        return ("X", "T", "y", *own, "chol", *weights, "alpha")
    return ("X", "T", "y", "mode", "dual", "pi", "W", "B_chol", *own, *weights)


def save_model(model, path) -> None:
    """Write a fitted regressor or classifier to ``path``; ``TypeError`` for anything else."""
    likelihood = _LIKELIHOODS.get(type(model))
    if likelihood is None:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    basis = model.basis
    parts = {"X": model.data.X, "T": model.data.T, "y": model.data.y, "weights": model.weights}
    parts |= {name: getattr(basis, name) for name in basis.file_names}
    own = model.state if likelihood == "classifier" else model  # the likelihood's arrays
    arrays = {name: parts[name] if name in parts else getattr(own, name)
              for name in _array_names(likelihood, basis)}
    extra = {}
    if likelihood == "classifier":
        extra = {"log_lik": model.state.log_lik, "iterations": model.state.iterations}
    header = {
        "spec": spec_to_dict(model.spec),
        "tau2": model.tau2,
        "jitter": model.jitter,
        "discrete_tasks": model.data.has_discrete_tasks,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
        **extra,
    }
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {basis.tag}{likelihood}\n".encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for arr in arrays.values():
            dtype = "<i8" if arr.dtype.kind == "i" else "<f8"  # only task ids are integers
            fh.write(np.ascontiguousarray(arr).astype(dtype).tobytes())


def _kind_parts(kind: str):
    """``(basis class, likelihood)`` of a file kind; ``ValueError`` for an unknown kind."""
    if kind == _OLD_WEIGHT_SPACE:
        return WeightSpaceBasis, "regressor"
    for likelihood in _LIKELIHOODS.values():
        tag = kind.removesuffix(likelihood)
        if tag != kind and tag in _BASES:
            return _BASES[tag], likelihood
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path):
    """Read a model written by :func:`save_model`."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode().strip()
        if not magic.startswith(_MAGIC):
            raise ValueError(f"not a model file (bad magic line {magic!r})")
        kind = magic[len(_MAGIC) :].strip()
        basis_type, likelihood = _kind_parts(kind)
        header = json.loads(fh.readline().decode())
        _check_header(header, likelihood)
        names = [name for name, _ in header["arrays"]]
        expected = _array_names(likelihood, basis_type)
        if sorted(names) != sorted(expected):
            raise ValueError(f"a {kind} file holds arrays {expected}, this one {names}")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        arrays = {}
        for name, shape in header["arrays"]:
            discrete = header["discrete_tasks"] and (name == "T" or name.endswith("_T"))
            dtype = np.dtype("<i8" if discrete else "<f8")
            size = math.prod(shape) * dtype.itemsize  # a Python int: a huge shape cannot wrap
            if size > left:
                raise ValueError(f"model file truncated while reading array {name!r}")
            left -= size
            buf = fh.read(size)
            # Cholesky factors come back in the Fortran layout LAPACK gives the
            # fitted model: triangular solves round differently per layout
            order = "F" if name in _CHOL_ARRAYS else "C"
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy(order=order)
            # the solves trust a factor to be finite, so it is checked here once
            if dtype.kind == "f" and not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"model file array {name!r} has a non-finite entry")
        if fh.read(1):
            raise ValueError("model file has trailing bytes after its last array")

    _check_file_shapes(arrays, {"X": (None, None)})
    n = arrays["X"].shape[0]
    _check_file_shapes(arrays, {"X": (n, None), "T": (n,) if header["discrete_tasks"] else (n, None),
                                "y": (n,)})
    spec = spec_from_dict(header["spec"])
    if header["discrete_tasks"]:  # predictions only index with the training ids
        for name in ("T", *(name for name in expected if name.endswith("_T"))):
            try:
                check_tasks(spec.task_kernel, arrays[name], discrete=True)
            except ValueError as exc:
                raise ValueError(f"model file array {name!r}: {exc}") from None
    data = Dataset(X=arrays["X"], T=arrays["T"], y=arrays["y"])
    basis = basis_type.from_file(arrays, spec, data)
    factor, weights = basis.factor_shapes(data)
    _check_file_shapes(arrays, {
        name: factor if name in _CHOL_ARRAYS else weights if name == "weights" else (n,)
        for name in expected if name not in ("X", "T", "y", *basis.file_names)
    })
    common = dict(spec=spec, tau2=header["tau2"], data=data, jitter=header["jitter"], basis=basis)
    lam = header["tau2"] + header["jitter"]  # a weight-space covariance is V^T V + lam I
    if likelihood == "classifier":
        W, B = arrays["W"], arrays["B_chol"]
        state = LaplaceState(
            mode=arrays["mode"], dual=arrays["dual"], pi=arrays["pi"], W=W, B_chol=B,
            half_logdet_B=basis.half_logdet(B, n, lam, W),
            log_lik=header["log_lik"], iterations=header["iterations"],
        )
        return FittedClassifier(state=state, weights=arrays.get("weights", state.dual), **common)
    L = arrays["chol"]
    if kind == _OLD_WEIGHT_SPACE:
        L /= math.sqrt(lam)  # V V^T + lam I = lam (I + V V^T / lam)
    return FittedRegressor(
        chol=L, alpha=arrays["alpha"], weights=arrays.get("weights", arrays["alpha"]),
        half_logdet=basis.half_logdet(L, n, lam), **common,
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


def _check_header(header, likelihood: str) -> None:
    """Raise ``ValueError`` naming the first header field that is missing or invalid."""
    if not isinstance(header, dict):
        raise ValueError(f"model file header must be a JSON object, not {type(header).__name__}")
    checks = _HEADER_CHECKS | (_CLASSIFIER_HEADER_CHECKS if likelihood == "classifier" else {})
    for field, (ok, want) in checks.items():
        if field not in header:
            raise ValueError(f"model file header lacks the field {field!r}")
        if not ok(header[field]):
            raise ValueError(
                f"model file header field {field!r} must be {want}, got {header[field]!r}"
            )
