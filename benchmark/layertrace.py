"""Per-layer spans placed from outside the program.

:func:`install` wraps the public functions of each ``vcgp`` module (and the
methods the serving phase calls) in timers.  Where a module imports a
function by name, every binding of that function in every loaded ``vcgp``
module is replaced, so calls count whichever module they come from.

Each span records ``.calls`` and inclusive ``.s``; a span nested in another
span of the same name counts once.  Each module also gets ``.self_s``: the
time its spans were open minus the time their child spans covered.  A few
counters are read off arguments and results where the work happens
(Newton iterations, factorized sizes, jitter, tuning candidates).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

MODULES = ("data_io", "experiments", "gp_core", "gp_classify", "sparse_fitc", "kernels",
           "linalg", "model_io")

# (module, attribute, span name); a dotted attribute names a method
TARGETS = (
    ("data_io", "load_csv", "data_io.load"),
    ("data_io", "filter_records", "data_io.filter_records"),
    ("data_io", "Preprocessor.fit", "data_io.preprocess"),
    ("data_io", "Preprocessor.transform", "data_io.preprocess"),
    ("data_io", "kfold_splits", "data_io.kfold_splits"),
    ("experiments", "run_method", "experiments.run_method"),
    ("gp_core", "fit_regressor", "gp_core.fit_regressor"),
    ("gp_core", "lml_and_gradient", "gp_core.lml_and_gradient"),
    ("gp_core", "tune_hyperparameters", "gp_core.tune_hyperparameters"),
    ("gp_core", "FittedRegressor.predict", "gp_core.predict"),
    ("gp_core", "FittedRegressor.predict_batch", "gp_core.predict_batch"),
    ("gp_classify", "fit_classifier", "gp_classify.fit_classifier"),
    ("gp_classify", "laplace_mode", "gp_classify.laplace_mode"),
    ("gp_classify", "tune_classifier_hyperparameters",
     "gp_classify.tune_classifier_hyperparameters"),
    ("gp_classify", "FittedClassifier.predict_proba", "gp_classify.predict_proba"),
    ("gp_classify", "FittedClassifier.predict_proba_batch", "gp_classify.predict_proba_batch"),
    ("sparse_fitc", "select_inducing", "sparse_fitc.select_inducing"),
    ("sparse_fitc", "fit_fitc_classifier", "sparse_fitc.fit_fitc_classifier"),
    ("sparse_fitc", "FittedFITCClassifier.predict_proba", "sparse_fitc.predict_proba"),
    ("sparse_fitc", "FittedFITCClassifier.predict_proba_batch",
     "sparse_fitc.predict_proba_batch"),
    ("kernels", "product_kernel_matrix", "kernels.product_kernel_matrix"),
    ("kernels", "product_kernel_diag", "kernels.product_kernel_diag"),
    ("kernels", "instance_gram", "kernels.instance_gram"),
    ("kernels", "task_gram", "kernels.task_gram"),
    ("kernels", "matern_gram_grads", "kernels.matern_gram_grads"),
    ("kernels", "tree_task_kernel", "kernels.tree_task_kernel"),
    ("_linalg", "chol_with_jitter", "linalg.chol_with_jitter"),
    ("_linalg", "solve_chol", "linalg.solve"),
    ("_linalg", "solve_lower", "linalg.solve"),
    ("_linalg", "solve_upper", "linalg.solve"),
    ("model_io", "save_model", "model_io.save"),
    ("model_io", "load_model", "model_io.load"),
)

# spans whose direct calls from inside a tuner are tuning candidates
_CANDIDATE_SPANS = {
    "gp_core.tune_hyperparameters": ("gp_core.fit_regressor", "gp_core.lml_and_gradient"),
    "gp_classify.tune_classifier_hyperparameters": ("gp_classify.fit_classifier",),
}
_FIT_SPANS = ("gp_core.fit_regressor", "gp_classify.fit_classifier",
              "sparse_fitc.fit_fitc_classifier")


class Tracer:
    """Span stack, per-span totals and counters; one per traced process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_s = {m: 0.0 for m in MODULES}
        self.counters = {
            "gp_classify.newton_iters": 0,
            "linalg.chol.gflop_computed": 0.0,
            "linalg.jitter_added": 0,
            "gp_core.tune.candidates": 0,
            "gp_core.tune.failed": 0,
            "gp_classify.tune.candidates": 0,
            "gp_classify.tune.failed": 0,
            "experiments.refits_after_tune": 0,
            "sparse_fitc.dense_surrogate_mb_computed": 0.0,
            "serving.predictions": 0,
            "serving.tree_task_kernel_calls": 0,
            # filled in by the ``vcgp run`` process around the run
            "experiment.minor_faults": 0,
            "experiment.sys_s": 0.0,
        }
        # frames are [name, start, child seconds, a tuner finished inside]
        self.stack: list[list] = []
        self.serving = False

    def _parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def _count(self, name: str, args) -> None:
        """Counters read off the arguments, before the span opens."""
        parent = self._parent()
        if name in _CANDIDATE_SPANS.get(parent, ()):
            self.counters[parent.split(".", 1)[0] + ".tune.candidates"] += 1
        if name in _FIT_SPANS and parent == "experiments.run_method" and self.stack[-1][3]:
            self.counters["experiments.refits_after_tune"] += 1
        if name == "linalg.chol_with_jitter":
            n = np.shape(args[0])[0]
            self.counters["linalg.chol.gflop_computed"] += n ** 3 / 3.0 / 1e9
        elif name == "sparse_fitc.fit_fitc_classifier":
            self.counters["sparse_fitc.dense_surrogate_mb_computed"] += args[0].n ** 2 * 8 / 1e6
        elif name == "kernels.tree_task_kernel" and self.serving:
            self.counters["serving.tree_task_kernel_calls"] += 1

    def _close(self, name: str, result=None, exc: BaseException | None = None,
               count: bool = True) -> None:
        _, start, child, _ = self.stack.pop()
        elapsed = time.perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + int(count)
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.self_s[name.split(".", 1)[0]] += elapsed - child
        parent = self._parent()
        if self.stack:
            self.stack[-1][2] += elapsed
        if exc is not None:
            if name in _CANDIDATE_SPANS.get(parent, ()) and type(exc).__name__ == "NumericalError":
                self.counters[parent.split(".", 1)[0] + ".tune.failed"] += 1
        elif name == "gp_classify.laplace_mode":
            self.counters["gp_classify.newton_iters"] += int(result.iterations)
        elif name == "linalg.chol_with_jitter" and result[1] > 0.0:
            self.counters["linalg.jitter_added"] += 1
        elif name in _CANDIDATE_SPANS and parent == "experiments.run_method":
            self.stack[-1][3] = True

    def wrap(self, fn, name: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.stack.append([name, time.perf_counter(), 0.0, False])
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(name)  # the generator's one call, counted at its end
                        return
                    except BaseException:
                        tracer._close(name)
                        raise
                    tracer._close(name, count=False)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(frame[0] == name for frame in tracer.stack):
                return fn(*args, **kwargs)
            tracer._count(name, args)
            tracer.stack.append([name, time.perf_counter(), 0.0, False])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(name, exc=exc)
                raise
            tracer._close(name, result=result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every span's calls and seconds, module self times and counters."""
        out: dict[str, float] = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.s"] = self.seconds.get(name, 0.0)
        for module, s in self.self_s.items():
            out[f"{module}.self_s"] = s
        out.update(self.counters)
        return out


def install() -> Tracer:
    """Wrap every target in the loaded ``vcgp`` modules and return the tracer."""
    tracer = Tracer()
    importlib.import_module("vcgp.cli")  # binds names from the other modules
    loaded = [m for n, m in sorted(sys.modules.items())
              if (n == "vcgp" or n.startswith("vcgp.")) and m is not None]
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(f"vcgp.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), span))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, span)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer
