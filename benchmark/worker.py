"""One process of a round: serve single-point predictions, or one ``vcgp run``.

Usage::

    python3 benchmark/worker.py SPEC.json OUT.json --mode serve [--trace]
    python3 benchmark/worker.py SPEC.json OUT.json --mode run \
        --config CONFIG --results RESULTS.csv [--trace]

``run.py`` starts each in a fresh interpreter with BLAS at one thread and
``src`` on ``PYTHONPATH``.  ``--mode serve`` sets up (import, read and
preprocess the CSV, build the kernel spec, fit the serving model) and times
single-point predictions (:func:`serve`); ``--mode run`` times one ``vcgp
run`` (:func:`experiment`).  Each writes what it measured, plus the raw
outputs ``run.py`` checks, to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

WARMUP_CALLS = 3
BLOCK_S = 0.1  # CPU seconds of timed work between two calibration bursts
# CPU seconds of one repetition of the HostSpeed burst on the reference host
# (a quiet 2-vCPU Intel Xeon KVM guest, numpy 2.4.6, scipy-openblas 0.3.31
# at one thread); timings are reported in seconds of that host.
CAL_REFERENCE_S = 0.008


class HostSpeed:
    """A fixed calibration burst that does not call ``vcgp``, timed in CPU seconds.

    The host is shared: neighbours on the same physical cores and caches
    slow every instruction for stretches of seconds to minutes, and CPU time
    does not see that.  Each process runs a burst between the segments it
    times and scales each segment by ``CAL_REFERENCE_S`` over the
    geometric mean of the bursts on either side, so a slow stretch of
    the host cancels out of the reported times while a slower program does
    not.  The burst mixes what the workloads spend their time on: an
    interpreted double loop (the tree Gram), many small numpy and scipy
    calls (single-point predicts), and BLAS factorizations and products.
    Every array it makes stays under glibc's initial 128 KiB mmap threshold,
    so the burst leaves the allocator's state, which moves the program's
    own times, as it found it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.paths = [[1]] + [None] * 159
        for node in range(2, 161):
            self.paths[node - 1] = self.paths[node // 2 - 1] + [node]
        self.X = rng.standard_normal((64, 3))
        self.v = rng.standard_normal(64)
        A = rng.standard_normal((112, 112))
        self.A = A @ A.T + 112 * np.eye(112)
        self.L = np.linalg.cholesky(self.A[:64, :64])

    def _python(self) -> int:
        paths, total = self.paths, 0
        for i, pi in enumerate(paths):
            for pj in paths[i:]:
                for a, b in zip(pi, pj):
                    if a != b:
                        break
                    total += 1
        return total

    def _small_calls(self) -> float:
        np = self.np
        from scipy.linalg import solve_triangular

        total = 0.0
        for i in range(160):
            k = np.exp(-np.sqrt(((self.X - self.X[i % 64]) ** 2).sum(axis=1)))
            total += float(k @ solve_triangular(self.L, self.v, lower=True))
        return total

    def _blas(self) -> float:
        np = self.np
        total = 0.0
        for _ in range(36):
            total += np.linalg.cholesky(self.A)[-1, -1] + (self.A @ self.A)[0, 0]
        return float(total)

    def burst(self, reps: int = 3) -> float:
        """CPU seconds per repetition of the mix."""
        t0 = time.process_time()
        for _ in range(reps):
            self._python()
            self._small_calls()
            self._blas()
        return (time.process_time() - t0) / reps

    def scale(self, before: float, after: float) -> float:
        """Factor from CPU seconds to reference seconds, given the bursts around a segment."""
        return CAL_REFERENCE_S / math.sqrt(before * after)

    def sample_during(self, fn):
        """Call ``fn()`` with a one-repetition burst after every ``BLOCK_S`` of CPU time.

        A profiling timer interrupts the call; the bursts run in its signal
        handler, between two bytecodes of the program (a long BLAS call
        finishes first).  Returns ``fn()``'s result, its CPU seconds without
        the bursts, and the bursts' times.
        """
        import signal

        ticks: list = []
        busy = [False]

        def tick(signum, frame):
            if busy[0]:
                return
            busy[0] = True
            ticks.append(self.burst(1))
            busy[0] = False

        previous = signal.signal(signal.SIGPROF, tick)
        signal.setitimer(signal.ITIMER_PROF, BLOCK_S, BLOCK_S)
        c0 = time.process_time()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
        return result, time.process_time() - c0 - sum(ticks), ticks


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS builds loaded in this process."""
    import ctypes

    counts = []
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                counts.append(int(getattr(lib, fn)()))
                break
    return max(counts) if counts else None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started (VmHWM).

    ``ru_maxrss`` is no substitute: Linux folds the address space a process
    replaced at exec into it, and that was the parent's, so it would report
    the parent's resident set whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def setup(spec: dict, trace: bool):
    """Import, read and preprocess the CSV, build the kernel spec, fit the model."""
    import vcgp
    from vcgp import data_io, gp_classify, gp_core, kernels, sparse_fitc

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.install()
    s = spec["schema"]
    schema = data_io.Schema(
        target=s["target"], numeric=tuple(s.get("numeric", ())),
        task_coords=tuple(s.get("task_coords", ())), task_id=s.get("task_id"),
    )
    policy = data_io.PreprocessPolicy(
        drop_missing=spec["policy"]["drop_missing"], standardize=spec["policy"]["standardize"]
    )
    records = data_io.filter_records(data_io.load_csv(spec["csv"], schema), schema, policy)
    n = spec["n_serve"]
    train_recs, query_recs = records[:n], records[n:n + spec["queries"]]
    pre = data_io.Preprocessor(schema, policy).fit(train_recs)
    train, queries = pre.transform(train_recs), pre.transform(query_recs)
    kspec = kernels.spec_from_dict(spec["spec"])
    tau2 = spec["tau2"]
    inducing = None
    if spec["problem"] == "classification":
        train = gp_core.Dataset(X=train.X, T=train.T, y=data_io.threshold_labels(train.y))
        if spec["fitc_p"]:
            inducing = sparse_fitc.select_inducing(train, spec["fitc_p"], seed=0)
            model = sparse_fitc.fit_fitc_classifier(train, kspec, tau2, inducing)
        else:
            model = gp_classify.fit_classifier(train, kspec, tau2)
    else:
        model = gp_core.fit_regressor(train, kspec, tau2)
    return vcgp, model, queries, inducing, tracer


def _one(model, x, t, classification: bool):
    if classification:
        return (model.predict_proba(x, t),)
    pd = model.predict(x, t)
    return (pd.mean, pd.latent_var)


def count_mismatches(outputs: list, reference: list) -> int:
    """Queries whose outputs differ in any bit (NaN never equals itself)."""
    return sum(a != b for a, b in zip(outputs, reference, strict=True))


def serve(spec: dict, trace: bool) -> dict:
    """Set up, then ``passes`` timed passes of single-point predictions.

    One caller in a closed loop.  With a model file format for the model,
    the model is saved and loaded after the first pass and later passes
    alternate between the loaded and the in-memory model; the round trip is
    one operation, failed unless every loaded-model output equals the first
    pass's bit for bit.  Set-up is timed from the process's start and scaled
    by a :class:`HostSpeed` burst right after it; the calls are scaled in
    blocks, a pass or ``BLOCK_S`` of CPU time whichever is shorter, by the
    one-repetition bursts on either side, so the scale follows the host's
    speed from one block to the next.

    A query's latency is the median of its ``passes`` timed calls.  On a
    busy host the neighbours' load comes and goes within a pass, which no
    burst can follow; it lengthened a share of the single calls and moved
    the p90 of the calls by 0.26 of its median over ten seeds, while the
    same request's median over repeated calls stays put.
    """
    vcgp, model, queries, inducing, tracer = setup(spec, trace)
    setup_cpu_s = time.process_time()  # CPU time since the process started
    classification = spec["problem"] == "classification"
    with_file = spec["fitc_p"] is None  # model files cover exact models only
    speed = HostSpeed()
    speed.burst()
    for _ in range(WARMUP_CALLS):
        _one(model, queries.X[0], queries.T[0], classification)
    if tracer is not None:
        tracer.serving = True
    setup_burst = speed.burst()
    bursts = [speed.burst(1)]
    latencies: list = []

    def timed_pass(current) -> list:
        """One pass; a burst closes each block of ``BLOCK_S`` and the pass."""
        outputs, block = [], []
        for i in range(queries.X.shape[0]):
            t0 = time.process_time()
            outputs.append(_one(current, queries.X[i], queries.T[i], classification))
            block.append((time.process_time() - t0) * 1e3)
            if sum(block) >= BLOCK_S * 1e3 or i == queries.X.shape[0] - 1:
                bursts.append(speed.burst(1))
                latencies.extend(ms * speed.scale(bursts[-2], bursts[-1]) for ms in block)
                block = []
        return outputs

    reference = timed_pass(model)
    loaded, mismatches = model, None
    if with_file:
        vcgp.save_model(model, spec["model_path"])
        loaded, mismatches = vcgp.load_model(spec["model_path"]), 0
    for p in range(1, spec["passes"]):
        current = loaded if p % 2 == 1 else model
        outputs = timed_pass(current)
        if current is loaded and with_file:
            mismatches += count_mismatches(outputs, reference)
    if tracer is not None:
        tracer.serving = False
        tracer.counters["serving.predictions"] = len(latencies)
    q = queries.X.shape[0]
    return {
        "setup_s": setup_cpu_s * CAL_REFERENCE_S / setup_burst,
        "setup_cpu_s": setup_cpu_s,
        "predictions": len(latencies),
        "query_latencies_ms": [statistics.median(latencies[i::q]) for i in range(q)],
        "outputs": [list(col) for col in zip(*reference)],
        "roundtrip_mismatches": mismatches,
        "bursts_s": bursts,
        "inducing": None if inducing is None else [int(i) for i in inducing.indices],
        "peak_rss_mb": peak_rss_mb(),
        "vcgp_file": vcgp.__file__,
        "env": environment(),
        "trace": None if tracer is None else tracer.metrics(),
    }


def experiment(config: str, results: str, trace: bool) -> dict:
    """One ``vcgp run`` on ``config`` in this fresh interpreter, as a user runs it.

    The run's CPU time depends on the allocator's state: glibc raises its
    mmap threshold to the largest block freed so far, and whether the n x n
    temporaries are mmapped, and page-faulted anew, moved a run by 25% in
    either direction.  A process that has served predictions first leaves a
    state that differs from seed to seed, so each run gets a fresh process,
    whose state on reaching the run is the same every time.
    """
    from vcgp import cli

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.install()
    speed = HostSpeed()
    speed.burst()
    burst_before = speed.burst()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc, run_cpu_s, ticks = speed.sample_during(
        lambda: cli.main(["run", config, "--out", results]))
    run_wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    burst_after = speed.burst()
    if tracer is not None:
        tracer.counters["experiment.minor_faults"] += after.ru_minflt - before.ru_minflt
        tracer.counters["experiment.sys_s"] += after.ru_stime - before.ru_stime
    bursts = [burst_before, *ticks, burst_after]
    return {"run_s": run_cpu_s * CAL_REFERENCE_S / statistics.fmean(bursts),
            "run_cpu_s": run_cpu_s, "run_wall_s": run_wall_s, "run_rc": rc, "results": results,
            "peak_rss_mb": peak_rss_mb(), "bursts_s": bursts,
            "trace": None if tracer is None else tracer.metrics()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("out")
    ap.add_argument("--mode", choices=("serve", "run"), required=True)
    ap.add_argument("--config", help="experiment config of --mode run")
    ap.add_argument("--results", help="results CSV of --mode run")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    if args.mode == "serve":
        result = serve(spec, args.trace)
    else:
        result = experiment(args.config, args.results, args.trace)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
