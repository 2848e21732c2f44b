"""Benchmark of the vcgp package: one workload per run, one JSON line out.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The run draws its inputs from ``--seed`` (a CSV and a ``vcgp run`` config
per replicate; see ``workloads.py``), then repeats whole rounds for
``--seconds`` (``run_full``), each process a fresh interpreter with BLAS at
one thread and ``src`` on ``PYTHONPATH`` (``worker.py``): a serving process
that sets up (import, read and preprocess the CSV, build the kernel spec,
fit the serving model) and times single-point predictions and a model file
round trip, then one ``vcgp run`` process per replicate.  Times are CPU
seconds scaled to a reference host's speed (``worker.HostSpeed``).

Afterwards the serving outputs and the results CSVs are checked against
``reference.py``.  The last line printed is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics
summed over traced rounds (plus the tracing overhead, measured against
untraced ones).  The full record of the run goes to
``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_ENV:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def child(spec_path: str, out_path: str, args: list) -> dict:
    """One worker process in a fresh interpreter; returns what it wrote to ``out_path``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path, *args]
    # a session of its own, so a timeout stops anything it started too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stdout[-2000:] + stderr[-4000:])
        raise RuntimeError(f"worker process {args} exited with {proc.returncode}")
    with open(out_path) as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))]


def run_full(spec_path: str, workdir: str, seconds: float, trace: bool, tag: str) -> dict:
    """Whole rounds until ``seconds`` have passed, and at least one per replicate.

    A round is the same set of operations every time, on replicate ``round
    mod replicates``: one serving process (set-up, then timed single-point
    predictions and the model file round trip; ``worker.serve``) and one
    ``vcgp run`` process (``worker.experiment``).  Every process is a fresh
    interpreter, so the samples cover many memory layouts: where the
    allocator and the kernel place the large arrays moved single-point
    latencies by up to 10% from one process to the next.
    """
    with open(spec_path) as fh:
        spec = json.load(fh)
    flag = ["--trace"] if trace else []
    n_rep = len(spec["runs"])
    rounds = []
    start = time.monotonic()
    while len(rounds) < max(spec["min_rounds"], n_rep) or time.monotonic() - start < seconds:
        r = len(rounds)
        run = spec["runs"][r % n_rep]
        served = child(spec_path, os.path.join(workdir, f"serve-{tag}-{r}.json"),
                       ["--mode", "serve", *flag])
        results = run["results"].replace(".csv", f"-{tag}-{r}.csv")
        ran = child(spec_path, results.replace(".csv", ".json"),
                    ["--mode", "run", "--config", run["config"], "--results", results, *flag])
        rounds.append({"replicate": r % n_rep, "serve": served, "run": ran})
    processes = [p for rnd in rounds for p in (rnd["serve"], rnd["run"])]
    for rnd in rounds:
        vcgp_file = rnd["serve"]["vcgp_file"]
        if os.path.realpath(os.path.dirname(vcgp_file)) != os.path.realpath(
                os.path.join(ROOT, "src", "vcgp")):
            raise RuntimeError(f"imported vcgp from {vcgp_file}, not from this checkout")
    trace_sum = None
    if trace:
        trace_sum = dict.fromkeys(rounds[0]["serve"]["trace"], 0)
        for res in processes:
            for name, value in res.pop("trace").items():
                trace_sum[name] += value
    return {
        "rounds": rounds,
        "outputs": rounds[0]["serve"]["outputs"],
        "inducing": rounds[0]["serve"]["inducing"],
        "latencies_ms": [ms for rnd in rounds for ms in rnd["serve"].pop("query_latencies_ms")],
        "predictions": sum(rnd["serve"]["predictions"] for rnd in rounds),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in processes),
        "env": rounds[0]["serve"]["env"],
        "trace": trace_sum,
    }


def run_s(res: dict) -> float:
    """Mean over the replicates of the median ``vcgp run`` time of each."""
    per_replicate: dict = {}
    for rnd in res["rounds"]:
        per_replicate.setdefault(rnd["replicate"], []).append(rnd["run"]["run_s"])
    return statistics.fmean(statistics.median(v) for v in per_replicate.values())


def check(wls: list, res: dict) -> list[str]:
    """Every correctness failure of one set of rounds."""
    errors = [f"serving: {e}"
              for e in reference.check_serving(wls[0], res["outputs"], res["inducing"])]
    res["mean_loss"] = [None] * len(wls)
    for r, rnd in enumerate(res["rounds"]):
        i = rnd["replicate"]
        run_errors, loss = reference.check_results(wls[i], rnd["run"]["results"])
        errors += [f"vcgp run, round {r} (replicate {i}): {e}" for e in run_errors]
        if res["mean_loss"][i] is None:
            res["mean_loss"][i] = loss
    res["oracle_loss"], res["trivial_loss"] = zip(*map(reference.oracle_losses, wls))
    return errors


def operations(wls: list, res: dict) -> tuple[int, int]:
    """(attempted, failed): predictions, model file round trips and folds."""
    folds = wls[0].sizes["folds"]
    attempted, failed = res["predictions"], 0
    for rnd in res["rounds"]:
        attempted += folds
        failed += folds if rnd["run"]["run_rc"] != 0 else 0
        mismatches = rnd["serve"]["roundtrip_mismatches"]
        if mismatches is not None:
            attempted += 1
            failed += mismatches > 0
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vcgp", "__init__.py")):
        print(f"error: no vcgp package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    wls = workloads.generate_all(args.workload, args.seed, workdir, toy=args.toy)
    wl = wls[0]
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(workloads.worker_spec(wls), fh)

    # an untimed first import compiles bytecode and warms the file cache
    subprocess.run([sys.executable, "-c", "import vcgp.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "sizes": wl.sizes}
    if args.trace:
        # the untraced reference runs its minimum rounds only, to keep the run short
        plain = run_full(spec_path, workdir, 0.0, False, "plain")
        res = run_full(spec_path, workdir, args.seconds, True, "traced")
        metrics_raw = dict(res["trace"])
        metrics_raw["trace.overhead_s"] = run_s(res) - run_s(plain)
        errors = check(wls, plain) + check(wls, res)
        runs = [plain, res]
        units = {}
    else:
        res = run_full(spec_path, workdir, args.seconds, False, "plain")
        setups = [r["serve"]["setup_s"] for r in res["rounds"]]
        errors = check(wls, res)
        runs = [res]
        lat = res["latencies_ms"]
        metrics_raw = {
            "setup_s": statistics.median(setups),
            "run_s": run_s(res),
            "predict_ms.p50": statistics.median(lat),
            "predict_ms.p90": percentile(lat, 90),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {"setup_s": "s", "run_s": "s", "predict_ms.p50": "ms", "predict_ms.p90": "ms",
                 "peak_rss_mb": "MB"}
        record["setup_samples_s"] = setups

    counts = [operations(wls, r) for r in runs]
    attempted, failed = sum(c[0] for c in counts), sum(c[1] for c in counts)
    for r in runs:
        record.setdefault("processes", []).append({
            k: r[k] for k in ("rounds", "peak_rss_mb", "env", "mean_loss", "oracle_loss",
                              "trivial_loss")
        } | {"predictions": r["predictions"], "query_latencies": len(r["latencies_ms"])})
    record["errors"] = errors
    record["metrics"] = metrics_raw
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    with open(os.path.join(HERE, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"# {wl.name}: {runs[-1]['predictions']} predictions, "
          f"{len(runs[-1]['latencies_ms'])} query latencies, "
          f"mean loss per replicate {runs[-1]['mean_loss']}, "
          f"oracle {[round(o, 4) for o in runs[-1]['oracle_loss']]}")
    metrics = {k: {"value": v, "unit": units.get(k, _unit(k))} for k, v in metrics_raw.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
