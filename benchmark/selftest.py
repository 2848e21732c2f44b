"""Self-test of the benchmark: toy-size runs, metric names, and checks that bite.

Usage, from the root of a checkout::

    python3 benchmark/selftest.py

1. Runs every workload at toy size, untraced and traced, and checks that
   the last line carries every metric of ``BENCHMARK.json`` (end-to-end
   untraced, per-layer traced) with its unit, and that the run is correct.
2. Feeds each correctness check a deliberately perturbed output -- one
   serving prediction nudged, one loss in the results CSV moved, one results
   row dropped, one model file round trip disagreeing -- and shows that the
   check reports it.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def metric_names_printed(bench: dict) -> None:
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace), "--toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{name} trace={trace} runs (exit {proc.returncode}): "
                              f"{proc.stderr[-500:]}")
                continue
            out = json.loads(lines[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} prints exactly the four result keys")
            expect(out["correct"] is True, f"{name} trace={trace} is correct")
            expect(out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"],
                   f"{name} trace={trace} counts operations")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            differ = sorted(set(want.items()) ^ set(got.items()))
            expect(not differ, f"{name} trace={trace} prints every {key} metric with its unit"
                   + (f"; differing (name, unit) pairs: {differ}" if differ else ""))


def perturbed_outputs_fail() -> None:
    for name in workloads.NAMES:
        workdir = os.path.join(HERE, "_work", f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            _perturb_one(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _perturb_one(name: str, workdir: str) -> None:
    wls = workloads.generate_all(name, 5, workdir, toy=True)
    wl = wls[0]
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(workloads.worker_spec(wls), fh)
    res = run.run_full(spec_path, workdir, 0.0, False, "selftest")
    expect(run.check(wls, res) == [], f"{name}: unperturbed outputs pass every check")

    for col in range(len(res["outputs"])):
        bad = json.loads(json.dumps(res["outputs"]))
        bad[col][0] += 1e-4 * (1.0 + abs(bad[col][0]))
        errors = reference.check_serving(wl, bad, res["inducing"])
        expect(len(errors) == 1, f"{name}: serving output column {col} nudged by 1e-4 fails")

    results = res["rounds"][0]["run"]["results"]
    with open(results, newline="") as fh:
        rows = list(csv.DictReader(fh))
    oracle, trivial = reference.oracle_losses(wl)
    for label, edit in (
        ("every loss at the trivial predictor's", lambda r: [dict(x, value=repr(trivial))
                                                            for x in r]),
        ("a non-finite loss", lambda r: r[:-1] + [dict(r[-1], value="nan")]),
        ("a dropped row", lambda r: r[:-1]),
    ):
        path = os.path.join(workdir, "perturbed.csv")
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(edit(rows))
        errors, _ = reference.check_results(wl, path)
        expect(bool(errors), f"{name}: results with {label} fail")

    if res["rounds"][0]["serve"]["roundtrip_mismatches"] is not None:
        outputs = [tuple(col) for col in zip(*res["outputs"])]
        off = [tuple(np.nextafter(v, np.inf) for v in outputs[0])] + outputs[1:]
        expect(worker.count_mismatches(outputs, list(outputs)) == 0
               and worker.count_mismatches(off, outputs) == 1,
               f"{name}: a loaded-model output one ulp off counts as a round-trip mismatch")
        counts = []
        for mismatches in (0, 1):
            edited = json.loads(json.dumps(res))
            for rnd in edited["rounds"]:
                rnd["serve"]["roundtrip_mismatches"] = mismatches
            counts.append(run.operations(wls, edited)[1])
        expect(counts == [0, len(res["rounds"])],
               f"{name}: a serving process with a round-trip mismatch counts one failed "
               "operation")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metric_names_printed(bench)
    perturbed_outputs_fail()
    print(f"# {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
