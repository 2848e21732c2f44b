"""Workload definitions and seeded input generation.

Every input the program sees is a file written here: a CSV drawn from a
known generating process and a YAML experiment config for ``vcgp run``.
The generating process is kept alongside (true latent values, tree
structure) so the checks can compare the program's output with a
reference computed independently of it.

Why four workloads: each stresses a layer the others bypass.

* ``reg-gradient`` -- exact regression, Matern x Matern, L-BFGS tuning:
  ``lml_and_gradient``, ``matern_gram_grads`` and the explicit inverse.
* ``cls-grid`` -- exact Laplace classification with a 3 x 2 grid: Newton
  iterations, their factorizations and the refit after tuning.
* ``fitc-cls`` -- FITC classification at a larger n with p = 100 inducing
  points: the dense n x n surrogate inside ``fit_fitc_classifier``.
* ``tree-tasks`` -- discrete tasks under a k = 200 tree task kernel with a
  linear instance kernel: the k x k tree Gram rebuilt on every predict.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from reference import matern15

# Sizes at full scale; ``toy`` shrinks them for the self-test.  ``passes``
# shapes a serving process (worker.py); ``min_rounds`` is the least number
# of rounds a run makes (run.py).  ``replicates`` is the number of datasets
# drawn from the seed for ``vcgp run``: round r runs replicate r mod
# replicates, and ``run_s`` is the mean over replicates of each one's
# median.  Newton and L-BFGS iteration counts are a property of the dataset
# (all folds of one dataset mostly take 4, or all take 5, Newton steps per
# fit), so one dataset per seed moved ``run_s`` by 10-15% from seed to seed;
# the mean over independent datasets averages that luck out.
# ``loss_margin`` bounds vcgp run's mean loss: at most the oracle's plus
# this share of the gap between the trivial predictor and the oracle.  The
# full-size margins are 1.5x or more the largest share seen over 20 seeds
# (0.29, 0.28, 0.53 and 0.05 in the order below).
FULL = {
    "reg-gradient": dict(rows=600, n_run=360, folds=4, n_serve=400, queries=64, passes=40,
                         min_rounds=1, replicates=2, loss_margin=0.5),
    "cls-grid": dict(rows=850, n_run=600, folds=4, n_serve=600, queries=64, passes=28,
                     min_rounds=1, replicates=3, loss_margin=0.5),
    "fitc-cls": dict(rows=2000, n_run=1500, folds=4, n_serve=1500, queries=64, passes=8,
                     min_rounds=1, replicates=3, loss_margin=0.8),
    "tree-tasks": dict(rows=2000, n_run=1500, folds=4, n_serve=1500, queries=64, passes=3,
                       min_rounds=2, replicates=1, loss_margin=0.2),
}
TOY = {
    name: dict(rows=450 if name == "fitc-cls" else 300, n_run=300 if name == "fitc-cls" else 200,
               folds=3, n_serve=200, queries=8, passes=2, min_rounds=1, replicates=2,
               loss_margin=0.75)
    for name in FULL
}
NAMES = tuple(FULL)

M = 3                   # instance dimensions
TAU2_TRUE = 0.1         # noise variance of the generating process
INSTANCE_LS_TRUE = 2.5  # Matern lengthscales of the generating process
TASK_LS_TRUE = 0.3
TREE_NODES = 200
TREE_NODES_TOY = 12
FITC_P = 100
FITC_P_TOY = 30


@dataclass(frozen=True)
class Workload:
    """One generated workload: files for the program plus the truth behind them."""

    name: str
    problem: str            # regression | classification
    sizes: dict
    csv_path: str
    config_path: str
    config: dict            # the experiment config written to config_path
    schema: dict
    policy: dict
    spec_dict: dict         # kernel spec of the serving model
    tau2: float             # tau2 of the serving model
    fitc_p: int | None      # inducing points of the serving model
    f_true: np.ndarray      # noiseless latent value of every row
    y: np.ndarray           # observed target of every row
    tree_parent: dict | None = None
    tree_sigma: tuple | None = None


def worker_spec(wls: list) -> dict:
    """What the worker processes need: paths, schema, serving model, runs.

    The serving model is fitted on the first replicate's rows; every
    replicate's config is run once per round.
    """
    wl = wls[0]
    workdir = os.path.dirname(wl.csv_path)
    return {
        "name": wl.name,
        "runs": [{"config": w.config_path,
                  "results": os.path.join(os.path.dirname(w.config_path), "results.csv")}
                 for w in wls],
        "model_path": os.path.join(workdir, "model.bin"),
        "passes": wl.sizes["passes"],
        "min_rounds": wl.sizes["min_rounds"],
        "problem": wl.problem,
        "csv": wl.csv_path,
        "schema": wl.schema,
        "policy": wl.policy,
        "spec": wl.spec_dict,
        "tau2": wl.tau2,
        "fitc_p": wl.fitc_p,
        "n_serve": wl.sizes["n_serve"],
        "queries": wl.sizes["queries"],
    }


def _draw_product_gp(rng, X: np.ndarray, t: np.ndarray) -> np.ndarray:
    K = matern15(X, X, INSTANCE_LS_TRUE, 1.0) * matern15(t, t, TASK_LS_TRUE, 1.0)
    L = np.linalg.cholesky(K + 1e-8 * np.eye(K.shape[0]))
    return L @ rng.standard_normal(K.shape[0])


def binary_tree(rng, k: int) -> tuple[dict, tuple]:
    """Parent map of the complete binary tree over nodes 1..k, and random node sds.

    The shape does not depend on the seed, because the cost of building the
    tree Gram grows with the depth of shared ancestry: a seeded shape would
    move the timings from seed to seed.
    """
    parent = {node: node // 2 for node in range(2, k + 1)}
    sigma = (1.0,) + tuple(float(s) for s in rng.uniform(0.2, 0.6, size=k - 1))
    return parent, sigma


def tree_weights(rng, parent: dict, sigma: tuple, m: int) -> np.ndarray:
    """Hierarchical draw: each node's coefficients are Gaussian around its parent's."""
    k = len(sigma)
    W = np.zeros((k + 1, m))  # row 0 unused so rows are 1-based node ids
    W[1] = sigma[0] * rng.standard_normal(m)
    for node in range(2, k + 1):  # parent ids are smaller, so parents come first
        W[node] = W[parent[node]] + sigma[node - 1] * rng.standard_normal(m)
    return W


def _write_csv(path: str, header: list, columns: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([v if isinstance(v, str) else repr(v) for v in row])


def generate_all(name: str, seed: int, workdir: str, toy: bool = False) -> list[Workload]:
    """Every replicate of the workload, each under a directory of its own."""
    if name not in FULL:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    wls = []
    for replicate in range((TOY if toy else FULL)[name]["replicates"]):
        subdir = os.path.join(workdir, f"rep{replicate}")
        os.makedirs(subdir)
        wls.append(generate(name, seed, subdir, toy, replicate))
    return wls


def generate(name: str, seed: int, workdir: str, toy: bool = False,
             replicate: int = 0) -> Workload:
    """Draw one replicate's inputs from ``seed`` and write them under ``workdir``."""
    if name not in FULL:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    sizes = (TOY if toy else FULL)[name]
    rng = np.random.default_rng([seed, NAMES.index(name), replicate])
    rows = sizes["rows"]
    X = rng.standard_normal((rows, M))
    csv_path = f"{workdir}/data.csv"
    config_path = f"{workdir}/config.yaml"
    xcols = [f"x{j + 1}" for j in range(M)]
    policy = {"drop_missing": True, "standardize": True}
    tree_parent = tree_sigma = None

    if name == "tree-tasks":
        k = TREE_NODES_TOY if toy else TREE_NODES
        tree_parent, tree_sigma = binary_tree(rng, k)
        W = tree_weights(rng, tree_parent, tree_sigma, M)
        task = rng.integers(1, k + 1, size=rows)
        f = np.einsum("ij,ij->i", X, W[task])
        y = f + math.sqrt(TAU2_TRUE) * rng.standard_normal(rows)
        _write_csv(
            csv_path, xcols + ["task", "y"],
            [*(list(map(float, X[:, j])) for j in range(M)), [str(int(v)) for v in task],
             list(map(float, y))],
        )
        schema = {"target": "y", "numeric": xcols, "task_id": "task"}
        task_kernel = {"type": "tree", "parent": {str(c): p for c, p in tree_parent.items()},
                       "sigma": list(tree_sigma)}
        spec_dict = {"instance_kernel": {"type": "linear"}, "task_kernel": task_kernel}
        method = "vcgp-lin"
        problem = "regression"
        tuning = {"method": "grid", "grid": {"tau2": [0.03, 0.1, 0.3, 1.0]}}
    else:
        t = rng.uniform(0.0, 1.0, size=(rows, 1))
        f = _draw_product_gp(rng, X, t)
        y = f + math.sqrt(TAU2_TRUE) * rng.standard_normal(rows)
        _write_csv(
            csv_path, xcols + ["t", "y"],
            [*(list(map(float, X[:, j])) for j in range(M)), list(map(float, t[:, 0])),
             list(map(float, y))],
        )
        schema = {"target": "y", "numeric": xcols, "task_coords": ["t"]}
        task_kernel = {"type": "matern", "nu": 1.5, "lengthscale": 1.0, "amplitude": 1.0}
        spec_dict = {
            "instance_kernel": {"type": "matern", "nu": 1.5, "lengthscale": 1.0, "amplitude": 1.0},
            "task_kernel": task_kernel,
        }
        method = "vcgp-mat"
        if name == "reg-gradient":
            problem = "regression"
            tuning = {"method": "gradient", "n_restarts": 3, "max_iter": 10, "grad_tol": 1e-12}
        elif name == "cls-grid":
            problem = "classification"
            tuning = {"method": "grid",
                      "grid": {"task.lengthscale": [0.1, 0.3, 1.0], "tau2": [0.05, 0.2]}}
        else:
            problem = "classification"
            tuning = {"method": "none"}

    fitc_p = None
    model = {"task_kernel": task_kernel, "tau2": 0.1,
             "instance_matern": {"nu": 1.5, "lengthscale": 1.0}}
    if name == "fitc-cls":
        fitc_p = FITC_P_TOY if toy else FITC_P
        model["fitc"] = {"p": fitc_p, "seed": 0}
    config = {
        "seed": int(seed),
        "problem": problem,
        "methods": [method],
        "dataset": {"csv": csv_path, "schema": schema, "policy": policy},
        "split": {"kfold": {"k": sizes["folds"]}},
        "train_sizes": [sizes["n_run"]],
        "model": model,
        "tuning": tuning,
    }
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)  # JSON is valid YAML
    return Workload(
        name=name, problem=problem, sizes=sizes, csv_path=csv_path, config_path=config_path,
        config=config, schema=schema, policy=policy, spec_dict=spec_dict, tau2=0.1,
        fitc_p=fitc_p, f_true=f, y=y, tree_parent=tree_parent, tree_sigma=tree_sigma,
    )
