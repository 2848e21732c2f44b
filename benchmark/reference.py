"""Reference computations made apart from the program, and the checks on them.

Nothing here imports ``vcgp``.  The serving checks recompute the posterior
of the serving model with dense numpy code of this file's own:

* ``reg-gradient`` -- Matern x Matern product kernel and a Cholesky solve;
* ``cls-grid`` -- the Laplace mode by plain Newton iteration (Rasmussen &
  Williams 2006, Alg. 3.1) and the logistic-Gaussian integral by the
  trapezoid rule on a wide grid, not Gauss-Hermite nodes;
* ``fitc-cls`` -- the FITC surrogate ``Q + diag(K - Q) + tau2 I`` built
  from this file's kernel, then the same Newton iteration;
* ``tree-tasks`` -- the weight-space posterior of the hierarchical model,
  whose prior precision comes straight from the generating parent map.
  Theorem 1 of the paper says it equals the GP with the tree task kernel.

The experiment check compares ``vcgp run``'s mean loss with the Bayes
predictor of the generating process (the true latent values).
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.linalg

# serving outputs must match the reference to within these
TOL_MEAN = 1e-6      # relative to 1 + |value|, regression mean and variance
TOL_PROBA = 1e-6     # absolute, class-1 probability
# vcgp run: mean loss in [oracle - LOW * gap, oracle + sizes["loss_margin"] * gap]
# where gap = trivial loss - oracle loss
LOSS_MARGIN_LOW = 0.1


def matern15(Z1: np.ndarray, Z2: np.ndarray, ls: float, amp: float) -> np.ndarray:
    sq = (Z1 * Z1).sum(1)[:, None] + (Z2 * Z2).sum(1)[None, :] - 2.0 * Z1 @ Z2.T
    d = math.sqrt(3.0) * np.sqrt(np.maximum(sq, 0.0)) / ls
    return amp * amp * (1.0 + d) * np.exp(-d)


def _kernel(spec: dict, X1, T1, X2, T2) -> np.ndarray:
    ik, tk = spec["instance_kernel"], spec["task_kernel"]
    for k in (ik, tk):
        if k["type"] == "matern" and float(k["nu"]) != 1.5:
            raise ValueError("the reference kernel covers nu = 1.5 only")
    kx = matern15(X1, X2, ik["lengthscale"], ik["amplitude"]) if ik["type"] == "matern" \
        else X1 @ X2.T
    return kx * matern15(T1, T2, tk["lengthscale"], tk["amplitude"])


def _standardized_columns(wl):
    """(X, task column, y) of every CSV row; X z-scored on the serving rows.

    This redoes the program's preprocessing: numeric columns z-scored with
    the training rows' mean and population standard deviation.
    """
    m, n = len(wl.schema["numeric"]), wl.sizes["n_serve"]
    raw = np.loadtxt(wl.csv_path, delimiter=",", skiprows=1)
    X = raw[:, :m]
    mean, std = X[:n].mean(0), X[:n].std(0)
    return (X - mean) / np.where(std > 0, std, 1.0), raw[:, m:m + 1], raw[:, m + 1]


def serving_inputs(wl) -> dict:
    """The serving model's training rows and queries as the program sees them."""
    n, q = wl.sizes["n_serve"], wl.sizes["queries"]
    X, T, y = _standardized_columns(wl)
    out = {"X": X[:n], "T": T[:n], "y": y[:n], "Xq": X[n:n + q], "Tq": T[n:n + q]}
    if wl.problem == "classification":
        out["y"] = (y[:n] > np.median(y[:n])).astype(float)
    return out


def _chol_solve(L, b):
    return scipy.linalg.solve_triangular(L.T, scipy.linalg.solve_triangular(L, b, lower=True))


def gp_regression(wl, d) -> tuple[np.ndarray, np.ndarray]:
    K = _kernel(wl.spec_dict, d["X"], d["T"], d["X"], d["T"])
    L = np.linalg.cholesky(K + wl.tau2 * np.eye(K.shape[0]))
    Ks = _kernel(wl.spec_dict, d["X"], d["T"], d["Xq"], d["Tq"])
    V = scipy.linalg.solve_triangular(L, Ks, lower=True)
    prior = np.diag(_kernel(wl.spec_dict, d["Xq"], d["Tq"], d["Xq"], d["Tq"]))
    return Ks.T @ _chol_solve(L, d["y"]), prior - (V * V).sum(0)


def laplace_newton(A: np.ndarray, y: np.ndarray, tol: float = 1e-11, max_iter: int = 100):
    """Mode of the logistic-likelihood posterior with prior N(0, A); returns (f, pi)."""
    f = np.zeros_like(y)
    for _ in range(max_iter):
        pi = 1.0 / (1.0 + np.exp(-f))
        sw = np.sqrt(pi * (1.0 - pi))
        L = np.linalg.cholesky(np.eye(y.size) + sw[:, None] * A * sw[None, :])
        b = pi * (1.0 - pi) * f + (y - pi)
        a = b - sw * _chol_solve(L, sw * (A @ b))
        f_new = A @ a
        if np.max(np.abs(f_new - f)) < tol:
            f = f_new
            break
        f = f_new
    else:
        raise RuntimeError("reference Newton iteration did not converge")
    return f, 1.0 / (1.0 + np.exp(-f))


def logistic_gaussian(mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """E[sigmoid(z)], z ~ N(mu, var), by the trapezoid rule over mu +- 12 sd."""
    u = np.linspace(-12.0, 12.0, 4001)
    z = mu[:, None] + np.sqrt(var)[:, None] * u[None, :]
    w = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return np.trapezoid(w / (1.0 + np.exp(-z)), u, axis=1)


def _laplace_predict(A, Ks, prior, y) -> np.ndarray:
    f, pi = laplace_newton(A, y)
    mu = Ks.T @ (y - pi)
    W = pi * (1.0 - pi)
    # latent variance: prior - Ks^T (A + W^-1)^-1 Ks
    var = prior - (Ks * np.linalg.solve(A + np.diag(1.0 / W), Ks)).sum(0)
    return logistic_gaussian(mu, var)


def gp_laplace(wl, d) -> np.ndarray:
    K = _kernel(wl.spec_dict, d["X"], d["T"], d["X"], d["T"])
    A = K + wl.tau2 * np.eye(K.shape[0])
    Ks = _kernel(wl.spec_dict, d["X"], d["T"], d["Xq"], d["Tq"])
    prior = np.diag(_kernel(wl.spec_dict, d["Xq"], d["Tq"], d["Xq"], d["Tq"])) + wl.tau2
    return _laplace_predict(A, Ks, prior, d["y"])


def fitc_laplace(wl, d, inducing: list[int]) -> np.ndarray:
    Xu, Tu = d["X"][inducing], d["T"][inducing]
    Kuu = _kernel(wl.spec_dict, Xu, Tu, Xu, Tu)
    Kun = _kernel(wl.spec_dict, Xu, Tu, d["X"], d["T"])
    Q = Kun.T @ np.linalg.solve(Kuu, Kun)
    kdiag = np.diag(_kernel(wl.spec_dict, d["X"][:1], d["T"][:1], d["X"][:1], d["T"][:1]))[0]
    A = Q - np.diag(np.diag(Q)) + np.diag(kdiag + wl.tau2 * np.ones(Q.shape[0]))
    Ks = Kun.T @ np.linalg.solve(Kuu, _kernel(wl.spec_dict, Xu, Tu, d["Xq"], d["Tq"]))
    prior = np.full(d["Xq"].shape[0], kdiag + wl.tau2)
    return _laplace_predict(A, Ks, prior, d["y"])


def tree_weight_space(wl) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of the stacked node coefficients, predicted at the queries.

    The prior precision of the node coefficients follows from the generating
    process: node 1 ~ N(0, s_1^2 I), node l ~ N(node pa(l), s_l^2 I).
    """
    n, q = wl.sizes["n_serve"], wl.sizes["queries"]
    X, task, y = _standardized_columns(wl)
    task = task[:, 0].astype(int)
    k, m = len(wl.tree_sigma), X.shape[1]
    prec = np.zeros((k, k))
    prec[0, 0] = 1.0 / wl.tree_sigma[0] ** 2
    for child, pa in wl.tree_parent.items():
        e = np.zeros(k)
        e[child - 1], e[pa - 1] = 1.0, -1.0
        prec += np.outer(e, e) / wl.tree_sigma[child - 1] ** 2

    def features(rows):
        Phi = np.zeros((rows.size, k * m))
        for r, i in enumerate(rows):
            Phi[r, (task[i] - 1) * m:task[i] * m] = X[i]
        return Phi

    Phi = features(np.arange(n))
    P = np.kron(prec, np.eye(m)) + Phi.T @ Phi / wl.tau2
    L = np.linalg.cholesky(P)
    w_mean = _chol_solve(L, Phi.T @ y[:n] / wl.tau2)
    Phiq = features(np.arange(n, n + q))
    V = scipy.linalg.solve_triangular(L, Phiq.T, lower=True)
    return Phiq @ w_mean, (V * V).sum(0)


def check_serving(wl, outputs: list, inducing) -> list[str]:
    """Compare the first round of serving outputs with the reference; list failures."""
    if wl.name == "tree-tasks":
        ref = tree_weight_space(wl)
    elif wl.name == "reg-gradient":
        ref = gp_regression(wl, serving_inputs(wl))
    elif wl.name == "cls-grid":
        ref = (gp_laplace(wl, serving_inputs(wl)),)
    else:
        ref = (fitc_laplace(wl, serving_inputs(wl), inducing),)
    return compare(wl.problem, outputs, ref)


def compare(problem: str, outputs: list, ref) -> list[str]:
    errors = []
    names = ("p1",) if problem == "classification" else ("mean", "latent_var")
    if len(outputs) != len(names):
        return [f"expected outputs {names}, got {len(outputs)} columns"]
    for name, got, want in zip(names, outputs, ref):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            errors.append(f"{name}: {got.size} values, reference has {want.size}")
            continue
        if problem == "classification":
            err = np.abs(got - want)
            tol = TOL_PROBA
        else:
            err = np.abs(got - want) / (1.0 + np.abs(want))
            tol = TOL_MEAN
        if not np.all(np.isfinite(got)) or err.max() > tol:
            i = int(np.nanargmax(err)) if np.isfinite(err).any() else 0
            errors.append(f"{name}[{i}] = {got[i]!r}, reference {want[i]!r} "
                          f"(error {err[i]:.3g} > {tol:g})")
    return errors


def oracle_losses(wl) -> tuple[float, float]:
    """(Bayes predictor's loss, trivial predictor's loss) over every row.

    k-fold test sets partition the rows, so the mean over folds of the
    program's loss estimates the same quantity over the same rows.
    """
    y, f = wl.y, wl.f_true
    if wl.problem == "classification":
        cut = np.median(y)
        labels = y > cut
        return float(np.mean((f > cut) != labels)), 0.5
    return float(np.mean(np.abs(f - y))), float(np.mean(np.abs(y - y.mean())))


def check_results(wl, path: str) -> tuple[list[str], float | None]:
    """Every expected row is present with a finite loss near the oracle's."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"no results file: {exc}"], None
    folds, n = wl.sizes["folds"], wl.sizes["n_run"]
    method = wl.config["methods"][0]
    metric = "zero_one" if wl.problem == "classification" else "mae"
    want = {(method, str(n), str(f), metric) for f in range(folds)}
    got = {(r["method"], r["n"], r["fold"], r["metric"]) for r in rows}
    errors = []
    if got != want or len(rows) != folds:
        errors.append(f"results rows {sorted(got)} differ from expected {sorted(want)}")
    values = np.array([float(r["value"]) for r in rows]) if rows else np.array([np.nan])
    if not np.all(np.isfinite(values)):
        errors.append("a results row has a non-finite loss")
        return errors, None
    loss = float(values.mean())
    oracle, trivial = oracle_losses(wl)
    gap = trivial - oracle
    lo, hi = oracle - LOSS_MARGIN_LOW * gap, oracle + wl.sizes["loss_margin"] * gap
    if not lo <= loss <= hi:
        errors.append(f"mean {metric} {loss:.4f} outside [{lo:.4f}, {hi:.4f}] "
                      f"(oracle {oracle:.4f}, trivial {trivial:.4f})")
    return errors, loss
