import re

import numpy as np
import pytest
import scipy.linalg

from vcgp._linalg import (
    JITTER_MAX,
    JITTER_START,
    NumericalError,
    chol_with_jitter,
    solve_chol,
    solve_lower,
    solve_upper,
)


def spd(n, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n + 3))
    A = X @ X.T / n + 0.1 * np.eye(n)
    # an upper triangle that differs from the lower one in the last bits:
    # only the lower triangle may be read
    A[np.triu_indices(n, 1)] *= 1.0 + 4e-16
    return A


class TestCholWithJitter:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_factor_bit_equal_to_scipy_in_place_or_not(self, n):
        A = spd(n, seed=n)
        want = scipy.linalg.cholesky(A, lower=True)
        L, jitter = chol_with_jitter(A)
        assert jitter == 0.0 and np.array_equal(L, want)
        B = A.copy()
        L, jitter = chol_with_jitter(B, overwrite=True)
        assert jitter == 0.0 and np.array_equal(L, want)
        assert np.shares_memory(L, B) and L.flags.f_contiguous

    def test_copy_leaves_input_alone(self):
        A = spd(30)
        before = A.copy()
        chol_with_jitter(A)
        assert np.array_equal(A, before)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_jitter_escalation_on_non_psd_input(self, overwrite):
        # K = KX (x) G over repeated instances with G indefinite by 2e-5:
        # the factorization fails until the jitter reaches 1e-4 * mean(diag)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2))
        X = np.vstack([x, x])
        G = np.array([[1.0, 1.0 + 2e-5], [1.0 + 2e-5, 1.0]])
        T = np.repeat([0, 1], 4)
        A = (X @ X.T) * G[np.ix_(T, T)] + 1e-6 * np.eye(8)
        A[np.triu_indices(8, 1)] *= 1.0 + 4e-16
        base = np.mean(np.diag(A))
        B = A.copy()
        L, jitter = chol_with_jitter(B, overwrite=overwrite)
        assert JITTER_START * base < jitter <= JITTER_MAX * base
        # the step before on the 10x ladder does not factorize
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.tril(A) + np.tril(A, -1).T + 0.1 * jitter * np.eye(8))
        want = scipy.linalg.cholesky(A + jitter * np.eye(8), lower=True)
        assert np.array_equal(L, want)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_indefinite_beyond_the_cap_raises(self, overwrite):
        A = np.array([[1.0, 5.0], [5.0, 1.0]])
        with pytest.raises(NumericalError, match="my matrix"):
            chol_with_jitter(A, context="my matrix", overwrite=overwrite)

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize(
        "where, value", [((0, 0), np.nan), ((2, 1), np.nan), ((3, 3), np.inf), ((3, 0), -np.inf)]
    )
    def test_non_finite_entries_are_rejected(self, overwrite, where, value):
        A = spd(5)
        A[where] = A[where[::-1]] = value
        with pytest.raises(ValueError, match="non-finite"):
            chol_with_jitter(A, overwrite=overwrite)

    def test_empty(self):
        L, jitter = chol_with_jitter(np.zeros((0, 0)), overwrite=True)
        assert L.shape == (0, 0) and jitter == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [9, 130])
    def test_non_finite_anywhere_in_the_lower_triangle_is_rejected(self, n, value):
        # the solves trust every factor made here to be finite
        A = spd(n, seed=n)
        positions = np.transpose(np.tril_indices(n))
        if n > 9:  # corners, block edges and a sample
            rng = np.random.default_rng(1)
            positions = [(n - 1, 0), (64, 63), (64, 64), (n - 1, n - 1), (65, 1),
                         *positions[rng.choice(len(positions), 40, replace=False)]]
        for i, j in positions:
            B = A.copy()
            B[i, j] = value
            with pytest.raises(ValueError, match="non-finite"):
                chol_with_jitter(B)


class TestSolves:
    def setup_method(self):
        self.L = chol_with_jitter(spd(70, seed=4))[0]
        self.b = np.random.default_rng(5).standard_normal((70, 3))

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_bit_equal_to_scipy_with_its_checks(self, order):
        L = np.asarray(self.L, order=order)
        wide = np.random.default_rng(6).standard_normal((70, 8))
        right_hand_sides = {
            "1-D": self.b[:, 0].copy(),
            "2-D": self.b,
            "Fortran-ordered": np.asfortranarray(self.b),
            "non-contiguous": wide[:, ::3],
            "no columns": wide[:, :0],
        }
        for name, b in right_hand_sides.items():
            got = (solve_lower(L, b), solve_upper(L.T, b), solve_chol(L, b))
            want = (
                scipy.linalg.solve_triangular(L, b, lower=True),
                scipy.linalg.solve_triangular(L.T, b, lower=False),
                scipy.linalg.cho_solve((L, True), b),
            )
            for g, w in zip(got, want):
                assert g.shape == b.shape and np.array_equal(g, w), name

    @pytest.mark.parametrize("solve", [solve_lower, solve_upper, solve_chol])
    def test_wrong_length_right_hand_side_raises_silently(self, solve, capfd):
        L = self.L.T if solve is solve_upper else self.L
        for b in (self.b[:69], self.b[:69, 0]):
            with pytest.raises(ValueError, match=re.escape(f"(70, 70) and right-hand side of shape {b.shape}")):
                solve(L, b)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("solve", [solve_lower, solve_upper])
    def test_zero_on_the_diagonal_raises(self, solve, order):
        L = np.array(self.L, order=order)
        L[40, 40] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 40"):
            solve(L.T if solve is solve_upper else L, self.b)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [solve_lower, solve_upper, solve_chol])
    def test_non_finite_right_hand_side_raises(self, solve, value):
        L = self.L.T if solve is solve_upper else self.L
        for b in (self.b.copy(), self.b[:, 0].copy()):
            b.flat[-1] = value
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(L, b)
