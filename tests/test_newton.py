"""Tests for the damped Newton solver."""

import numpy as np
import pytest

from repro.linalg import ConvergenceError, NewtonOptions, newton_solve


class TestNewtonScalarVector:
    def test_linear_system_one_step(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        res = newton_solve(lambda x: A @ x - b, lambda x: A, np.zeros(2))
        assert res.converged
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b), rtol=1e-10)
        assert res.iterations <= 2

    def test_sqrt_via_newton(self):
        res = newton_solve(
            lambda x: np.array([x[0] ** 2 - 2.0]),
            lambda x: np.array([[2.0 * x[0]]]),
            np.array([1.0]),
        )
        assert res.converged
        np.testing.assert_allclose(res.x[0], np.sqrt(2.0), rtol=1e-9)

    def test_exponential_needs_damping(self):
        # f(x) = exp(x) - 1e-6: undamped Newton from x=30 overshoots wildly
        res = newton_solve(
            lambda x: np.array([np.exp(np.clip(x[0], -700, 700)) - 1e-6]),
            lambda x: np.array([[np.exp(np.clip(x[0], -700, 700))]]),
            np.array([5.0]),
            NewtonOptions(maxiter=200, abstol=1e-12),
        )
        assert res.converged
        np.testing.assert_allclose(res.x[0], np.log(1e-6), rtol=1e-6)

    def test_dx_limit(self):
        calls = []

        def residual(x):
            calls.append(x.copy())
            return np.array([1e8 * x[0] - 1.0])

        res = newton_solve(
            residual,
            lambda x: np.array([[1e8]]),
            np.array([0.0]),
            NewtonOptions(dx_limit=1e-3, maxiter=100, abstol=1e-12),
        )
        assert res.converged

    def test_failure_raises(self):
        with pytest.raises(ConvergenceError):
            newton_solve(
                lambda x: np.array([x[0] ** 2 + 1.0]),  # no real root
                lambda x: np.array([[2.0 * x[0] + 1e-3]]),
                np.array([1.0]),
                NewtonOptions(maxiter=15),
            )

    def test_sparse_jacobian(self):
        import scipy.sparse as sp

        A = sp.diags([3.0, 5.0, 7.0]).tocsr()
        b = np.array([3.0, 10.0, 21.0])
        res = newton_solve(lambda x: A @ x - b, lambda x: A, np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 2.0, 3.0], rtol=1e-10)

    def test_history_recorded(self):
        A = np.eye(2) * 2
        b = np.ones(2)
        res = newton_solve(lambda x: A @ x - b, lambda x: A, np.zeros(2))
        assert len(res.history) >= 1
        assert res.history[-1] <= 1e-9


class TestFailureDiagnostics:
    """Newton must fail fast — with a best-effort payload — instead of
    looping on non-finite residuals until maxiter."""

    def test_nan_residual_fails_fast_with_payload(self):
        calls = {"n": 0}

        def residual(x):
            calls["n"] += 1
            return np.full(2, np.nan)

        with pytest.raises(ConvergenceError, match="not finite") as err:
            newton_solve(residual, lambda x: np.eye(2), np.zeros(2),
                         NewtonOptions(maxiter=100))
        # far fewer evaluations than maxiter * backtracks would allow
        assert calls["n"] < 30
        assert err.value.best_x is not None
        assert err.value.iterations is not None

    def test_residual_turning_nan_mid_solve(self):
        # healthy for the first iterate, NaN afterwards: the solver must
        # report the last finite residual in its payload
        def residual(x):
            if np.linalg.norm(x) < 0.5:
                return x - 2.0
            return np.full_like(x, np.nan)

        with pytest.raises(ConvergenceError) as err:
            newton_solve(residual, lambda x: np.eye(2), np.zeros(2))
        assert np.isfinite(err.value.best_norm)

    def test_singular_jacobian_payload(self):
        with pytest.raises(ConvergenceError, match="singular") as err:
            newton_solve(
                lambda x: x - 1.0,
                lambda x: np.zeros((2, 2)),
                np.zeros(2),
            )
        np.testing.assert_array_equal(err.value.best_x, np.zeros(2))
