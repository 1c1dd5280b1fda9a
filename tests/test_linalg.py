import numpy as np
import pytest

from pintbench.linalg import (
    MaxItersExceeded,
    NewtonSettings,
    NumericBreakdown,
    newton_solve,
)


class TestNewton:
    def test_linear_problem_single_iteration(self):
        x, iters = newton_solve(lambda v: v - 5.0, [0.0], jacobian=lambda v: np.array([[1.0]]))
        assert iters == 1
        assert abs(x[0] - 5.0) < 1e-12

    def test_linear_problem_fd_jacobian(self):
        # differencing noise can cost one extra polishing iteration
        x, iters = newton_solve(lambda v: v - 5.0, [0.0])
        assert iters <= 2
        assert abs(x[0] - 5.0) <= 2e-10

    def test_quadratic_root(self):
        settings = NewtonSettings(abs_tol=1e-12)
        x, iters = newton_solve(lambda v: v**2 - 4.0, [3.0], settings)
        assert iters <= 8
        assert abs(x[0] - 2.0) < 1e-10

    def test_quadratic_convergence_rate(self):
        # once below 1e-3 the residual must square per step with a modest constant
        history = []
        settings = NewtonSettings(abs_tol=1e-14)
        newton_solve(lambda v: v**2 - 4.0, [3.0], settings, history=history)
        tail = [r for r in history if 0.0 < r <= 1e-3]
        assert len(tail) >= 1
        idx = history.index(tail[0])
        for r_k, r_next in zip(history[idx:], history[idx + 1:]):
            if r_k == 0.0:
                break
            assert r_next <= 10.0 * r_k**2

    def test_no_real_root_fails(self):
        with pytest.raises((NumericBreakdown, MaxItersExceeded)):
            newton_solve(lambda v: v**2 + 1.0, [0.0])

    def test_analytic_jacobian_path(self):
        x, iters = newton_solve(
            lambda v: v**2 - 4.0,
            [3.0],
            NewtonSettings(abs_tol=1e-12),
            jacobian=lambda v: np.array([[2.0 * v[0]]]),
        )
        assert abs(x[0] - 2.0) < 1e-12

    def test_nonfinite_start_rejected(self):
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v * np.nan, [1.0])
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v, [np.nan, 1.0])
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v, [np.inf])

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            newton_solve(lambda v: v, [])

    def test_system_root(self):
        # intersect a circle with a line: x^2 + y^2 = 2, x = y
        def residual(v):
            return np.array([v[0] ** 2 + v[1] ** 2 - 2.0, v[0] - v[1]])

        x, _ = newton_solve(residual, [2.0, 0.5], NewtonSettings(abs_tol=1e-13))
        assert np.allclose(x, [1.0, 1.0], atol=1e-10)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iters=0)
        with pytest.raises(ValueError):
            NewtonSettings(damping_min=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(damping_min=2.0)
        with pytest.raises(ValueError):
            NewtonSettings(rel_tol=-1.0)
