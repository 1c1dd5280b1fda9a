import numpy as np
import pytest

from pintbench.linalg import (
    MaxItersExceeded,
    NewtonSettings,
    NumericBreakdown,
    as_vector,
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


class TestFiniteness:
    """Finiteness is read off the squared norms; the messages are those of an entrywise scan."""

    HUGE = np.array([1e200, -1e200, 3e200])  # finite, but the squared norm overflows

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_is_not_a_breakdown(self):
        assert as_vector(self.HUGE) is self.HUGE
        # the start residual's norm overflows to inf; the first full step lands on the root
        x, iters = newton_solve(lambda v: v, self.HUGE, jacobian=lambda v: np.eye(3))
        assert iters == 1 and not x.any()
        x, iters = newton_solve(lambda v: v, self.HUGE, jacobian_inverse=np.eye(3))
        assert iters == 1 and not x.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_keep_their_messages(self, bad):
        vec = np.array([1.0, bad, 2.0])
        with pytest.raises(NumericBreakdown, match=r"^start contains NaN or Inf entries$"):
            as_vector(vec, "start")
        with pytest.raises(NumericBreakdown, match=r"^x0 contains NaN or Inf entries$"):
            newton_solve(lambda v: v, vec)
        with pytest.raises(NumericBreakdown, match=r"^residual not finite at starting point$"):
            newton_solve(lambda v: v * vec, [1.0, 1.0, 1.0])
        with pytest.raises(NumericBreakdown, match=r"^non-finite Newton direction$"):
            newton_solve(lambda v: v - 1.0, [0.0, 0.0, 0.0], jacobian_inverse=np.diag(vec))
        with pytest.raises(NumericBreakdown, match=r"^residual not finite after damping to 0\.015625$"):
            newton_solve(lambda v: v - 1.0 if v[0] == 0.0 else v * vec, [0.0, 0.0, 0.0],
                         jacobian_inverse=np.eye(3))

    def test_converged_start_is_returned_as_is(self):
        x0 = np.array([5.0])
        x, iters = newton_solve(lambda v: v - 5.0, x0, jacobian_inverse=np.eye(1))
        assert iters == 0 and x is x0
