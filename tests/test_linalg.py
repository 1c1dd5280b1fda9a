import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra import numpy as hnp
except ImportError:  # the property test needs hypothesis; the rest does not
    given = None

from pintbench.linalg import (
    MAX_ITERS,
    TOL,
    MaxItersExceeded,
    NumericBreakdown,
    as_vector,
    matrix_vector,
    newton_solve,
)


class TestNewton:
    def test_linear_problem_single_iteration(self):
        x, iters = newton_solve(lambda v: v - 5.0, [0.0], jacobian_inverse=np.array([[1.0]]))
        assert iters == 1
        assert abs(x[0] - 5.0) < 1e-12

    def test_quadratic_root(self):
        # with the inverse frozen at x0 = 3 the error shrinks by |1 - 4/6| = 1/3 per
        # step, and stops once |x^2 - 4| = |x - 2| (x + 2) is at most TOL
        x, iters = newton_solve(lambda v: v**2 - 4.0, [3.0], jacobian_inverse=np.array([[1.0 / 6.0]]))
        assert iters == 22
        assert abs(x[0] - 2.0) <= TOL / 4.0

    def test_no_real_root_fails(self):
        with pytest.raises((NumericBreakdown, MaxItersExceeded)):
            newton_solve(lambda v: v**2 + 1.0, [1.0], jacobian_inverse=np.array([[0.5]]))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v * np.nan, [1.0], jacobian_inverse=np.eye(1))
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v, [np.nan, 1.0], jacobian_inverse=np.eye(2))
        with pytest.raises(NumericBreakdown):
            newton_solve(lambda v: v, [np.inf], jacobian_inverse=np.eye(1))

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            newton_solve(lambda v: v, [], jacobian_inverse=np.eye(0))

    def test_system_root(self):
        # intersect a circle with a line: x^2 + y^2 = 2, x = y
        def residual(v):
            return np.array([v[0] ** 2 + v[1] ** 2 - 2.0, v[0] - v[1]])

        # the Jacobian [[2x, 2y], [1, -1]] at the start
        inverse = np.linalg.inv(np.array([[4.0, 1.0], [1.0, -1.0]]))
        x, _ = newton_solve(residual, [2.0, 0.5], jacobian_inverse=inverse)
        assert np.allclose(x, [1.0, 1.0], atol=1e-10)

    def test_budget_exhausted_raises_max_iters_exceeded(self):
        # the inverse is that of a Jacobian ten times too steep, so each full step closes a tenth of the gap
        residual_calls = []

        def residual(v):
            residual_calls.append(1)
            return v - 5.0

        with pytest.raises(MaxItersExceeded, match=r"^no convergence in 25 iterations"):
            newton_solve(residual, [0.0], jacobian_inverse=np.array([[0.1]]))
        assert MAX_ITERS == 25 and len(residual_calls) == 1 + MAX_ITERS


class TestFiniteness:
    """Finiteness is read off the squared norms; the messages are those of an entrywise scan."""

    HUGE = np.array([1e200, -1e200, 3e200])  # finite, but the squared norm overflows

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_is_not_a_breakdown(self):
        assert as_vector(self.HUGE) is self.HUGE
        # the start residual's norm overflows to inf; the first full step lands on the root
        x, iters = newton_solve(lambda v: v, self.HUGE, jacobian_inverse=np.eye(3))
        assert iters == 1 and not x.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_keep_their_messages(self, bad):
        vec = np.array([1.0, bad, 2.0])
        with pytest.raises(NumericBreakdown, match=r"^start contains NaN or Inf entries$"):
            as_vector(vec, "start")
        with pytest.raises(NumericBreakdown, match=r"^x0 contains NaN or Inf entries$"):
            newton_solve(lambda v: v, vec, jacobian_inverse=np.eye(3))
        with pytest.raises(NumericBreakdown, match=r"^residual not finite at starting point$"):
            newton_solve(lambda v: v * vec, [1.0, 1.0, 1.0], jacobian_inverse=np.eye(3))
        with pytest.raises(NumericBreakdown, match=r"^non-finite Newton direction$"):
            newton_solve(lambda v: v - 1.0, [0.0, 0.0, 0.0], jacobian_inverse=np.diag(vec))
        with pytest.raises(NumericBreakdown, match=r"^residual not finite after damping to 0\.015625$"):
            newton_solve(lambda v: v - 1.0 if v[0] == 0.0 else v * vec, [0.0, 0.0, 0.0],
                         jacobian_inverse=np.eye(3))

    def test_converged_start_is_returned_as_is(self):
        x0 = np.array([5.0])
        x, iters = newton_solve(lambda v: v - 5.0, x0, jacobian_inverse=np.eye(1))
        assert iters == 0 and x is x0


@pytest.mark.skipif(given is None, reason="needs hypothesis")
class TestNormIdiom:
    """``math.sqrt(v.dot(v))``, the norm every caller takes, is ``np.linalg.norm(v)`` bit for bit."""

    if given is not None:
        ENTRIES = st.one_of(
            st.floats(width=64),  # NaN and +-Inf included
            st.floats(min_value=-1e-300, max_value=1e-300),  # tiny: squares underflow
            st.floats(min_value=1e150, max_value=1e308),  # huge: squares overflow
            st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
        )

        @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
        @given(hnp.arrays(np.float64, st.integers(1, 64), elements=ENTRIES))
        def test_equals_numpy_norm(self, v):
            # compared as bits, so NaN and the sign of a zero count too
            assert np.float64(math.sqrt(v.dot(v))).tobytes() == np.float64(np.linalg.norm(v)).tobytes()


@pytest.mark.skipif(given is None, reason="needs hypothesis")
class TestDotIdiom:
    """``ndarray.dot`` returns the bits of ``@`` on every product the hot paths take, but a 1 x 1 matrix's."""

    if given is not None:

        @staticmethod
        @st.composite
        def operands(draw):
            # a C-contiguous read-only square matrix, as the hot paths hold, and a
            # vector twice its size, taken both contiguous and strided
            n = draw(st.one_of(st.integers(1, 4), st.integers(1, 128)))  # 1 x 1 matrices often
            matrix = draw(hnp.arrays(np.float64, (n, n), elements=TestNormIdiom.ENTRIES))
            matrix.setflags(write=False)
            vector = draw(hnp.arrays(np.float64, 2 * n, elements=TestNormIdiom.ENTRIES))
            return matrix, vector

        @settings(max_examples=200, deadline=None)
        @given(operands())
        def test_equals_matmul_as_bytes(self, operands):
            matrix, vector = operands
            n = matrix.shape[0]
            for v in (vector[:n], vector[::2]):
                with np.errstate(all="ignore"):  # NaN, Inf and overflowing products
                    expected = (matrix @ v).tobytes()
                    assert matrix_vector(matrix)(v).tobytes() == expected
                    if n > 1:
                        assert matrix.dot(v).tobytes() == expected
                    assert np.float64(v.dot(v)).tobytes() == np.float64(v @ v).tobytes()


def test_a_1x1_dot_keeps_the_sign_of_a_zero_product():
    # why matrix_vector keeps np.matmul for a 1 x 1 matrix: dot multiplies,
    # where the gemv behind @ adds the product to 0.0
    matrix, v = np.array([[2.0]]), np.array([-0.0])
    assert np.signbit(matrix.dot(v)[0]) and not np.signbit((matrix @ v)[0])
    assert not np.signbit(matrix_vector(matrix)(v)[0])
