import math
import tracemalloc
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from pintbench import integrators, problems
from pintbench.integrators import (
    NewtonThetaPropagator,
    NonDivisibleWindow,
    SleepPropagator,
    ThetaSettings,
    TimeStepError,
    convergence_order,
    linear_step_map,
    make_propagator,
)
from pintbench.problems import (
    SineMode,
    Zero,
    advection1d,
    ale_piston,
    dahlquist,
    heat1d,
    initial_state,
)
from pintbench.linalg import MaxItersExceeded, NumericBreakdown
from pintbench.parareal import PararealConfig, run_parareal, sequential_solve
from pintbench.state import State

from oracles import linear_theta_window, newton_theta_window


# one case per problem class, with non-zero heat boundary values and both advection grids
STEP_CASES = pytest.mark.parametrize("problem", [
    dahlquist(), heat1d(mesh_n=15, left_bc=1.0), advection1d(mesh_n=16),
    advection1d(mesh_n=15, periodic=False), ale_piston(mesh_n=15),
], ids=lambda p: f"{p.kind}-periodic" if getattr(p, "periodic", False) else p.kind)


@dataclass(frozen=True)
class Pair(problems._Affine):
    """``y' = A y + b`` with a 2 x 2 ``A``: the smallest state whose step product is a gemv."""

    kind: ClassVar[str] = "pair"

    def layout(self):
        return {"y": (0, 2)}

    def initial_values(self):
        return np.array([1.0, -0.5])

    def _affine(self):
        return np.array([[-1.0, 2.0], [-3.0, -4.0]]), np.array([0.5, 0.0])


def scalar_theta_factor(lam: float, k: float, theta: float) -> float:
    """Exact one-step amplification of the theta scheme on y' = lam*y."""
    return (1.0 + k * (1.0 - theta) * lam) / (1.0 - k * theta * lam)


class TestThetaStep:
    def test_backward_euler_step(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        settings = ThetaSettings(step=0.1, theta0=5.0)  # theta = 1
        out = make_propagator(problem, settings).advance(initial_state(problem), 0.1)
        assert out.time == pytest.approx(0.1, abs=0)
        assert out.values[0] == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_crank_nicolson_step(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        out = make_propagator(problem, ThetaSettings(step=0.1)).advance(initial_state(problem), 0.1)
        assert out.values[0] == pytest.approx(0.95 / 1.05, rel=1e-12)

    def test_steady_state_advances_time_only(self):
        problem = heat1d(mesh_n=7, init=Zero())
        s0 = initial_state(problem)
        out = make_propagator(problem, ThetaSettings(step=0.25)).advance(s0, 0.25)
        assert out.time == 0.25
        assert np.array_equal(out.values, s0.values)

    def test_failure_annotated_with_time_and_step(self):
        problem = ale_piston(mesh_n=7)
        s0 = initial_state(problem)
        broken = s0.with_values(s0.values.copy())
        broken.values[7] = 0.95  # beyond the mesh-degeneracy guard
        with pytest.raises(TimeStepError, match=r"t_n=.*k="):
            make_propagator(problem, ThetaSettings(step=0.01)).advance(broken, 0.01)


    def test_newton_non_convergence_raises_located_step_error(self):
        @dataclass(frozen=True)
        class Riccati:
            """y' = y^2 + 200: from y = 1 the step y - 1 - 0.05 * (f(y) + f(1)) = 0 has no real root."""

            kind: ClassVar[str] = "riccati"
            linear: ClassVar[bool] = False

            def layout(self):
                return {"y": (0, 1)}

            def initial_values(self):
                return np.array([1.0])

            def rhs(self, values, t):
                return values**2 + 200.0

            def jacobian(self, values, t):
                return np.array([[2.0 * values[0]]])

        problem = Riccati()
        with pytest.raises(TimeStepError, match=r"t_n=0\.1, k=0\.1: no convergence in 25 iterations") as info:
            make_propagator(problem, ThetaSettings(step=0.1)).advance(initial_state(problem), 0.1)
        assert isinstance(info.value.__cause__, MaxItersExceeded)

    def test_singular_iteration_matrix_raises_located_step_error(self):
        @dataclass(frozen=True)
        class Square:
            """y' = y^2 from y = 10: at k = 0.1, theta = 1/2 the matrix 1 - 0.05 * 2y is 0 at the step's start."""

            kind: ClassVar[str] = "square"
            linear: ClassVar[bool] = False

            def layout(self):
                return {"y": (0, 1)}

            def initial_values(self):
                return np.array([10.0])

            def rhs(self, values, t):
                return values**2

            def jacobian(self, values, t):
                return np.array([[2.0 * values[0]]])

        problem = Square()
        prop = make_propagator(problem, ThetaSettings(step=0.1))
        with pytest.raises(TimeStepError) as info:
            prop.advance(initial_state(problem), 0.1)
        assert str(info.value) == "implicit step failed at t_n=0.1, k=0.1: singular iteration matrix at k=0.1"
        assert isinstance(info.value.__cause__, NumericBreakdown)
        assert (prop.newton_iterations, prop.steps_taken) == (0, 0)

    @pytest.mark.parametrize("m_s", [5.0, 1000.0])
    @pytest.mark.parametrize("coarse_step", [0.2, 0.4])
    def test_piston_coarse_sweep_completes_at_large_steps(self, m_s, coarse_step):
        # the shipped piston's coarse sweep (horizon 8, 20 windows), each
        # step's Newton iterating with the inverse frozen at its start
        problem = ale_piston(mesh_n=31, m_s=m_s)
        prop = make_propagator(problem, ThetaSettings(step=coarse_step))
        states = sequential_solve(prop, initial_state(problem), [0.4 * l for l in range(21)])
        assert states[-1].time == 8.0 and np.all(np.isfinite(states[-1].values))
        assert prop.steps_taken == round(8.0 / coarse_step)


class TestThetaSettings:
    def test_effective_theta_range_enforced(self):
        with pytest.raises(ValueError):
            ThetaSettings(step=0.1, theta0=-1.0)  # theta = 0.4
        with pytest.raises(ValueError):
            ThetaSettings(step=0.1, theta0=6.0)  # theta = 1.1
        assert ThetaSettings(step=0.1, theta0=5.0).theta == pytest.approx(1.0)
        assert ThetaSettings(step=0.1, theta0=5.0 + 5e-12).theta == 1.0  # rounding excess clamped

    def test_step_positive(self):
        for step in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="step must be (positive|finite)"):
                ThetaSettings(step=step)

    @pytest.mark.parametrize("name,value", [
        ("step", True), ("step", "0.1"), ("step", 0.1j), ("theta0", False), ("theta0", "0"), ("theta0", None),
    ])
    def test_non_real_setting_rejected(self, name, value):
        kwargs = {"step": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            ThetaSettings(**kwargs)

    def test_numpy_reals_accepted(self):
        assert ThetaSettings(step=np.float64(0.1), theta0=np.float32(5.0)).theta == pytest.approx(1.0)
        assert ThetaSettings(step=np.int64(1)).theta == 0.5


# both propagators over the same problem: the window rule is shared
BOTH_PROPAGATORS = pytest.mark.parametrize("prop", [
    make_propagator(dahlquist(), ThetaSettings(step=0.1)),
    SleepPropagator(step=0.1, cost_per_step=0.0),
], ids=["theta", "sleep"])


class TestPropagator:
    @BOTH_PROPAGATORS
    def test_zero_window_returns_input(self, prop):
        s0 = initial_state(dahlquist())
        assert prop.advance(s0, 0.0) is s0

    def test_backward_euler_composition(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        prop = make_propagator(problem, ThetaSettings(step=0.1, theta0=5.0))
        out = prop.advance(initial_state(problem), 0.4)
        assert out.values[0] == pytest.approx(1.0 / 1.1**4, rel=1e-11)
        assert out.time == 0.4

    def test_non_divisible_window_rejected(self):
        problem = dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.1))
        with pytest.raises(NonDivisibleWindow):
            prop.advance(initial_state(problem), 0.25)

    @BOTH_PROPAGATORS
    def test_backwards_window_rejected(self, prop):
        s = initial_state(dahlquist()).with_values(np.array([1.0]), time=1.0)
        with pytest.raises(ValueError, match="from 1.0 to 0.5"):
            prop.advance(s, 0.5)

    def test_determinism_bitwise(self):
        problem = ale_piston(mesh_n=15)
        prop = make_propagator(problem, ThetaSettings(step=0.02))
        s0 = initial_state(problem)
        a = prop.advance(s0, 0.6)
        b = prop.advance(s0, 0.6)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.time == b.time

    def test_time_bookkeeping_exact(self):
        problem = dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.05))
        t_end = 0.7000000000000001
        out = prop.advance(initial_state(problem), t_end)
        assert out.time == t_end

    def test_heat_sine_mode_decay_matches_scalar_map(self):
        # the sine mode is an eigenvector of the central stencil, so the PDE
        # step must reduce to the scalar theta map with the discrete eigenvalue
        n, nu, length, mode = 15, 1.0, 1.0, 1
        problem = heat1d(mesh_n=n, nu=nu, length=length, init=SineMode(mode))
        h = length / (n + 1)
        mu = -(2.0 * nu / h**2) * (1.0 - math.cos(mode * math.pi * h / length))
        k = 0.002
        steps = 10
        prop = make_propagator(problem, ThetaSettings(step=k))
        s0 = initial_state(problem)
        out = prop.advance(s0, steps * k)
        factor = scalar_theta_factor(mu, k, 0.5) ** steps
        assert np.allclose(out.values, factor * s0.values, rtol=1e-9, atol=1e-13)

    def test_a_stability_amplification(self):
        for theta0_scale in (0.0, 0.25, 0.5):  # theta = 1/2, 3/4, 1 at k=1
            for lam_k in (0.1, 1.0, 10.0, 100.0, 1e4):
                problem = dahlquist(lam=-lam_k, y0=1.0)
                settings = ThetaSettings(step=1.0, theta0=theta0_scale)
                out = make_propagator(problem, settings).advance(initial_state(problem), 1.0)
                assert abs(out.values[0]) <= 1.0 + 1e-9

    def test_newton_iteration_counter(self):
        problem = ale_piston(mesh_n=7)
        prop = make_propagator(problem, ThetaSettings(step=0.05))
        prop.advance(initial_state(problem), 0.5)
        assert prop.steps_taken == 10
        assert prop.newton_iterations >= prop.steps_taken


class TestStepOperator:
    @STEP_CASES
    def test_window_takes_whole_nominal_steps(self, problem):
        # 80 steps of 0.005 with the window end moved 1e-12 early: the window
        # still takes 80 steps of exactly 0.005 and is stamped t_end; it
        # carries the rhs across steps, the chain of single steps evaluates
        # it afresh, and both must give the same bits
        settings = ThetaSettings(step=0.005, theta0=0.5)
        t_end = 0.4 - 1e-12
        prop = make_propagator(problem, settings)
        out = prop.advance(initial_state(problem), t_end)

        one = make_propagator(problem, settings)
        s = initial_state(problem)
        for _ in range(80):
            s = one.advance(s, s.time + settings.step)
        assert s.time != t_end
        assert out.time == t_end
        assert prop.steps_taken == 80
        assert out.values.tobytes() == s.values.tobytes()

    def test_propagators_share_one_read_only_operator(self):
        settings = ThetaSettings(step=0.01, theta0=0.5)
        a = make_propagator(heat1d(mesh_n=15), settings)
        b = make_propagator(heat1d(mesh_n=15), ThetaSettings(step=0.01, theta0=0.5))
        assert a.step_map is b.step_map
        assert a.step_map.shape == (15, 16) and a.step_map.flags.c_contiguous
        assert not a.step_map.flags.writeable
        with pytest.raises(ValueError):
            a.step_map[0, 0] = 0.0
        piston = make_propagator(ale_piston(mesh_n=7), settings)
        assert isinstance(piston, NewtonThetaPropagator) and not hasattr(piston, "step_map")

    @pytest.mark.parametrize("problem", [dahlquist(), Pair(), heat1d(mesh_n=15), heat1d(mesh_n=63),
                                         advection1d(mesh_n=16), advection1d(mesh_n=255, periodic=False)],
                             ids=lambda p: p.kind)
    def test_step_map_starts_on_a_cache_line(self, problem):
        size = initial_state(problem).size
        step_map = linear_step_map(problem, 0.01, 0.5)
        assert step_map.ctypes.data % 64 == 0
        assert step_map.flags.c_contiguous and not step_map.flags.writeable
        assert step_map.shape == (size, size + 1)

    @pytest.mark.parametrize("size,width", [(1, 2), (15, 3), (63, 20), (64, 5), (255, 7)])
    def test_stacked_grid_starts_on_a_cache_line(self, size, width, monkeypatch):
        # the stack's two buffers are one grid; its first buffer, the first
        # product's input, starts on a 64-byte boundary as the map does
        problem = heat1d(mesh_n=size) if size > 1 else dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.01))
        inputs = []
        matmul = np.matmul

        def recording(step_map, x, out):
            inputs.append(x.ctypes.data)
            return matmul(step_map, x, out=out)

        monkeypatch.setattr(np, "matmul", recording)
        s0 = initial_state(problem)
        prop.advance_many([s0] * width, [0.03] * width)
        assert len(inputs) == 3 and inputs[0] % 64 == 0

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255])
    def test_step_map_offset_changes_no_bit(self, size):
        # alignment is a change of speed only: a one-window product through
        # [M | c].dot and a stacked np.matmul give the same bytes wherever
        # the map starts, 0 to 56 bytes past a cache line
        rng = np.random.default_rng(size)
        step_map = rng.standard_normal((size, size + 1))
        flat = np.append(rng.standard_normal(size), 1.0)
        stack = np.concatenate([rng.standard_normal((5, size, 1)), np.ones((5, 1, 1))], axis=1)
        raw = np.empty(step_map.size + 15)
        line = -raw.ctypes.data % 64 // 8
        results = set()
        for skip in range(line, line + 8):
            shifted = raw[skip:skip + step_map.size].reshape(step_map.shape)
            shifted[:] = step_map
            assert shifted.ctypes.data % 64 == 8 * (skip - line)
            one, many = np.empty(size), np.empty((5, size, 1))
            shifted.dot(flat, out=one)
            np.matmul(shifted, stack, out=many)
            results.add((one.tobytes(), many.tobytes()))
        assert len(results) == 1

    def test_propagators_keep_no_step_map_of_their_own(self):
        # a run keeps its propagators, so each one holds the cached step map
        # itself: a copy of heat's 63 x 64 map would keep 32 KB per propagator
        problem = heat1d(mesh_n=63)
        settings = ThetaSettings(step=0.005)
        first = make_propagator(problem, settings)
        assert make_propagator(problem, settings).step_map is first.step_map
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [make_propagator(problem, settings) for _ in range(50)]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(prop.step_map is first.step_map for prop in kept)
        assert grown < 50 * 1024, f"{grown / 50:.0f} bytes per propagator"

    def test_shared_cache_under_thread_contention(self):
        # more distinct step sizes than the cache holds, each built into a
        # propagator and advanced from 8 threads in different orders with
        # frequent thread switches: every result must equal the serial one
        # bit for bit
        import sys
        import threading

        problem = heat1d(mesh_n=7, nu=0.1)
        s0 = initial_state(problem)
        steps = [0.1 / j for j in range(1, 81)]
        assert len(steps) > integrators._STEP_MAP_CACHE_SIZE
        linear_step_map.cache_clear()

        def advance(j):
            return make_propagator(problem, ThetaSettings(step=steps[j])).advance(s0, 0.1).values.tobytes()

        expected = [advance(j) for j in range(80)]
        results, errors = {}, []

        def work(w):
            try:
                for j in range(80):
                    j = (j * 7 + w * 11) % 80
                    results[w, j] = advance(j)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert linear_step_map.cache_info().misses > len(steps)  # step maps were evicted and rebuilt
        assert all(results[w, j] == expected[j] for w in range(8) for j in range(80))

    def test_nan_state_raises_located_step_error(self):
        problem = heat1d(mesh_n=15)
        s0 = initial_state(problem)
        values = s0.values.copy()
        values[3] = np.nan
        with pytest.raises(TimeStepError, match=r"t_n=0\.01, k=0\.01"):
            make_propagator(problem, ThetaSettings(step=0.01)).advance(s0.with_values(values), 0.01)
        with pytest.raises(TimeStepError, match=r"t_n=0\.01, k=0\.01"):
            make_propagator(problem, ThetaSettings(step=0.01)).advance(s0.with_values(values), 0.1)

    @STEP_CASES
    def test_steps_never_difference_numerically(self, problem):
        # Newton takes only the linearization a step hands it: the analytic Jacobian or the frozen inverse
        prop = make_propagator(problem, ThetaSettings(step=0.02))
        out = prop.advance(initial_state(problem), 0.2)
        assert np.all(np.isfinite(out.values))
        assert prop.newton_iterations >= prop.steps_taken == 10

    @STEP_CASES
    def test_window_evaluates_the_rhs_once_outside_newton(self, problem, monkeypatch):
        # a nonlinear step ends holding the rhs at its solution, which the
        # next step starts from; a linear step is its step map and evaluates none
        rhs_calls, residual_calls = [], []
        rhs_values, newton_solve = problems.rhs_values, integrators.newton_solve

        def counted_rhs(*args):
            rhs_calls.append(args[2])
            return rhs_values(*args)

        def counted_newton(residual, *args, **kwargs):
            def counted_residual(y):
                residual_calls.append(1)
                return residual(y)
            return newton_solve(counted_residual, *args, **kwargs)

        monkeypatch.setattr(problems, "rhs_values", counted_rhs)
        monkeypatch.setattr(integrators, "newton_solve", counted_newton)
        n = 12
        make_propagator(problem, ThetaSettings(step=0.02)).advance(initial_state(problem), n * 0.02)
        if problem.linear:
            assert rhs_calls == residual_calls == []
        else:
            assert rhs_calls[0] == 0.0
            assert len(residual_calls) >= 2 * n
            assert len(rhs_calls) == len(residual_calls) + 1


    @STEP_CASES
    def test_strided_state_steps_to_the_bits_of_its_contiguous_copy(self, problem):
        # a state's values may be a strided view, which the products take as
        # it is; NaN between its entries shows a read outside the view
        start = initial_state(problem)
        values = start.values + 0.25 * np.cos(np.arange(start.size))
        buffer = np.full(2 * start.size, np.nan)
        buffer[::2] = values
        strided = [start.with_values(buffer[::2], time=t) for t in (0.0, 0.3)]
        contiguous = [start.with_values(values.copy(), time=t) for t in (0.0, 0.3)]
        ends = [s.time + 6 * 0.02 for s in strided]
        settings = ThetaSettings(step=0.02, theta0=0.5)
        for views, copies in ((strided, contiguous), (strided[:1], contiguous[:1])):
            a, b = make_propagator(problem, settings), make_propagator(problem, settings)
            outs = a.advance_many(views, ends[:len(views)])
            expected = b.advance_many(copies, ends[:len(copies)])
            assert [o.values.tobytes() for o in outs] == [e.values.tobytes() for e in expected]
            for view, copy, t in zip(views, copies, ends):
                assert a.advance(view, t).values.tobytes() == b.advance(copy, t).values.tobytes()


class TestLinearStep:
    """A linear step is the scheme's closed form and nothing more: no residual test, and no ``newton_solve`` call."""

    @staticmethod
    def _count_newton(monkeypatch):
        calls = []
        newton_solve = integrators.newton_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(integrators, "newton_solve", counted)
        return calls

    def test_clean_heat_steps_make_no_newton_call(self, monkeypatch):
        calls = self._count_newton(monkeypatch)
        problem = heat1d(mesh_n=15)
        s0 = initial_state(problem)
        prop = make_propagator(problem, ThetaSettings(step=0.01))
        prop.advance(s0, 0.2)
        prop.advance_many([s0, s0.with_values(-2.0 * s0.values)], [0.2, 0.2])
        assert calls == []
        assert (prop.newton_iterations, prop.steps_taken) == (60, 60)

    LINEAR_CASES = pytest.mark.parametrize("problem", [
        dahlquist(), heat1d(mesh_n=15, left_bc=1.0), advection1d(mesh_n=16), advection1d(mesh_n=15, periodic=False),
    ], ids=lambda p: f"{p.kind}-periodic" if getattr(p, "periodic", False) else p.kind)

    @LINEAR_CASES
    def test_linear_problem_never_calls_newton_solve(self, problem, monkeypatch):
        # through every path a run takes: a window, a block, the sequential
        # solve and the parareal engine, whose fine windows step as blocks
        calls = self._count_newton(monkeypatch)
        s0 = initial_state(problem)
        fine, coarse = (make_propagator(problem, ThetaSettings(step=k)) for k in (0.01, 0.05))
        fine.advance(s0, 0.2)
        fine.advance_many([s0, s0.with_values(0.5 * s0.values)], [0.2, 0.2])
        sequential_solve(fine, s0, [0.0, 0.2, 0.4])
        run_parareal(coarse, fine, s0, 0.4, PararealConfig(intervals=4, max_iters=2, tol=1e-14))
        assert calls == []

    # sizes on both sides of where OpenBLAS's gemv changes its path: the
    # product with [y; 1] has size + 1 columns
    KERNEL_SIZES = pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])

    @staticmethod
    def _problem_of_size(size):
        return {1: dahlquist(lam=-3.0), 2: Pair()}.get(size) or heat1d(mesh_n=size, left_bc=1.0)

    @KERNEL_SIZES
    def test_block_is_the_loop_of_advance_at_every_size(self, size):
        problem = self._problem_of_size(size)
        rng = np.random.default_rng(size)
        base = initial_state(problem)
        states = [base.with_values(rng.standard_normal(size), time=0.2 * j) for j in range(3)]
        ends = [s.time + 0.2 for s in states]
        block, loop = (make_propagator(problem, ThetaSettings(step=0.01, theta0=0.5)) for _ in range(2))
        outs = block.advance_many(states, ends)
        assert [out.values.tobytes() for out in outs] == [loop.advance(s, t).values.tobytes() for s, t in zip(states, ends)]

    @KERNEL_SIZES
    def test_one_product_step_is_within_the_dot_product_bound(self, size):
        # [M | c] @ [y; 1] and M @ y + c each lie within gamma_{size+1}
        # (|M| |y| + |c|) of the exact step (Higham, Accuracy and Stability,
        # section 3.1), so within twice that of each other
        problem = self._problem_of_size(size)
        rng = np.random.default_rng(100 + size)
        prop = make_propagator(problem, ThetaSettings(step=0.01, theta0=0.5))
        matrix, offset = prop.step_map[:, :size], prop.step_map[:, size]
        unit = np.finfo(float).eps / 2
        gamma = (size + 1) * unit / (1 - (size + 1) * unit)
        state = initial_state(problem).with_values(rng.standard_normal(size))
        for _ in range(10):
            y = state.values
            state = prop.advance(state, state.time + prop.step)
            bound = 2 * gamma * (np.abs(matrix) @ np.abs(y) + np.abs(offset))
            assert np.all(np.abs(state.values - (matrix @ y + offset)) <= bound)

    def test_a_1x1_step_keeps_the_sign_of_the_matmul_product(self):
        # y' = 5 y from 0 at k = 1, theta = 1/2: M = -7/3 and c = -0.0. The
        # products M y and c 1 are -0.0, which a gemv adds to +0.0, so the
        # step is +0.0; the map [M | c] is 1 x 2, so ndarray.dot makes that
        # gemv, where it would multiply a 1 x 1 M as a scalar and keep -0.0
        problem = dahlquist(lam=5.0, y0=0.0)
        s0 = initial_state(problem)
        expected, _, failure = linear_theta_window(problem, 1.0, 0.5, s0.values, s0.time, 1)
        assert failure is None and expected.tobytes() == np.zeros(1).tobytes()
        prop = make_propagator(problem, ThetaSettings(step=1.0))
        outs = [prop.advance(s0, 1.0), *prop.advance_many([s0, s0], [1.0, 1.0])]
        assert [out.values.tobytes() for out in outs] == [expected.tobytes()] * 3

    @LINEAR_CASES
    def test_window_values_are_a_vector_that_owns_its_buffer(self, problem):
        # a run keeps its states, so a window's values hold its own entries
        # and nothing of the stack they were stepped in
        s0 = initial_state(problem)
        prop = make_propagator(problem, ThetaSettings(step=0.01))
        out = prop.advance(s0, 0.2)
        assert out.values.shape == (s0.size,)
        assert out.values.base is None and out.values.flags.owndata
        (alone,) = prop.advance_many([s0], [0.2])
        assert alone.values.tobytes() == out.values.tobytes()

    def test_failing_window_raises_the_located_step_error(self):
        # a NaN entry fails the window's first step; y' = 50 y from 1e300
        # grows ninefold a step at k = 0.05, and y itself overflows at step 8
        heat = heat1d(mesh_n=15)
        s0 = initial_state(heat)
        nan = s0.values.copy()
        nan[3] = np.nan
        growth = dahlquist(lam=50.0, y0=1e300)
        cases = [
            (heat, s0.with_values(nan, time=0.3), 0.01, 4, 0, r"t_n=0\.31, k=0\.01"),
            (growth, initial_state(growth), 0.05, 12, 8, r"t_n=0\.44999999999999996, k=0\.05"),
        ]
        for problem, start, step, n, failing, where in cases:
            end = start.time + n * step
            with np.errstate(over="ignore"):
                _, _, failure = linear_theta_window(problem, step, 0.5, start.values, start.time, n)
            assert failure[0] == failing
            for advance in (lambda p: p.advance(start, end), lambda p: p.advance_many([start], [end])[0]):
                prop = make_propagator(problem, ThetaSettings(step=step))
                # the overflowing product, and its Inf times linalg.finite_test's zero
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                        TimeStepError, match=rf"^implicit step failed at {where}: non-finite values$") as info:
                    advance(prop)
                assert str(info.value) == f"implicit step failed at {failure[1]}"
                assert (prop.newton_iterations, prop.steps_taken) == (0, 0)

    # y' = 50 y from 1e300 at k = 0.05 grows ninefold a step and overflows at step 8 of 12
    GROWTH = dahlquist(lam=50.0, y0=1e300)
    OVERFLOW = "implicit step failed at t_n=0.44999999999999996, k=0.05: non-finite values"

    def test_overflow_under_warnings_as_errors_raises_the_located_step_error(self):
        # no np.errstate: numpy's overflow warning, raised as an error from a
        # product, starts the quiet replay that names the step; a second,
        # clean window before the failing one is counted
        start = initial_state(self.GROWTH)
        clean = start.with_values(np.ones(1))
        calls = {
            "advance": (lambda p: p.advance(start, 0.6), 0),
            "advance_many, 1 window": (lambda p: p.advance_many([start], [0.6]), 0),
            "advance_many, 2 windows": (lambda p: p.advance_many([clean, start], [0.6, 0.6]), 12),
            "advance_through": (lambda p: p.advance_through(start, [0.6]), 0),
            "sequential_solve": (lambda p: sequential_solve(p, start, [0.0, 0.6]), 0),
        }
        for name, (call, counted) in calls.items():
            prop = make_propagator(self.GROWTH, ThetaSettings(step=0.05))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TimeStepError) as info:
                    call(prop)
            assert str(info.value) == self.OVERFLOW, name
            assert (prop.newton_iterations, prop.steps_taken) == (counted, counted), name

    def test_raised_underflow_keeps_the_values_of_the_loop(self):
        # y' = -50 y from 1e-300 underflows to subnormals and zero: under
        # np.errstate(under="raise") every product raises FloatingPointError,
        # the replay finds every step finite and keeps its values
        problem = dahlquist(lam=-50.0, y0=1e-300)
        start = initial_state(problem)
        quiet = make_propagator(problem, ThetaSettings(step=0.05))
        expected = quiet.advance_through(start, [1.0, 2.0])
        for name in ("advance", "advance_through"):
            prop = make_propagator(problem, ThetaSettings(step=0.05))
            with np.errstate(under="raise"):
                with pytest.raises(FloatingPointError):
                    prop.step_map.dot(np.array([1e-308, 1.0]))
                if name == "advance":
                    outs = [prop.advance(start, 1.0)]
                    outs.append(prop.advance(outs[0], 2.0))
                else:
                    outs = prop.advance_through(start, [1.0, 2.0])
            assert [out.values.tobytes() for out in outs] == [out.values.tobytes() for out in expected]
            assert expected[-1].values[0] == 0.0 < expected[0].values[0]
            assert (prop.newton_iterations, prop.steps_taken) == (40, 40)

    def test_huge_finite_state_steps_without_a_warning(self):
        # 1e200 times the sine: finite at every step, though its squared norm
        # overflows, so neither a window's nor a block's per-step check may
        # warn
        problem = heat1d(mesh_n=15)
        s0 = initial_state(problem)
        huge = s0.with_values(1e200 * s0.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = make_propagator(problem, ThetaSettings(step=0.01)).advance(huge, 0.04)
            outs = make_propagator(problem, ThetaSettings(step=0.01)).advance_many([huge, huge], [0.04, 0.04])
        assert np.all(np.isfinite(alone.values)) and np.abs(alone.values).max() > 1e199
        assert [out.values.tobytes() for out in outs] == [alone.values.tobytes()] * 2


class TestAdvanceMany:
    """``advance_many`` is ``advance`` on each window, bit for bit; a linear problem's windows step as one block."""

    @staticmethod
    def _windows(problem, values, step, n):
        base = initial_state(problem)
        states = [base.with_values(v, time=0.3 * j) for j, v in enumerate(values)]
        return states, [s.time + n * step for s in states]

    # theta0 0 is Crank-Nicolson, theta 1/2; 0.5 shifts theta above it, to 0.505 at k = 0.01
    THETA0 = pytest.mark.parametrize("theta0", [0.0, 0.5])

    @THETA0
    def test_zero_tiny_and_large_columns_pass_as_one_block(self, theta0):
        # columns at every scale: a zero column stays exactly zero, a 1e-9
        # and a 1e7 column and a 1e6 boundary value take the same exact
        # step as the unit sine, and a 1e200 column is finite though its
        # squared norm would overflow, so the block is kept, no window falls
        # back to advance, and no step warns; states of one and two entries
        # step as a 1 x 1 and a 2 x 2 product, the sizes where a bare
        # ndarray.dot is a scalar product and where it is a gemv
        small = heat1d(mesh_n=15)
        sine = initial_state(small).values
        tiny = 1e-9 * np.sin(7 * np.pi * small.grid())
        large = heat1d(mesh_n=63, left_bc=1e6)
        cases = [
            (small, [sine, np.zeros_like(sine), tiny, 1e7 * sine, 1e200 * sine], 0.01, 20),
            (large, [initial_state(large).values] * 2, 0.005, 20),
            (dahlquist(lam=-3.0), [np.ones(1), np.zeros(1), np.full(1, 1e-9), np.full(1, 1e200)], 0.01, 20),
            (Pair(), [np.array([1.0, -0.5]), np.zeros(2), np.array([1e-9, 1e200])], 0.01, 20),
        ]
        for problem, values, step, n in cases:
            settings = ThetaSettings(step=step, theta0=theta0)
            states, ends = self._windows(problem, values, step, n)
            copies = [s.values.copy() for s in states]
            block, loop = (make_propagator(problem, settings) for _ in range(2))
            block.advance = None
            outs = block.advance_many(states, ends)
            for s, t, out in zip(states, ends, outs):
                expected, _, failure = linear_theta_window(problem, step, settings.theta, s.values, s.time, n)
                assert failure is None
                assert out.values.tobytes() == loop.advance(s, t).values.tobytes() == expected.tobytes()
            assert all(s.values.tobytes() == c.tobytes() for s, c in zip(states, copies))
            if problem is small:
                assert not np.any(outs[1].values)  # an exact zero stays exactly zero
            steps = len(values) * n
            assert (block.newton_iterations, block.steps_taken) == (loop.newton_iterations, loop.steps_taken) == (steps, steps)

    @THETA0
    def test_even_convergence_passes_as_one_block(self, theta0):
        problem = heat1d(mesh_n=15)
        sine = initial_state(problem).values
        states, ends = self._windows(problem, [sine, 2.0 * sine, -sine], 0.01, 6)
        prop, loop = (make_propagator(problem, ThetaSettings(step=0.01, theta0=theta0)) for _ in range(2))
        prop.advance = None  # the block is kept, so no window falls back to advance
        outs = prop.advance_many(states, ends)
        assert [out.time for out in outs] == ends
        for s, t, out in zip(states, ends, outs):
            assert out.values.tobytes() == loop.advance(s, t).values.tobytes()
        assert (prop.newton_iterations, prop.steps_taken) == (18, 18)

    @THETA0
    def test_failing_column_raises_the_step_error_of_its_window(self, theta0):
        # a NaN window between two clean ones, and a NaN window after one
        # with a 1e6 boundary value: the call raises the first failing
        # window's step error, with the windows before it counted, as the
        # loop of advance does
        small = heat1d(mesh_n=15)
        sine = initial_state(small).values
        broken = sine.copy()
        broken[3] = np.nan
        large = heat1d(mesh_n=63, left_bc=1e6)
        start = initial_state(large)
        nan = start.values.copy()
        nan[3] = np.nan
        cases = [
            (small, 0.01, 4, *self._windows(small, [sine, broken, sine], 0.01, 4), 1),
            (large, 0.005, 20, [start, start.with_values(nan, time=0.1)], [0.1, 0.2], 1),
        ]
        for problem, step, n, states, ends, failing in cases:
            settings = ThetaSettings(step=step, theta0=theta0)
            block, loop = (make_propagator(problem, settings) for _ in range(2))
            bad = states[failing]
            _, _, failure = linear_theta_window(problem, step, settings.theta, bad.values, bad.time, n)
            with pytest.raises(TimeStepError) as alone:
                for s, t in zip(states, ends):
                    loop.advance(s, t)
            with pytest.raises(TimeStepError) as many:
                block.advance_many(states, ends)
            assert str(many.value) == str(alone.value) == f"implicit step failed at {failure[1]}"
            assert (block.newton_iterations, block.steps_taken) == (loop.newton_iterations, loop.steps_taken)
            assert block.steps_taken == failing * n

    def test_nonlinear_problem_loops_over_its_windows(self):
        problem = ale_piston(mesh_n=7)
        rest = initial_state(problem).values
        states, ends = self._windows(problem, [rest] * 2, 0.02, 3)
        block, loop = (make_propagator(problem, ThetaSettings(step=0.02)) for _ in range(2))
        outs = block.advance_many(states, ends)
        for s, t, out in zip(states, ends, outs):
            assert out.values.tobytes() == loop.advance(s, t).values.tobytes()
        assert (block.newton_iterations, block.steps_taken) == (loop.newton_iterations, loop.steps_taken)

        # the second window's interface displacement collapses the mesh: the
        # call raises what advance raises there, with the first window counted
        collapsed = rest.copy()
        collapsed[problem.layout()["u"][0]] = 0.95 * problem.L0
        states, ends = self._windows(problem, [rest, collapsed], 0.02, 3)
        block, loop = (make_propagator(problem, ThetaSettings(step=0.02)) for _ in range(2))
        with pytest.raises(TimeStepError) as alone:
            loop.advance(states[1], ends[1])
        with pytest.raises(TimeStepError) as many:
            block.advance_many(states, ends)
        assert str(many.value) == str(alone.value)
        loop.advance(states[0], ends[0])
        assert (block.newton_iterations, block.steps_taken) == (loop.newton_iterations, loop.steps_taken)
        assert block.steps_taken == 3

    def test_empty_windows_return_their_states(self):
        problem = heat1d(mesh_n=15)
        states, ends = self._windows(problem, [initial_state(problem).values] * 2, 0.01, 0)
        outs = make_propagator(problem, ThetaSettings(step=0.01)).advance_many(states, ends)
        assert all(out is s for out, s in zip(outs, states))


class TestSleepPropagator:
    def test_decay_map_deterministic(self):
        prop = SleepPropagator(step=0.5, cost_per_step=0.0)
        s0 = State(np.array([2.0]), 0.0, {"y": (0, 1)})
        out = prop.advance(s0, 2.0)
        assert out.values[0] == pytest.approx(2.0 / 1.5**4, rel=1e-15)
        assert out.time == 2.0

    def test_sleep_cost_roughly_respected(self):
        import time

        prop = SleepPropagator(step=0.5, cost_per_step=0.01)
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        t0 = time.perf_counter()
        prop.advance(s0, 2.0)
        assert time.perf_counter() - t0 >= 0.04

    def test_validation(self):
        for step, cost in ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                SleepPropagator(step=step, cost_per_step=cost)
        # an infinite step would fit any finite window once
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrators._split_window(1.0, np.inf)
        # 1 + decay_rate * step must be positive: -2.0 at step 0.5 divides by zero
        for decay in (np.nan, np.inf, -np.inf, -2.0, -3.0):
            with pytest.raises(ValueError, match="decay_rate"):
                SleepPropagator(step=0.5, cost_per_step=0.0, decay_rate=decay)
        assert SleepPropagator(step=0.5, cost_per_step=0.0, decay_rate=-1.0).decay_rate == -1.0


class TestConvergenceOrder:
    STEPS = (0.1, 0.05, 0.025, 0.0125)

    def test_crank_nicolson_second_order(self):
        order = convergence_order(dahlquist(), self.STEPS)
        assert order == pytest.approx(2.0, abs=0.15)

    def test_backward_euler_first_order(self):
        order = convergence_order(dahlquist(), self.STEPS, fixed_theta=1.0)
        assert order == pytest.approx(1.0, abs=0.15)

    def test_shift_preserves_second_order(self):
        order = convergence_order(dahlquist(), self.STEPS, theta0=0.5)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_needs_three_step_sizes(self):
        with pytest.raises(ValueError):
            convergence_order(dahlquist(), (0.1, 0.05))

    def test_heat_second_order_against_refined_reference(self):
        problem = heat1d(mesh_n=7, nu=0.1)
        order = convergence_order(problem, (0.2, 0.1, 0.05, 0.025))
        assert order == pytest.approx(2.0, abs=0.25)
