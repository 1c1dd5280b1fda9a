import math

import numpy as np
import pytest

from pintbench import integrators, problems
from pintbench.integrators import (
    NonDivisibleWindow,
    SleepPropagator,
    ThetaSettings,
    TimeStepError,
    convergence_order,
    frozen_inverse,
    make_propagator,
    theta_step,
)
from pintbench.linalg import NewtonSettings
from pintbench.problems import (
    SineMode,
    Zero,
    advection1d,
    ale_piston,
    dahlquist,
    heat1d,
    initial_state,
)
from pintbench.state import State

TIGHT = NewtonSettings(abs_tol=1e-13)

# one case per problem class, with non-zero heat boundary values and both advection grids
STEP_CASES = pytest.mark.parametrize("problem", [
    dahlquist(), heat1d(mesh_n=15, left_bc=1.0), advection1d(mesh_n=16),
    advection1d(mesh_n=15, periodic=False), ale_piston(mesh_n=15),
], ids=lambda p: f"{p.kind}-periodic" if getattr(p, "periodic", False) else p.kind)


def scalar_theta_factor(lam: float, k: float, theta: float) -> float:
    """Exact one-step amplification of the theta scheme on y' = lam*y."""
    return (1.0 + k * (1.0 - theta) * lam) / (1.0 - k * theta * lam)


class TestThetaStep:
    def test_backward_euler_step(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        settings = ThetaSettings(step=0.1, theta0=5.0, newton=TIGHT)  # theta = 1
        out = theta_step(problem, initial_state(problem), settings)
        assert out.time == pytest.approx(0.1, abs=0)
        assert out.values[0] == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_crank_nicolson_step(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        out = theta_step(problem, initial_state(problem), ThetaSettings(step=0.1, newton=TIGHT))
        assert out.values[0] == pytest.approx(0.95 / 1.05, rel=1e-12)

    def test_steady_state_advances_time_only(self):
        problem = heat1d(mesh_n=7, init=Zero())
        s0 = initial_state(problem)
        out = theta_step(problem, s0, ThetaSettings(step=0.25, newton=TIGHT))
        assert out.time == 0.25
        assert np.array_equal(out.values, s0.values)

    def test_failure_annotated_with_time_and_step(self):
        problem = ale_piston(mesh_n=7)
        s0 = initial_state(problem)
        broken = s0.with_values(s0.values.copy())
        broken.values[7] = 0.95  # beyond the mesh-degeneracy guard
        with pytest.raises(TimeStepError, match=r"t_n=.*k="):
            theta_step(problem, broken, ThetaSettings(step=0.01))


class TestThetaSettings:
    def test_effective_theta_range_enforced(self):
        with pytest.raises(ValueError):
            ThetaSettings(step=0.1, theta0=-1.0)  # theta = 0.4
        with pytest.raises(ValueError):
            ThetaSettings(step=0.1, theta0=6.0)  # theta = 1.1
        assert ThetaSettings(step=0.1, theta0=5.0).theta == pytest.approx(1.0)

    def test_step_positive(self):
        for step in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                ThetaSettings(step=step)


class TestPropagator:
    def test_zero_window_returns_input(self):
        problem = dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.1))
        s0 = initial_state(problem)
        assert prop.advance(s0, 0.0) is s0

    def test_backward_euler_composition(self):
        problem = dahlquist(lam=-1.0, y0=1.0)
        prop = make_propagator(problem, ThetaSettings(step=0.1, theta0=5.0, newton=TIGHT))
        out = prop.advance(initial_state(problem), 0.4)
        assert out.values[0] == pytest.approx(1.0 / 1.1**4, rel=1e-11)
        assert out.time == 0.4

    def test_non_divisible_window_rejected(self):
        problem = dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.1))
        with pytest.raises(NonDivisibleWindow):
            prop.advance(initial_state(problem), 0.25)

    def test_backwards_window_rejected(self):
        problem = dahlquist()
        prop = make_propagator(problem, ThetaSettings(step=0.1))
        s = initial_state(problem).with_values(np.array([1.0]), time=1.0)
        with pytest.raises(ValueError):
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
        prop = make_propagator(problem, ThetaSettings(step=k, newton=TIGHT))
        s0 = initial_state(problem)
        out = prop.advance(s0, steps * k)
        factor = scalar_theta_factor(mu, k, 0.5) ** steps
        assert np.allclose(out.values, factor * s0.values, rtol=1e-9, atol=1e-13)

    def test_a_stability_amplification(self):
        for theta0_scale in (0.0, 0.25, 0.5):  # theta = 1/2, 3/4, 1 at k=1
            for lam_k in (0.1, 1.0, 10.0, 100.0, 1e4):
                problem = dahlquist(lam=-lam_k, y0=1.0)
                settings = ThetaSettings(step=1.0, theta0=theta0_scale, newton=TIGHT)
                out = theta_step(problem, initial_state(problem), settings)
                assert abs(out.values[0]) <= 1.0 + 1e-9

    def test_newton_iteration_counter(self):
        problem = ale_piston(mesh_n=7)
        prop = make_propagator(problem, ThetaSettings(step=0.05))
        prop.advance(initial_state(problem), 0.5)
        assert prop.steps_taken == 10
        assert prop.newton_iterations >= prop.steps_taken


class TestStepOperator:
    @STEP_CASES
    def test_shortened_last_step_uses_its_own_operator(self, problem):
        # 80 steps of 0.005 with the window end moved 1e-12 early: the last
        # step is shortened, and a frozen operator keyed on the nominal step
        # would give different bits than one built for the actual size; the
        # window carries the rhs across steps, the chain of single steps
        # evaluates it afresh, and both must give the same bits
        settings = ThetaSettings(step=0.005, theta0=0.5)
        t_end = 0.4 - 1e-12
        out = make_propagator(problem, settings).advance(initial_state(problem), t_end)

        s = initial_state(problem)
        for _ in range(79):
            frozen_inverse.cache_clear()
            s = theta_step(problem, s, settings)
        last = t_end - s.time
        assert last != settings.step
        frozen_inverse.cache_clear()
        s = theta_step(problem, s, ThetaSettings(step=last, theta0=0.5))
        assert out.time == t_end
        assert out.values.tobytes() == s.values.tobytes()

    def test_propagators_share_one_read_only_operator(self):
        settings = ThetaSettings(step=0.01, theta0=0.5)
        a = make_propagator(heat1d(mesh_n=15), settings)
        b = make_propagator(heat1d(mesh_n=15), ThetaSettings(step=0.01, theta0=0.5))
        assert a.operator is b.operator
        assert not a.operator.flags.writeable
        with pytest.raises(ValueError):
            a.operator[0, 0] = 0.0
        assert make_propagator(ale_piston(mesh_n=7), settings).operator is None

    def test_shared_cache_under_thread_contention(self):
        # more distinct shortened last steps than the cache holds, advanced
        # from 8 threads in different orders with frequent thread switches:
        # every result must equal the serial one bit for bit
        import sys
        import threading

        problem = heat1d(mesh_n=7, nu=0.1)
        prop = make_propagator(problem, ThetaSettings(step=0.01))
        s0 = initial_state(problem)
        ends = [0.1 - j * 1e-12 for j in range(80)]
        expected = [prop.advance(s0, t).values.tobytes() for t in ends]
        results, errors = {}, []

        def work(w):
            try:
                for j in range(80):
                    j = (j * 7 + w * 11) % 80
                    results[w, j] = prop.advance(s0, ends[j]).values.tobytes()
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
        assert all(results[w, j] == expected[j] for w in range(8) for j in range(80))

    def test_nan_state_raises_located_step_error(self):
        problem = heat1d(mesh_n=15)
        s0 = initial_state(problem)
        values = s0.values.copy()
        values[3] = np.nan
        with pytest.raises(TimeStepError, match=r"t_n=0\.01, k=0\.01"):
            theta_step(problem, s0.with_values(values), ThetaSettings(step=0.01))
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
        # every step ends holding the rhs at its solution, which the next
        # step starts from; an autonomous problem's start residual reuses it
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
        assert rhs_calls[0] == 0.0
        if problem.autonomous:
            assert len(rhs_calls) == n + 1
        else:
            assert len(residual_calls) >= 2 * n
            assert len(rhs_calls) == len(residual_calls) + 1


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
        for step, cost in ((0.0, 0.0), (np.nan, 0.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(ValueError):
                SleepPropagator(step=step, cost_per_step=cost)
        # 1 + decay_rate * step must be positive: -2.0 at step 0.5 divides by zero
        for decay in (np.nan, np.inf, -np.inf, -2.0, -3.0):
            with pytest.raises(ValueError, match="decay_rate"):
                SleepPropagator(step=0.5, cost_per_step=0.0, decay_rate=decay)
        assert SleepPropagator(step=0.5, cost_per_step=0.0, decay_rate=-1.0).decay_rate == -1.0


class TestConvergenceOrder:
    STEPS = (0.1, 0.05, 0.025, 0.0125)

    def test_crank_nicolson_second_order(self):
        order = convergence_order(dahlquist(), self.STEPS, newton=TIGHT)
        assert order == pytest.approx(2.0, abs=0.15)

    def test_backward_euler_first_order(self):
        order = convergence_order(dahlquist(), self.STEPS, fixed_theta=1.0, newton=TIGHT)
        assert order == pytest.approx(1.0, abs=0.15)

    def test_shift_preserves_second_order(self):
        order = convergence_order(dahlquist(), self.STEPS, theta0=0.5, newton=TIGHT)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_needs_three_step_sizes(self):
        with pytest.raises(ValueError):
            convergence_order(dahlquist(), (0.1, 0.05))

    def test_heat_second_order_against_refined_reference(self):
        problem = heat1d(mesh_n=7, nu=0.1)
        order = convergence_order(problem, (0.2, 0.1, 0.05, 0.025), newton=TIGHT, t_final=1.0)
        assert order == pytest.approx(2.0, abs=0.25)
