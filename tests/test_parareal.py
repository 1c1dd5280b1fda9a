import numpy as np
import pytest

from pintbench import parareal
from pintbench.integrators import ThetaSettings, make_propagator
from pintbench.parareal import (
    MAX_WORKERS,
    PararealConfig,
    PararealError,
    boundary_error,
    parareal_update,
    run_parareal,
    sequential_solve,
    theoretical_speedup,
    theta_weight,
)
from pintbench.problems import GaussianBump, SineMode, advection1d, dahlquist, heat1d, initial_state
from pintbench.state import State

from oracles import textbook_parareal

LAYOUT = {"v": (0, 2)}


def vec_state(values, time=0.0, layout=LAYOUT):
    return State(np.asarray(values, dtype=float), time, layout)


class TestPararealUpdate:
    def test_equal_coarse_values_reduce_to_fine(self):
        c = vec_state([1.0, 2.0])
        f = vec_state([3.0, 4.0])
        out = parareal_update(c, f, c, theta=1.0)
        assert np.array_equal(out.values, f.values)

    def test_fine_equal_old_coarse_gives_new_coarse(self):
        cn = vec_state([5.0, 6.0])
        f = vec_state([1.0, 1.0])
        out = parareal_update(cn, f, vec_state([1.0, 1.0]), theta=1.0)
        assert np.allclose(out.values, cn.values, rtol=0, atol=1e-15)

    def test_zero_theta_ignores_coarse(self):
        out = parareal_update(vec_state([9.0, 9.0]), vec_state([1.0, 2.0]), vec_state([-4.0, 0.0]), theta=0.0)
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_time_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parareal_update(vec_state([1.0, 1.0], time=1.0), vec_state([1.0, 1.0]), vec_state([1.0, 1.0]), 1.0)

    def test_layout_mismatch_rejected(self):
        other = vec_state([1.0, 1.0], layout={"w": (0, 2)})
        with pytest.raises(ValueError):
            parareal_update(vec_state([1.0, 1.0]), other, vec_state([1.0, 1.0]), 1.0)


class TestThetaWeight:
    def test_identical_states_least_squares_is_one(self):
        f = vec_state([1.0, 2.0])
        assert theta_weight(f, vec_state([1.0, 2.0]), "least_squares") == 1.0

    def test_orthogonal_states_give_zero(self):
        f = vec_state([1.0, 0.0])
        c = vec_state([0.0, 1.0])
        assert theta_weight(f, c, "least_squares") == 0.0
        assert theta_weight(f, c, "angle_penalized") == 0.0

    def test_single_block_scalar_cases(self):
        lay = {"y": (0, 1)}
        f = State(np.array([2.0]), 0.0, lay)
        c = State(np.array([1.0]), 0.0, lay)
        assert theta_weight(f, c, "angle_penalized") == pytest.approx(0.5)
        assert theta_weight(f, c, "least_squares") == 1.0  # 2 clamped into [0, 1]

    def test_degenerate_coarse_block_defaults_to_one(self):
        lay = {"y": (0, 1)}
        f = State(np.array([2.0]), 0.0, lay)
        c = State(np.array([0.0]), 0.0, lay)
        assert theta_weight(f, c, "least_squares") == 1.0

    def test_blockwise_average(self):
        lay = {"a": (0, 1), "b": (1, 1)}
        f = State(np.array([2.0, 1.0]), 0.0, lay)
        c = State(np.array([4.0, 1.0]), 0.0, lay)
        # block a: 8/16 = 0.5, block b: 1 -> mean 0.75
        assert theta_weight(f, c, "least_squares") == pytest.approx(0.75)

    def test_classic_is_constant_one(self):
        assert theta_weight(vec_state([1.0, 0.0]), vec_state([0.0, 1.0]), "classic") == 1.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            theta_weight(vec_state([1.0, 1.0]), vec_state([1.0, 1.0]), "magic")


class TestSequentialSolve:
    def test_single_interval(self):
        problem = dahlquist()
        F = make_propagator(problem, ThetaSettings(step=0.1))
        s0 = initial_state(problem)
        states = sequential_solve(F, s0, [0.0, 0.5])
        assert len(states) == 2
        assert states[0] is s0
        direct = F.advance(s0, 0.5)
        assert np.array_equal(states[1].values, direct.values)

    def test_dahlquist_discrete_closed_form(self):
        # backward Euler composition has the closed form (1 + k)^-n
        problem = dahlquist(lam=-1.0, y0=1.0)
        k = 0.1
        F = make_propagator(problem, ThetaSettings(step=k, theta0=0.5 / k))
        s0 = initial_state(problem)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        states = sequential_solve(F, s0, grid)
        for l, t in enumerate(grid):
            expected = (1.0 + k) ** (-round(t / k))
            assert states[l].values[0] == pytest.approx(expected, rel=1e-10)

    def test_grid_validation(self):
        problem = dahlquist()
        F = make_propagator(problem, ThetaSettings(step=0.1))
        s0 = initial_state(problem)
        with pytest.raises(ValueError):
            sequential_solve(F, s0, [0.0])
        with pytest.raises(ValueError):
            sequential_solve(F, s0, [0.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            sequential_solve(F, s0, [1.0, 2.0])


class TestTheoreticalSpeedup:
    def test_printed_reference_value(self):
        assert theoretical_speedup(0.02, 3, 20) == pytest.approx(5.78, abs=0.005)

    def test_vanishing_ratio_limit(self):
        assert theoretical_speedup(1e-12, 1, 20) == pytest.approx(20.0, rel=1e-9)

    def test_full_iteration_count_gives_no_speedup(self):
        assert theoretical_speedup(1e-12, 20, 20) == pytest.approx(1.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_speedup(0.0, 1, 4)
        with pytest.raises(ValueError):
            theoretical_speedup(np.nan, 1, 4)
        with pytest.raises(ValueError):
            theoretical_speedup(np.inf, 1, 4)
        with pytest.raises(ValueError):
            theoretical_speedup(0.1, 5, 4)
        with pytest.raises(ValueError):
            theoretical_speedup(0.1, 0, 4)


class TestBoundaryError:
    def test_identical_lists_are_zero(self):
        states = [vec_state([1.0, 2.0]), vec_state([3.0, 4.0])]
        assert boundary_error(states, states) == [0.0, 0.0]

    def test_hand_case(self):
        vp = [vec_state([3.0, 4.0])]
        vs = [vec_state([0.0, 5.0])]
        (error,) = boundary_error(vp, vs)
        assert type(error) is float
        assert error == pytest.approx(np.sqrt(10.0) / 5.0, rel=1e-15)

    def test_zero_reference_gives_absolute_difference(self):
        (error,) = boundary_error([vec_state([3.0, 4.0])], [vec_state([0.0, 0.0])])
        assert error == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            boundary_error([vec_state([1.0, 1.0])], [])

    def test_layout_mismatch(self):
        # a one-entry state would broadcast against the two-entry one
        with pytest.raises(ValueError, match="share one layout"):
            boundary_error([vec_state([3.0, 4.0])], [State(np.array([1.0]), 0.0, {"y": (0, 1)})])


class TestPararealConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PararealConfig(intervals=1, max_iters=1)
        with pytest.raises(ValueError):
            PararealConfig(intervals=4, max_iters=5)
        with pytest.raises(ValueError):
            PararealConfig(intervals=4, max_iters=2, tol=0.0)
        for tol in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                PararealConfig(intervals=4, max_iters=2, tol=tol)
        with pytest.raises(ValueError):
            PararealConfig(intervals=4, max_iters=2, variant="bogus")
        with pytest.raises(ValueError):
            PararealConfig(intervals=4, max_iters=2, scheduler="bogus")
        with pytest.raises(ValueError):
            PararealConfig(intervals=4, max_iters=2, workers=0)
        # validation only: a config starts no thread
        assert PararealConfig(intervals=4, max_iters=2, workers=MAX_WORKERS).workers == MAX_WORKERS == 64
        with pytest.raises(ValueError, match=r"workers must lie in \[1, 64\]"):
            PararealConfig(intervals=4, max_iters=2, workers=MAX_WORKERS + 1)
        # a count is an integer: no bool, no float, not even an integral one
        counts = dict(intervals=4, max_iters=2, workers=2)
        for name in counts:
            for bad in (2.5, 4.0, True, np.float64(2.0)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    PararealConfig(**{**counts, name: bad})
        cfg = PararealConfig(intervals=np.int64(4), max_iters=np.int32(2), workers=np.int64(2))
        assert (cfg.intervals, cfg.max_iters, cfg.workers) == (4, 2, 2)
        # tol is a real number: no bool, no text
        for bad in (True, "1e-3", None, 1e-3 + 0j):
            with pytest.raises(ValueError, match="tol must be a real number"):
                PararealConfig(intervals=4, max_iters=2, tol=bad)
        for tol in (1e-3, np.float64(1e-3), np.float32(1e-3)):
            assert PararealConfig(intervals=4, max_iters=2, tol=tol).tol == tol


def _dahlquist_setup(L=4, T=2.0, K=0.1, k=0.01):
    problem = dahlquist(lam=-1.0, y0=1.0)
    C = make_propagator(problem, ThetaSettings(step=K))
    F = make_propagator(problem, ThetaSettings(step=k))
    s0 = initial_state(problem)
    grid = [T * l / L for l in range(L + 1)]
    return problem, C, F, s0, grid, T


class TestRunParareal:
    def test_identical_propagators_converge_after_first_iteration(self):
        problem, _, F, s0, grid, T = _dahlquist_setup()
        seq = sequential_solve(F, s0, grid)
        cfg = PararealConfig(intervals=4, max_iters=4, tol=1e-12)
        states, trace = run_parareal(F, F, s0, T, cfg, oracle=seq)
        assert trace.converged
        assert trace.iterations_run == 1
        for l in range(1, 5):
            rel = np.linalg.norm(states[l].values - seq[l].values) / np.linalg.norm(seq[l].values)
            assert rel <= 1e-12

    def test_exactness_frontier(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        seq = sequential_solve(F, s0, grid)
        cfg = PararealConfig(intervals=4, max_iters=3, tol=1e-30)
        _, trace = run_parareal(C, F, s0, T, cfg, oracle=seq)
        for i in range(1, trace.iterations_run + 1):
            for l in range(1, i + 1):
                assert trace.boundary_errors[i - 1][l - 1] <= 1e-12

    def test_oracle_off_the_grid_rejected(self):
        # states of a 4-window solve over [0, 1] are no oracle for a run over [0, 2]
        problem, C, F, s0, grid, T = _dahlquist_setup()
        wrong = sequential_solve(F, s0, [0.25 * l for l in range(5)])
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30)
        with pytest.raises(ValueError, match=r"^oracle state 1 is at time 0\.25, not at the grid time 0\.5$"):
            run_parareal(C, F, s0, T, cfg, oracle=wrong)

    def test_oracle_of_another_problem_rejected_before_any_solve(self):
        # the scalar decay's states would broadcast against the heat states
        _, _, F_scalar, s_scalar, grid, T = _dahlquist_setup()
        scalar = sequential_solve(F_scalar, s_scalar, grid)
        problem = heat1d(mesh_n=15)
        C = make_propagator(problem, ThetaSettings(step=0.1))
        F = make_propagator(problem, ThetaSettings(step=0.01))
        s0 = initial_state(problem)
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30)
        for oracle, first_bad in ((scalar, 0), ([s0, *scalar[1:]], 1)):
            message = rf"^oracle state {first_bad} does not share the initial state's layout$"
            with pytest.raises(ValueError, match=message):
                run_parareal(C, F, s0, T, cfg, oracle=oracle)
        assert C.newton_iterations == F.newton_iterations == 0

    def test_full_iteration_count_reproduces_fine_solution(self):
        # with as many iterations as intervals the iterate telescopes to the
        # sequential fine solution at every boundary
        problem, C, F, s0, grid, T = _dahlquist_setup()
        seq = sequential_solve(F, s0, grid)
        cfg = PararealConfig(intervals=4, max_iters=4, tol=1e-30)
        states, trace = run_parareal(C, F, s0, T, cfg, oracle=seq)
        assert max(trace.boundary_errors[-1]) <= 1e-12

    def test_fixed_point_reproduced_by_extra_iteration(self):
        # with identical propagators the initialization sweep already equals
        # the sequential fine solution, so the first corrected iteration is
        # exactly the "one further iteration on the fixed point": it must
        # reproduce the iterate with zero correction
        problem, _, F, s0, grid, T = _dahlquist_setup()
        seq = sequential_solve(F, s0, grid)
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30)
        states, trace = run_parareal(F, F, s0, T, cfg, oracle=seq)
        assert trace.converged and trace.iterations_run == 1
        assert max(trace.boundary_errors[0]) <= 1e-12
        assert max(trace.correction_norms[0]) <= 1e-12

    def test_classic_and_forced_theta_one_produce_identical_traces(self, monkeypatch):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        base = dict(intervals=4, max_iters=3, tol=1e-30)
        _, classic = run_parareal(C, F, s0, T, PararealConfig(**base, variant="classic"))
        monkeypatch.setattr(parareal, "theta_weight", lambda fine, coarse, variant: 1.0)
        _, forced = run_parareal(C, F, s0, T, PararealConfig(**base, variant="least_squares"))
        assert forced.theta_values.tolist() == [[1.0] * 4] * 3
        for a, b in zip(classic.iterate_values, forced.iterate_values):
            for va, vb in zip(a, b):
                assert np.array_equal(va, vb)

    def test_weighted_variants_record_thetas(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30, variant="angle_penalized")
        _, trace = run_parareal(C, F, s0, T, cfg)
        for row in trace.theta_values:
            for th in row:
                assert 0.0 <= th <= 1.0

    def test_heat_max_error_monotone_decrease(self):
        # configuration chosen so the error sequence stays well above the
        # Newton floor for the first iterations
        problem = heat1d(mesh_n=15, nu=0.2, init=SineMode(1))
        T, L, K, k = 2.0, 10, 0.2, 0.01
        C = make_propagator(problem, ThetaSettings(step=K))
        F = make_propagator(problem, ThetaSettings(step=k))
        s0 = initial_state(problem)
        grid = [T * l / L for l in range(L + 1)]
        seq = sequential_solve(F, s0, grid)
        cfg = PararealConfig(intervals=L, max_iters=5, tol=1e-30)
        _, trace = run_parareal(C, F, s0, T, cfg, oracle=seq)
        max_errors = [max(row) for row in trace.boundary_errors]
        for previous, current in zip(max_errors, max_errors[1:]):
            assert current <= previous * (1.0 + 1e-9)

    def test_parabolic_vs_hyperbolic_contrast(self):
        # frozen from an oracle run: after 3 iterations the transport problem
        # is orders of magnitude behind the diffusion problem
        T, L, K, k = 2.0, 10, 0.05, 0.005
        grid = [T * l / L for l in range(L + 1)]
        cfg = PararealConfig(intervals=L, max_iters=3, tol=1e-30)

        heat = heat1d(mesh_n=15, nu=0.2, init=SineMode(1))
        sh = initial_state(heat)
        Ch = make_propagator(heat, ThetaSettings(step=K))
        Fh = make_propagator(heat, ThetaSettings(step=k))
        _, trace_h = run_parareal(Ch, Fh, sh, T, cfg, oracle=sequential_solve(Fh, sh, grid))

        adv = advection1d(mesh_n=32, init=GaussianBump(0.5, 0.12))
        sa = initial_state(adv)
        Ca = make_propagator(adv, ThetaSettings(step=K))
        Fa = make_propagator(adv, ThetaSettings(step=k))
        _, trace_a = run_parareal(Ca, Fa, sa, T, cfg, oracle=sequential_solve(Fa, sa, grid))

        assert trace_a.boundary_errors[2][-1] >= 10.0 * trace_h.boundary_errors[2][-1]

    def test_textbook_oracle_equivalence_small(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        oracle_iterates = textbook_parareal(C, F, s0, grid, 3)
        cfg = PararealConfig(intervals=4, max_iters=3, tol=1e-30)
        _, trace = run_parareal(C, F, s0, T, cfg)
        for i in range(4):
            for l in range(5):
                mine = trace.iterate_values[i][l]
                ref = oracle_iterates[i][l]
                denom = max(np.linalg.norm(ref), 1e-300)
                assert np.linalg.norm(mine - ref) / denom <= 1e-12

    def test_textbook_oracle_equivalence_weighted(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        oracle_iterates = textbook_parareal(C, F, s0, grid, 3, variant="angle_penalized")
        cfg = PararealConfig(intervals=4, max_iters=3, tol=1e-30, variant="angle_penalized")
        _, trace = run_parareal(C, F, s0, T, cfg)
        for i in range(4):
            for l in range(5):
                mine = trace.iterate_values[i][l]
                ref = oracle_iterates[i][l]
                denom = max(np.linalg.norm(ref), 1e-300)
                assert np.linalg.norm(mine - ref) / denom <= 1e-12

    def test_propagator_failure_annotated(self):
        class Exploding:
            step = 0.1

            def advance(self, state, t_end):
                if t_end > 1.2:
                    raise RuntimeError("boom")
                return state.with_values(state.values, time=t_end)

        problem, C, _, s0, grid, T = _dahlquist_setup()
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30)
        with pytest.raises(PararealError, match=r"iteration \d+, interval \d+"):
            run_parareal(C, Exploding(), s0, T, cfg)

    def test_oracle_length_validated(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30)
        with pytest.raises(ValueError):
            run_parareal(C, F, s0, T, cfg, oracle=[s0])

    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    @pytest.mark.parametrize("entry", ["advance", "sequential_solve", "run_parareal"])
    def test_non_finite_end_time_rejected(self, entry, t_end):
        _, C, F, s0, _, _ = _dahlquist_setup()
        calls = {
            "advance": lambda: F.advance(s0, t_end),
            "sequential_solve": lambda: sequential_solve(F, s0, [0.0, t_end]),
            "run_parareal": lambda: run_parareal(C, F, s0, t_end, PararealConfig(intervals=4, max_iters=2)),
        }
        with pytest.raises(ValueError, match=r"^window (inf|nan) is not finite$"):
            calls[entry]()

    def test_trace_bookkeeping(self):
        problem, C, F, s0, grid, T = _dahlquist_setup()
        cfg = PararealConfig(intervals=4, max_iters=3, tol=1e-30)
        _, trace = run_parareal(C, F, s0, T, cfg)
        assert trace.iterations_run == 3
        assert trace.fine_propagations == 4 + 3 + 2  # iteration i steps windows i-1..3
        assert trace.theta_values.tolist() == [[1.0] * 4] * 3
        assert len(trace.iteration_seconds) == 3
        assert trace.iteration_seconds == sorted(trace.iteration_seconds)
        assert trace.total_seconds >= trace.iteration_seconds[-1]
        assert len(trace.iterate_values) == 4  # init + 3 iterations

    def test_trace_shares_the_returned_arrays(self):
        # the trace keeps no second copy of the states the run returns
        problem, C, F, s0, grid, T = _dahlquist_setup()
        states, trace = run_parareal(C, F, s0, T, PararealConfig(intervals=4, max_iters=3, tol=1e-30))
        assert all(np.shares_memory(v, s.values) for v, s in zip(trace.iterate_values[-1], states))
        assert all(np.array_equal(row[0], s0.values) for row in trace.iterate_values)
