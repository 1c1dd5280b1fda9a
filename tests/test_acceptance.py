"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Expected values marked as derived were computed with
the independent straightforward implementations in ``oracles.py`` before
being frozen here.
"""

import time

import numpy as np
import pytest

from pintbench.integrators import SleepPropagator, ThetaSettings, convergence_order, make_propagator
from pintbench.parareal import (
    PararealConfig,
    boundary_error,
    run_parareal,
    sequential_solve,
    theoretical_speedup,
    theta_weight,
)
from pintbench.problems import (
    GaussianBump,
    advection1d,
    ale_piston,
    dahlquist,
    heat1d,
    initial_state,
)
from pintbench.state import State

from oracles import PerWindow, textbook_parareal


def report(number, name, ok, seconds, budget):
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({seconds:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert seconds < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({seconds:.1f}s)"


@pytest.fixture(scope="module")
def heat_benchmark():
    """Criterion-5 configuration: sequential, refined reference, parareal."""
    problem = heat1d()  # mesh 63, nu 0.02, first sine mode
    T, L, K, k = 8.0, 20, 0.05, 0.005
    t_grid = [T * l / L for l in range(L + 1)]
    s0 = initial_state(problem)
    fine = make_propagator(problem, ThetaSettings(step=k))
    coarse = make_propagator(problem, ThetaSettings(step=K))
    t0 = time.perf_counter()
    seq = sequential_solve(fine, s0, t_grid)
    reference = sequential_solve(make_propagator(problem, ThetaSettings(step=k / 4.0)), s0, t_grid)
    disc_final = boundary_error(seq, reference)[L]
    cfg = PararealConfig(intervals=L, max_iters=3, tol=1e-30)
    _, trace = run_parareal(coarse, fine, s0, T, cfg, oracle=seq)
    elapsed = time.perf_counter() - t0
    return {
        "disc_final": disc_final,
        "final_errors": [row[-1] for row in trace.boundary_errors],
        "elapsed": elapsed,
        "grid": t_grid,
    }


def test_criterion_1_exactness_all_problems():
    t0 = time.perf_counter()
    T, L, K, k = 2.0, 8, 0.05, 0.0125
    t_grid = [T * l / L for l in range(L + 1)]
    problems = (
        dahlquist(),
        heat1d(mesh_n=15, nu=0.05),
        advection1d(mesh_n=16, init=GaussianBump(0.5, 0.15)),
        ale_piston(mesh_n=15),
    )
    ok = True
    for problem in problems:
        s0 = initial_state(problem)
        C = make_propagator(problem, ThetaSettings(step=K))
        F = make_propagator(problem, ThetaSettings(step=k))
        seq = sequential_solve(F, s0, t_grid)
        for variant in ("classic", "least_squares", "angle_penalized"):
            iterates = []
            # one worker runs the batching F on the calling thread; four run its windows on four threads
            for workers, fine in ((1, F), (4, PerWindow(F))):
                cfg = PararealConfig(intervals=L, max_iters=3, tol=1e-30, variant=variant, workers=workers)
                _, trace = run_parareal(C, fine, s0, T, cfg, oracle=seq)
                ok = ok and trace.workers == workers
                for i in range(1, trace.iterations_run + 1):
                    for l in range(1, i + 1):
                        ok = ok and trace.boundary_errors[i - 1][l - 1] <= 1e-12
                iterates.append(np.stack(trace.iterate_values).tobytes())
            ok = ok and iterates[0] == iterates[1]
    report(1, "exactness across problems/variants/worker counts", ok, time.perf_counter() - t0, 30.0)


def test_criterion_2_theta_scheme_orders():
    t0 = time.perf_counter()
    steps = (0.1, 0.05, 0.025, 0.0125)
    cn = convergence_order(dahlquist(), steps)
    be = convergence_order(dahlquist(), steps, fixed_theta=1.0)
    ok = abs(cn - 2.0) <= 0.15 and abs(be - 1.0) <= 0.15
    report(2, f"theta-scheme orders (CN {cn:.3f}, BE {be:.3f})", ok, time.perf_counter() - t0, 1.0)


def test_criterion_3_speedup_formula():
    t0 = time.perf_counter()
    value = theoretical_speedup(0.02, 3, 20)
    ok = abs(value - 5.78) <= 0.005
    report(3, f"speedup formula value ({value:.4f})", ok, time.perf_counter() - t0, 1.0)


def test_criterion_4_scheduler_speedup():
    t0 = time.perf_counter()
    L, window, cost = 20, 1.0, 0.005
    C = SleepPropagator(step=window, cost_per_step=cost)
    F = SleepPropagator(step=window / 50.0, cost_per_step=cost)  # r = 0.02
    s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
    t_grid = [window * l for l in range(L + 1)]
    t_seq_start = time.perf_counter()
    sequential_solve(F, s0, t_grid)
    t_seq = time.perf_counter() - t_seq_start
    cfg = PararealConfig(intervals=L, max_iters=3, tol=1e-30, workers=L)
    t_par_start = time.perf_counter()
    run_parareal(C, F, s0, L * window, cfg)
    t_par = time.perf_counter() - t_par_start
    measured = t_seq / t_par
    theory = theoretical_speedup(0.02, 3, L)
    ok = measured >= 0.6 * theory
    report(
        4, f"pipelined speedup (measured {measured:.2f} vs theory {theory:.2f})",
        ok, time.perf_counter() - t0, 60.0,
    )


def test_criterion_5_parabolic_convergence(heat_benchmark):
    t0 = time.perf_counter()
    errors = heat_benchmark["final_errors"]
    disc = heat_benchmark["disc_final"]
    hit = next((i + 1 for i, e in enumerate(errors) if e <= disc), None)
    ok = hit is not None and hit <= 3
    elapsed = heat_benchmark["elapsed"] + (time.perf_counter() - t0)
    report(5, f"heat error below discretization error at iteration {hit}", ok, elapsed, 60.0)


def test_criterion_6_hyperbolic_degradation(heat_benchmark):
    t0 = time.perf_counter()
    problem = advection1d()  # mesh 64, gaussian bump, periodic
    T, L, K, k = 8.0, 20, 0.05, 0.005
    t_grid = [T * l / L for l in range(L + 1)]
    s0 = initial_state(problem)
    fine = make_propagator(problem, ThetaSettings(step=k))
    coarse = make_propagator(problem, ThetaSettings(step=K))
    seq = sequential_solve(fine, s0, t_grid)
    cfg = PararealConfig(intervals=L, max_iters=5, tol=1e-30)
    _, trace = run_parareal(coarse, fine, s0, T, cfg, oracle=seq)
    adv_errors = [row[-1] for row in trace.boundary_errors]
    heat_after_three = heat_benchmark["final_errors"][2]
    ratio_ok = adv_errors[2] >= 10.0 * heat_after_three
    stalled = any(later >= 0.9 * earlier for earlier, later in zip(adv_errors, adv_errors[1:]))
    ok = ratio_ok and stalled
    report(
        6,
        f"hyperbolic degradation (ratio {adv_errors[2] / heat_after_three:.1e}, stagnation {stalled})",
        ok, time.perf_counter() - t0, 60.0,
    )


def test_criterion_7_piston_sanity():
    t0 = time.perf_counter()
    rest_problem = ale_piston(mesh_n=31, v_in=0.0)
    rest = initial_state(rest_problem)
    fixed_point = float(np.max(np.abs(rest_problem.rhs(rest.values, 0.0)))) == 0.0

    problem = ale_piston(mesh_n=31, rho_f=1.0, nu=0.05, L0=1.0, adv=0.0, m_s=2.0, kappa=1.0, v_in=0.0)
    n = problem.mesh_n
    h = problem.h
    values = np.zeros(n + 2)
    values[:n] = 0.02 * np.sin(np.pi * problem.grid())
    values[n] = 0.05
    values[n + 1] = 0.03
    perturbed = State(values, 0.0, problem.layout())
    one_step = make_propagator(problem, ThetaSettings(step=0.01))
    one_step.advance(perturbed, 0.01)
    iters = one_step.newton_iterations
    newton_ok = iters <= 6

    def energy(state):
        v = state.values[:n]
        u = state.values[n]
        w = state.values[n + 1]
        return (0.5 * problem.m_s * w**2 + 0.5 * problem.kappa * u**2
                + 0.5 * problem.rho_f * (problem.L0 + u) * h * float(np.sum(v**2)))

    prop = make_propagator(problem, ThetaSettings(step=0.005))
    s = perturbed
    e0 = energy(s)
    dissipative = True
    for _ in range(100):
        s = prop.advance(s, s.time + 0.005)
        dissipative = dissipative and energy(s) <= e0 * (1.0 + 1e-6)

    ok = fixed_point and newton_ok and dissipative
    report(
        7,
        f"piston sanity (fixed point {fixed_point}, newton iters {iters}, dissipative {dissipative})",
        ok, time.perf_counter() - t0, 20.0,
    )


def test_criterion_8_worker_count_determinism():
    t0 = time.perf_counter()
    problem = heat1d(mesh_n=31)
    T, L, K, k = 8.0, 20, 0.05, 0.01
    s0 = initial_state(problem)
    C = make_propagator(problem, ThetaSettings(step=K))
    F = make_propagator(problem, ThetaSettings(step=k))
    # one worker runs the batching F on the calling thread; more run its windows on that many threads
    runs = []
    for workers, fine in ((1, F), (2, PerWindow(F)), (8, PerWindow(F))):
        cfg = PararealConfig(intervals=L, max_iters=4, tol=1e-30, workers=workers)
        _, trace = run_parareal(C, fine, s0, T, cfg)
        runs.append((trace.workers, np.stack(trace.iterate_values).tobytes(), trace.theta_values.tobytes()))
    ok = [workers for workers, *_ in runs] == [1, 2, 8] and all(run[1:] == runs[0][1:] for run in runs)
    report(8, "bit-identical iterates and weights for 1, 2 and 8 workers", ok, time.perf_counter() - t0, 60.0)


def test_criterion_9_theta_weight_units():
    t0 = time.perf_counter()
    lay = {"y": (0, 2)}
    f = State(np.array([1.0, 2.0]), 0.0, lay)
    same = theta_weight(f, State(np.array([1.0, 2.0]), 0.0, lay), "least_squares")
    orth_lsq = theta_weight(State(np.array([1.0, 0.0]), 0.0, lay), State(np.array([0.0, 1.0]), 0.0, lay), "least_squares")
    orth_ang = theta_weight(State(np.array([1.0, 0.0]), 0.0, lay), State(np.array([0.0, 1.0]), 0.0, lay), "angle_penalized")
    scalar_lay = {"y": (0, 1)}
    two = State(np.array([2.0]), 0.0, scalar_lay)
    one = State(np.array([1.0]), 0.0, scalar_lay)
    angle = theta_weight(two, one, "angle_penalized")
    clamped = theta_weight(two, one, "least_squares")
    ok = (same == 1.0 and orth_lsq == 0.0 and orth_ang == 0.0
          and angle == pytest.approx(0.5) and clamped == 1.0)
    report(9, "theta-weight unit cases", ok, time.perf_counter() - t0, 1.0)


def test_criterion_10_oracle_equivalence():
    t0 = time.perf_counter()
    cases = []
    for L, K, k in ((4, 0.2, 0.05), (20, 0.1, 0.02)):
        cases.append((dahlquist(), L, K, k))
        cases.append((heat1d(mesh_n=15, nu=0.1), L, K, k))
    ok = True
    for problem, L, K, k in cases:
        T = 8.0
        t_grid = [T * l / L for l in range(L + 1)]
        s0 = initial_state(problem)
        C = make_propagator(problem, ThetaSettings(step=K))
        F = make_propagator(problem, ThetaSettings(step=k))
        oracle_iterates = textbook_parareal(C, F, s0, t_grid, 3)
        for workers, fine in ((1, F), (4, PerWindow(F))):
            cfg = PararealConfig(intervals=L, max_iters=3, tol=1e-30, workers=workers)
            _, trace = run_parareal(C, fine, s0, T, cfg)
            ok = ok and trace.workers == workers
            for i in range(len(trace.iterate_values)):
                for l in range(L + 1):
                    ref = oracle_iterates[i][l]
                    denom = max(float(np.linalg.norm(ref)), 1e-300)
                    rel = float(np.linalg.norm(trace.iterate_values[i][l] - ref)) / denom
                    ok = ok and rel <= 1e-12
    report(10, "engine matches textbook-loop implementation", ok, time.perf_counter() - t0, 60.0)
