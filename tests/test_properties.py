"""Properties of the task executor and of the problems' Jacobians.

Each executor example runs the same Parareal problem at one worker and
at ``k`` workers, then injects a failure into the fine or the coarse
propagator and runs both worker counts again. Each Jacobian example
checks a problem's analytic ``jacobian`` against forward differences of
its ``rhs`` at a random admissible state and time, and each autonomy
example checks a problem's ``autonomous`` flag against its ``rhs`` at
two random times.
"""

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from pintbench.integrators import ThetaSettings, make_propagator  # noqa: E402
from pintbench.linalg import NewtonSettings, _fd_jacobian  # noqa: E402
from pintbench.parareal import VARIANTS, PararealConfig, PararealError, run_parareal  # noqa: E402
from pintbench.problems import (  # noqa: E402
    PROBLEMS,
    AlePiston,
    advection1d,
    ale_piston,
    dahlquist,
    heat1d,
    initial_state,
)

WINDOW = 0.25
PROBLEM = dahlquist(lam=-1.0)


def _fine():
    return make_propagator(PROBLEM, ThetaSettings(step=WINDOW / 4))


def _coarse():
    return make_propagator(PROBLEM, ThetaSettings(step=WINDOW))


def _run(L, iterations, workers, variant, fine, coarse):
    cfg = PararealConfig(intervals=L, max_iters=iterations, tol=1e-30, variant=variant,
                         scheduler="pipelined", workers=workers)
    return run_parareal(coarse, fine, initial_state(PROBLEM), L * WINDOW, cfg)[1]


class _FailOnInput:
    """Propagator that raises when it is handed one given boundary state."""

    def __init__(self, inner, time, values):
        self.inner = inner
        self.step = inner.step
        self.cost_hint = inner.cost_hint
        self.time = time
        self.values = values

    def advance(self, state, t_end):
        if state.time == self.time and state.values.tobytes() == self.values:
            raise RuntimeError("injected failure")
        return self.inner.advance(state, t_end)


def _bytes(trace):
    return [[v.tobytes() for v in row] for row in trace.iterate_values]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_worker_count_changes_nothing_and_failures_stay_located(data):
    L = data.draw(st.integers(2, 8), label="L")
    iterations = data.draw(st.integers(1, L), label="iterations")
    workers = data.draw(st.integers(1, 8), label="workers")
    variant = data.draw(st.sampled_from(VARIANTS), label="variant")

    one = _run(L, iterations, 1, variant, _fine(), _coarse())
    many = _run(L, iterations, workers, variant, _fine(), _coarse())
    assert _bytes(many) == _bytes(one)
    assert many.fine_propagations == one.fine_propagations

    # task key (iteration, phase, interval) -> the boundary state it advances:
    # fine task (i, l) starts from iterate i-1, the coarse sweep (i = 0) and
    # the correctors from iterate i; the serial order runs keys ascending
    run = range(one.iterations_run + 1)
    starts = {(i, 0, l): one.iterate_values[i - 1][l] for i in run[1:] for l in range(L)}
    starts.update({(i, 1, l): one.iterate_values[i][l] for i in run for l in range(L)})
    key = data.draw(st.sampled_from(sorted(starts)), label="failing task")
    _, phase, l = key
    values = starts[key].tobytes()
    first = min(key for key, v in starts.items() if key[1:] == (phase, l) and v.tobytes() == values)
    failing = _FailOnInput(_fine() if phase == 0 else _coarse(), L * WINDOW * l / L, values)
    fine, coarse = (failing, _coarse()) if phase == 0 else (_fine(), failing)
    kind = "fine" if phase == 0 else ("coarse_init" if first[0] == 0 else "correct")

    messages = []
    for w in (1, workers):
        with pytest.raises(PararealError) as info:
            _run(L, iterations, w, variant, fine, coarse)
        messages.append(str(info.value))
    assert messages[0].startswith(f"{kind} failed at iteration {first[0]}, interval {l}:")
    assert messages[1] == messages[0]


KINDS = ["dahlquist", "heat1d", "advection1d-periodic", "advection1d", "ale_piston"]


def _draw_problem(data, kind):
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    if kind == "dahlquist":
        return dahlquist(lam=data.draw(floats(-50.0, 50.0), label="lam"))
    mesh_n = data.draw(st.integers(3, 24), label="mesh_n")
    if kind == "heat1d":
        return heat1d(mesh_n, nu=data.draw(floats(1e-3, 1.0), label="nu"),
                      length=data.draw(floats(0.5, 2.0), label="length"),
                      left_bc=data.draw(floats(0.1, 2.0), label="left_bc"),
                      right_bc=data.draw(floats(-2.0, -0.1), label="right_bc"))
    if kind.startswith("advection1d"):
        speed = data.draw(floats(0.1, 2.0), label="speed") * data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        return advection1d(mesh_n, speed=speed, periodic=kind.endswith("periodic"))
    return ale_piston(mesh_n, nu=data.draw(floats(1e-3, 0.1), label="nu"),
                      adv=data.draw(floats(-1.0, 1.0), label="adv"),
                      m_s=data.draw(floats(1.0, 100.0), label="m_s"),
                      v_in=data.draw(floats(0.0, 1.0), label="v_in"))


def _draw_values(data, problem):
    size = problem.initial_values().size
    values = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size), label="values"))
    if isinstance(problem, AlePiston):
        # non-zero displacement inside the mesh guard, non-zero piston velocity
        values[-2] = 0.9 * problem.L0 * data.draw(st.floats(0.05, 0.98), label="u") \
            * data.draw(st.sampled_from([-1.0, 1.0]), label="u sign")
        values[-1] = data.draw(st.floats(0.05, 1.0), label="w") * data.draw(st.sampled_from([-1.0, 1.0]), label="w sign")
    return values


def test_every_problem_class_is_drawn():
    assert {kind.split("-")[0] for kind in KINDS} == set(PROBLEMS)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_analytic_jacobian_matches_finite_differences(kind, data):
    problem = _draw_problem(data, kind)
    size = problem.initial_values().size
    values = _draw_values(data, problem)
    t = data.draw(st.floats(0.1, 5.0), label="t")

    def rhs(y):
        return problem.rhs(y, t)

    jac = problem.jacobian(values, t)
    oracle = _fd_jacobian(rhs, values, rhs(values), NewtonSettings().fd_epsilon)
    assert jac.shape == (size, size)
    # forward differences are accurate to about 1e-9 of the largest entry on
    # the linear problems; on the piston their truncation error grows with
    # the stretch (curvature ~ 1/length^3) to 2.5e-6 at |u| = 0.88 L0
    assert np.max(np.abs(jac - oracle)) <= 5e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_autonomous_flag_matches_the_rhs(kind, data):
    # the integrator reuses the rhs at a step's start values for its end
    # time when the class says autonomous, so the flag must never be wrong
    problem = _draw_problem(data, kind)
    values = _draw_values(data, problem)
    if isinstance(problem, AlePiston):
        # with inflow the rhs depends on time: the forcing rises over the first period
        problem = replace(problem, v_in=data.draw(st.floats(0.05, 1.0), label="v_in"))
        t0 = problem.period * data.draw(st.floats(0.05, 0.45), label="t0")
        t1 = problem.period * data.draw(st.floats(0.55, 0.95), label="t1")
    else:
        t0, t1 = (data.draw(st.floats(-10.0, 10.0), label=label) for label in ("t0", "t1"))
    same = problem.rhs(values, t0).tobytes() == problem.rhs(values, t1).tobytes()
    assert same == problem.autonomous
