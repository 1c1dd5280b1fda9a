"""Properties of the task executor and of the problems' Jacobians.

Each executor example runs the same Parareal problem at one worker and
at ``k`` workers, checks the exactness frontier (boundary ``l`` after
``i >= l`` iterations is the sequential fine state), that iterate ``i``
repeats boundaries ``0..i-1`` of iterate ``i-1`` byte for byte and that
iteration ``i`` steps fine windows ``i-1..L-1`` only, then injects a
failure into the fine or the coarse propagator and runs both worker
counts again; a failing fine propagator may take its windows in blocks.
Each graph example runs the executor on a random task graph whose stub
tasks fail, lag or report convergence at random, and checks that one
worker runs the serial order's tasks in its order, that 2 and 4 workers
return or raise what one worker and the serial order do, run each task
at most once, every task the serial order ran and otherwise only tasks
that sort after its stop, and that no thread outlives the call. Each
Jacobian example checks a problem's analytic ``jacobian`` against
forward differences of its ``rhs`` at a random admissible state and
time, and each time example checks a problem's ``linear`` flag against
its ``rhs`` at two random times. Each window example advances over a
window a hair off a whole number of steps and checks that it takes
exactly that many steps of the nominal size and lands on the requested
end. Each split example counts the steps of one window and step drawn
from the whole float range: the count fits the window or the split
raises ``ValueError``. Each block example advances random windows of a
linear problem with one ``advance_many`` call and checks it against
``advance`` on each window, bit for bit and counter for counter. Each
step example steps random windows of a problem, some of them zero, NaN
or large enough that rounding leaves a step's residual above the
tolerance (or, for the piston, that the mesh collapses), and checks
``advance`` and ``advance_many`` against the oracle step: for a linear
problem the theta step through its exact step map, for the
piston one ``newton_solve`` call per step with the step's inverse. It
asks the same bits, counters and step errors. Each finiteness example
steps 1, 2, 5 or 20 windows of a growing linear problem of up to 64
entries, one window holding a NaN, an Inf or an entry that overflows at
a drawn step, and checks that ``advance`` and ``advance_many`` raise the
oracle's step error, count nothing for the failing window and warn of
nothing but Inf arithmetic. Each sweep example steps a linear problem
of 1 to 64 entries through a grid of 2 to 21 points, 1 to 12 steps a
window, with ``advance_through`` and ``sequential_solve``, and checks
them against the loop of ``advance``, bit for bit and counter for
counter; a step map poisoned to write a NaN when it meets one step's
input makes all three raise the same step error, with the windows
before the failing one counted. Each theta-scheme example
takes one step of a linear problem from a random state, some heat ones
with a 1e6 boundary value, and checks it against ``np.linalg.solve`` of
the scheme's own equation, ``(I - k*theta*A) y1 = y + k*(1-theta)*A y +
k*b``, within a measured relative bound. Each
results example builds a ``ResultRow`` from drawn numbers (floats as
Python floats, counts as Python ints), writes it as CSV and as JSON and
checks that ``load_rows`` reads back an equal row; one of its fields
may be passed as a NumPy scalar, an int, a bool, text, NaN or a
fraction, or its name with a comma, a space or in capitals, and a row
that ``ResultRow`` rejects is not written.
"""

import math
import threading
import time
import warnings

import pytest

pytest.importorskip("hypothesis")

from dataclasses import dataclass, replace  # noqa: E402
from typing import ClassVar  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from pintbench.cli import DISCRETIZATION_VARIANT, ResultRow, emit_csv, emit_json, load_rows  # noqa: E402
from pintbench.integrators import (  # noqa: E402
    SleepPropagator,
    ThetaSettings,
    TimeStepError,
    _split_window,
    linear_step_map,
    make_propagator,
)
from pintbench.parareal import (  # noqa: E402
    VARIANTS,
    PararealConfig,
    PararealError,
    _execute,
    pipelined_schedule,
    run_parareal,
    sequential_solve,
)
from pintbench import problems  # noqa: E402
from pintbench.problems import (  # noqa: E402
    PROBLEMS,
    AlePiston,
    advection1d,
    ale_piston,
    dahlquist,
    heat1d,
    initial_state,
)

from oracles import fd_jacobian, linear_theta_window, newton_theta_window  # noqa: E402

WINDOW = 0.25
PROBLEM = dahlquist(lam=-1.0)


def _fine():
    return make_propagator(PROBLEM, ThetaSettings(step=WINDOW / 4))


def _coarse():
    return make_propagator(PROBLEM, ThetaSettings(step=WINDOW))


def _run(L, iterations, workers, variant, fine, coarse):
    cfg = PararealConfig(intervals=L, max_iters=iterations, tol=1e-30, variant=variant, workers=workers)
    return run_parareal(coarse, fine, initial_state(PROBLEM), L * WINDOW, cfg)[1]


class _FailOnInput:
    """Propagator that raises when it is handed one given boundary state."""

    def __init__(self, inner, time, values):
        self.inner = inner
        self.step = inner.step
        self.time = time
        self.values = values

    def _check(self, state):
        if state.time == self.time and state.values.tobytes() == self.values:
            raise RuntimeError("injected failure")

    def advance(self, state, t_end):
        self._check(state)
        return self.inner.advance(state, t_end)


class _FailOnInputInBlock(_FailOnInput):
    """The same, handed an iteration's fine windows together, as ``ThetaPropagator`` is."""

    def advance_many(self, states, t_ends):
        for state in states:
            self._check(state)
        return self.inner.advance_many(states, t_ends)


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
    seq = sequential_solve(_fine(), initial_state(PROBLEM), [WINDOW * l for l in range(L + 1)])
    for i, row in enumerate(one.iterate_values):
        for l in range(i + 1):
            assert np.linalg.norm(row[l] - seq[l].values) <= 1e-12 * np.linalg.norm(seq[l].values)
    # boundaries 0..i-1 are final after iteration i, so iteration i steps windows i-1..L-1 only
    rows = _bytes(one)
    for i in range(1, len(rows)):
        assert rows[i][:i] == rows[i - 1][:i]
    assert one.fine_propagations == L + sum(L - i + 1 for i in range(2, one.iterations_run + 1))

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
    in_block = phase == 0 and data.draw(st.booleans(), label="fine windows in blocks")
    failing = (_FailOnInputInBlock if in_block else _FailOnInput)(
        _fine() if phase == 0 else _coarse(), L * WINDOW * l / L, values)
    fine, coarse = (failing, _coarse()) if phase == 0 else (_fine(), failing)
    kind = "fine" if phase == 0 else ("coarse_init" if first[0] == 0 else "correct")

    messages = []
    for w in (1, workers):
        with pytest.raises(PararealError) as info:
            _run(L, iterations, w, variant, fine, coarse)
        messages.append(str(info.value))
    assert messages[0].startswith(f"{kind} failed at iteration {first[0]}, interval {l}:")
    assert messages[1] == messages[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_execute_outcome_and_threads_do_not_depend_on_workers(data):
    L = data.draw(st.integers(1, 6), label="L")
    iterations = data.draw(st.integers(0, 4), label="iterations")
    tasks = pipelined_schedule(L, iterations)
    keys = sorted(t.key for t in tasks)
    errors = {key: data.draw(st.sampled_from([RuntimeError, KeyboardInterrupt]), label="raises")(key)
              for key in data.draw(st.sets(st.sampled_from(keys), max_size=3), label="failing keys")}
    slow = data.draw(st.sets(st.sampled_from(keys), max_size=4), label="slow keys")
    converges = data.draw(st.none() | st.integers(1, max(iterations, 1)), label="converges at")

    ran = []

    def run_task(task):
        ran.append(task.key)
        if task.key in slow:
            time.sleep(0.001)
        if task.key in errors:
            raise errors[task.key]
        last = task.kind == "correct" and task.interval == L - 1
        return task.iteration if last and converges is not None and task.iteration >= converges else None

    def serial():
        # the converging corrector has its iteration's largest key, so the serial run ends there
        for task in sorted(tasks, key=lambda t: t.key):
            try:
                if run_task(task) is not None:
                    return "returned", task.iteration
            except (RuntimeError, KeyboardInterrupt) as exc:
                return "raised", exc
        return "returned", None

    def outcome(workers):
        threads = threading.active_count()
        try:
            result = "returned", _execute(tasks, run_task, workers)
        except (RuntimeError, KeyboardInterrupt) as exc:
            result = "raised", exc
        assert threading.active_count() == threads
        return result

    expected, serial_order = serial(), list(ran)
    ran.clear()
    assert outcome(1) == expected
    assert ran == serial_order  # one worker runs exactly the serial order's tasks, in its order
    for workers in (2, 4):
        ran.clear()
        assert outcome(workers) == expected
        assert len(ran) == len(set(ran))  # no task runs twice
        assert set(serial_order) <= set(ran)  # every task the serial order ran
        assert all(key > serial_order[-1] for key in set(ran) - set(serial_order))  # the rest sort after its stop


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
    oracle = fd_jacobian(rhs, values)
    assert jac.shape == (size, size)
    # forward differences are accurate to about 1e-9 of the largest entry on
    # the linear problems; on the piston their truncation error grows with
    # the stretch (curvature ~ 1/length^3) to 2.5e-6 at |u| = 0.88 L0
    assert np.max(np.abs(jac - oracle)) <= 5e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rhs_is_time_independent_exactly_when_linear(kind, data):
    # the integrator reuses the rhs at a step's start values for its end
    # time when the class says linear, so the flag must never be wrong
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
    assert same == problem.linear


WINDOW_PROBLEMS = [dahlquist(), heat1d(15, left_bc=1.0), advection1d(16), advection1d(15, periodic=False),
                   ale_piston(15)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_window_takes_n_nominal_steps_and_lands_on_its_end(data):
    problem = data.draw(st.sampled_from(WINDOW_PROBLEMS), label="problem")
    k = data.draw(st.floats(1e-3, 0.05), label="k")
    n = data.draw(st.integers(1, 30), label="n")
    slack = data.draw(st.floats(-1e-10, 1e-10), label="slack") * n * k
    t0 = data.draw(st.floats(0.0, 10.0), label="t0")
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5]), label="theta0"))
    base = initial_state(problem)
    s0 = base.with_values(base.values, time=t0)
    t_end = t0 + n * k + slack

    prop = make_propagator(problem, settings_)
    out = prop.advance(s0, t_end)
    one = make_propagator(problem, settings_)
    chained = s0
    for _ in range(n):
        chained = one.advance(chained, chained.time + k)
    assert out.time == t_end
    assert out.values.tobytes() == chained.values.tobytes()
    assert prop.steps_taken == n

    rate = data.draw(st.floats(0.0, 10.0), label="rate")
    slept = SleepPropagator(k, cost_per_step=0.0, decay_rate=rate).advance(s0, t_end)
    assert slept.time == t_end
    assert slept.values.tobytes() == (s0.values * (1.0 + rate * k) ** -n).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(window=st.floats(1e-300, 1e300), step=st.floats(1e-300, 1e300))
def test_split_window_counts_whole_steps_or_raises_value_error(window, step):
    try:
        n = _split_window(window, step)
    except ValueError:
        return
    assert n >= 1
    assert abs(window - n * step) <= 1e-9 * max(window, step)


BLOCK_KINDS = ["dahlquist", "heat1d", "advection1d-periodic", "advection1d"]


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_advance_many_equals_advance_per_window_bit_for_bit(kind, data):
    problem = _draw_problem(data, kind)
    k = data.draw(st.floats(1e-3, 0.05), label="k")
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="theta0"))
    width = data.draw(st.integers(1, 10), label="width")
    same_length = data.draw(st.booleans(), label="same length")
    n = data.draw(st.integers(0, 12), label="n")
    base = initial_state(problem)
    states, ends = [], []
    for j in range(width):
        t0 = data.draw(st.floats(0.0, 10.0), label=f"t0[{j}]")
        steps = n if same_length else data.draw(st.integers(0, 12), label=f"n[{j}]")
        states.append(base.with_values(_draw_values(data, problem), time=t0))
        ends.append(t0 + steps * k)

    block, loop = make_propagator(problem, settings_), make_propagator(problem, settings_)
    outs = block.advance_many(states, ends)
    for s, t, out in zip(states, ends, outs):
        one = loop.advance(s, t)
        assert out.time == one.time
        assert out.values.tobytes() == one.values.tobytes()
    assert (block.newton_iterations, block.steps_taken) == (loop.newton_iterations, loop.steps_taken)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_steps_equal_the_linear_or_newton_solve_oracle(kind, data):
    problem = _draw_problem(data, kind)
    if kind == "heat1d" and data.draw(st.booleans(), label="zero forcing"):
        problem = replace(problem, left_bc=0.0, right_bc=0.0)  # a zero column then solves every step
    k = data.draw(st.floats(1e-3, 0.05), label="k")
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="theta0"))
    width = data.draw(st.integers(1, 8), label="width")
    n = data.draw(st.integers(1, 12), label="n")
    base = initial_state(problem)
    states = []
    for j in range(width):
        values = _draw_values(data, problem)
        column = data.draw(st.sampled_from(["drawn", "zero", "large", "nan"]), label=f"column[{j}]")
        if column == "zero":
            values = np.zeros_like(values)
        elif column == "large":
            # rounding leaves a step's residual above linalg.TOL: a linear
            # step tests none, Newton may not reach the tolerance, and the
            # piston's displacement collapses its mesh
            values *= data.draw(st.sampled_from([1e5, 3e5, 1e6, 3e6]), label=f"scale[{j}]")
        elif column == "nan":
            values[data.draw(st.integers(0, values.size - 1), label=f"nan at[{j}]")] = np.nan
        states.append(base.with_values(values, time=data.draw(st.floats(0.0, 10.0), label=f"t0[{j}]")))
    ends = [s.time + n * k for s in states]
    oracle = linear_theta_window if problem.linear else newton_theta_window
    expected = [oracle(problem, k, settings_.theta, s.values, s.time, n) for s in states]

    for s, t, (values, iterations, failure) in zip(states, ends, expected):
        one = make_propagator(problem, settings_)
        if failure is None:
            assert one.advance(s, t).values.tobytes() == values.tobytes()
            assert (one.newton_iterations, one.steps_taken) == (iterations, n)
        else:
            with pytest.raises(TimeStepError) as info:
                one.advance(s, t)
            assert str(info.value) == f"implicit step failed at {failure[1]}"

    block = make_propagator(problem, settings_)
    failures = [(failure[0], j, failure[1]) for j, (_, _, failure) in enumerate(expected) if failure]
    if failures:
        with pytest.raises(TimeStepError) as info:
            block.advance_many(states, ends)
        # the first failing window raises, as in the loop of advance, with the windows before it counted
        _, counted, text = failures[0]
        assert str(info.value) == f"implicit step failed at {text}"
        assert (block.newton_iterations, block.steps_taken) == (sum(e[1] for e in expected[:counted]), counted * n)
        return
    outs = block.advance_many(states, ends)
    assert [out.values.tobytes() for out in outs] == [values.tobytes() for values, _, _ in expected]
    assert (block.newton_iterations, block.steps_taken) == (sum(e[1] for e in expected), width * n)


@dataclass(frozen=True)
class _Growth(problems._Affine):
    """``y' = A y + b`` of ``size`` entries, ``A`` 50 I plus a small dense coupling: a step at k = 0.05 grows y 7-9x."""

    kind: ClassVar[str] = "growth"
    size: int = 1

    def layout(self):
        return {"y": (0, self.size)}

    def initial_values(self):
        return np.ones(self.size)

    def _affine(self):
        rng = np.random.default_rng(self.size)
        coupling = 0.01 * rng.standard_normal((self.size, self.size))
        return 50.0 * np.eye(self.size) + coupling, rng.standard_normal(self.size)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_finiteness_test_per_window_names_the_first_failing_step(data):
    # a linear window tests only its last step and replays a failure: a
    # NaN or Inf entry at one window's start fails its first step, and an
    # entry scaled to overflow at a drawn step fails that step; advance and
    # advance_many raise the oracle's step error, count nothing for the
    # failing window, and warn of nothing but the Inf arithmetic
    size = data.draw(st.integers(1, 64), label="size")
    width = data.draw(st.sampled_from([1, 2, 5, 20]), label="width")
    steps = data.draw(st.integers(1, 12), label="steps")
    kind = data.draw(st.sampled_from(["none", "nan", "inf", "-inf", "overflow"]), label="kind")
    problem, k = _Growth(size), 0.05
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5]), label="theta0"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    starts = [rng.uniform(-1.0, 1.0, size) for _ in range(width)]
    window = data.draw(st.integers(0, width - 1), label="window")
    entry = data.draw(st.integers(0, size - 1), label="entry")
    failing_step = 0
    if kind == "overflow":
        failing_step = data.draw(st.integers(0, steps - 1), label="step")
        growth = abs(linear_step_map(problem, k, settings_.theta)[entry, entry])
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        starts[window][entry] = sign * 1.5e308 / growth ** (failing_step + 0.5)
    elif kind != "none":
        starts[window][entry] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    base = initial_state(problem)
    states = [base.with_values(v, time=data.draw(st.floats(0.0, 10.0), label=f"t0[{j}]")) for j, v in enumerate(starts)]
    ends = [s.time + steps * k for s in states]
    # Inf arithmetic sets numpy's overflow and invalid flags; a NaN sets none
    quiet = {} if kind in ("none", "nan") else {"over": "ignore", "invalid": "ignore"}
    with warnings.catch_warnings(), np.errstate(**quiet):
        warnings.simplefilter("error")
        expected = [linear_theta_window(problem, k, settings_.theta, s.values, s.time, steps) for s in states]
        one, block = make_propagator(problem, settings_), make_propagator(problem, settings_)
        if kind == "none":
            assert all(failure is None for _, _, failure in expected)
            outs = block.advance_many(states, ends)
            for s, t, out, (values, _, _) in zip(states, ends, outs, expected):
                assert one.advance(s, t).values.tobytes() == out.values.tobytes() == values.tobytes()
            assert (one.newton_iterations, one.steps_taken) == (block.newton_iterations, block.steps_taken) \
                == (width * steps, width * steps)
            return
        failure = expected[window][2]
        assert failure[0] == failing_step
        assert [j for j, (_, _, f) in enumerate(expected) if f] == [window]
        with pytest.raises(TimeStepError) as alone:
            one.advance(states[window], ends[window])
        with pytest.raises(TimeStepError) as many:
            block.advance_many(states, ends)
    assert str(alone.value) == str(many.value) == f"implicit step failed at {failure[1]}"
    assert (one.newton_iterations, one.steps_taken) == (0, 0)
    assert (block.newton_iterations, block.steps_taken) == (window * steps, window * steps)


class _PoisonOnInput(np.ndarray):
    """A step map whose product writes NaN into one entry whenever its input is one given buffer."""

    def dot(self, x, out=None):
        np.ndarray.dot(self.view(np.ndarray), x, out=out)
        if x.tobytes() == self.poisoned:
            out[self.entry] = np.nan
        return out


SWEEP_KINDS = ["dahlquist", "heat1d", "advection1d-periodic", "advection1d"]


@pytest.mark.parametrize("kind", SWEEP_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_sweep_is_the_loop_of_advance(kind, data):
    # advance_through and sequential_solve over a grid of 2-21 points, 1-12
    # steps a window, return the loop of advance's states byte for byte and
    # count its steps; a NaN that a poisoned product writes in window k
    # raises the loop's step error, with the windows before k counted
    if kind == "dahlquist":
        problem = dahlquist(lam=data.draw(st.floats(-50.0, 50.0), label="lam"))
    else:
        mesh_n = data.draw(st.integers(3, 64), label="mesh_n")
        if kind == "heat1d":
            problem = heat1d(mesh_n, left_bc=data.draw(st.floats(-2.0, 2.0), label="left_bc"))
        else:
            speed = data.draw(st.floats(0.1, 2.0), label="speed") * data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
            problem = advection1d(mesh_n, speed=speed, periodic=kind.endswith("periodic"))
    k = data.draw(st.floats(1e-3, 0.05), label="k")
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5, 5.0]), label="theta0"))
    counts = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=20), label="steps per window")
    grid = [data.draw(st.floats(0.0, 10.0), label="t0")]
    for n in counts:
        grid.append(grid[-1] + n * k)
    s0 = initial_state(problem).with_values(_draw_values(data, problem), time=grid[0])
    loop, sweep, solve = (make_propagator(problem, settings_) for _ in range(3))

    if data.draw(st.booleans(), label="poison"):
        # the buffer [y; 1] one step takes as input, on a clean run stepped one step at a time
        inputs, state = [], s0
        for _ in range(sum(counts)):
            inputs.append(np.append(state.values, 1.0).tobytes())
            state = loop.advance(state, state.time + k)
        poisoned = loop.step_map.view(_PoisonOnInput)
        poisoned.poisoned = inputs[data.draw(st.integers(0, len(inputs) - 1), label="poisoned step")]
        poisoned.entry = data.draw(st.integers(0, s0.size - 1), label="entry")
        first = inputs.index(poisoned.poisoned)  # an earlier step may have the same input
        window = next(j for j in range(len(counts)) if sum(counts[:j + 1]) > first)
        loop, sweep, solve = (make_propagator(problem, settings_) for _ in range(3))
        for prop in (loop, sweep, solve):
            prop.step_map = poisoned
    else:
        window = None

    states, state, failure = [], s0, None
    try:
        for t in grid[1:]:
            states.append(state := loop.advance(state, t))
    except TimeStepError as exc:
        failure = str(exc)
    if window is not None:
        assert failure is not None and loop.steps_taken == sum(counts[:window])
    if failure is None:
        through, solved = sweep.advance_through(s0, grid[1:]), sequential_solve(solve, s0, grid)
        assert solved[0] is s0
        for out in (through, solved[1:]):
            assert [o.time for o in out] == [o.time for o in states]
            assert [o.values.tobytes() for o in out] == [o.values.tobytes() for o in states]
    else:
        # a growing Dahlquist may overflow too, as numpy's overflow error under the suite's warning filter
        with pytest.raises(TimeStepError) as through:
            sweep.advance_through(s0, grid[1:])
        with pytest.raises(TimeStepError) as solved:
            sequential_solve(solve, s0, grid)
        assert str(through.value) == str(solved.value) == failure
    for prop in (sweep, solve):
        assert (prop.newton_iterations, prop.steps_taken) == (loop.newton_iterations, loop.steps_taken)


# largest measured ||step - solve|| / max(||solve||, ||y||), in the max norm, over
# 40000 random draws of these cases: 5.6e-15 on heat, 9.1e-16 on advection and
# 4.2e-16 on the scalar equation
THETA_STEP_BOUND = 1e-14


@pytest.mark.parametrize("kind", BLOCK_KINDS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_step_solves_the_theta_scheme(kind, data):
    problem = _draw_problem(data, kind)
    if kind == "heat1d" and data.draw(st.booleans(), label="left_bc 1e6"):
        problem = replace(problem, left_bc=1e6)
    k = data.draw(st.floats(1e-3, 0.05), label="k")
    settings_ = ThetaSettings(step=k, theta0=data.draw(st.sampled_from([0.0, 0.5]), label="theta0"))
    theta = settings_.theta
    y = _draw_values(data, problem)
    state = initial_state(problem).with_values(y, time=data.draw(st.floats(0.0, 10.0), label="t0"))
    step = make_propagator(problem, settings_).advance(state, state.time + k)
    a, b = problem.affine
    expected = np.linalg.solve(np.eye(y.size) - k * theta * a, y + k * (1.0 - theta) * (a @ y) + k * b)
    scale = max(np.abs(expected).max(), np.abs(y).max())
    assert np.abs(step.values - expected).max() <= THETA_STEP_BOUND * scale


def _reals(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


def _respellings(value) -> list:
    """Values a caller might pass in place of ``value``, some of them not of its kind or not CSV-safe text."""
    if isinstance(value, str):
        return [f"{value},x", f" {value}", value.upper(), "", 1]
    out = [True, "1", 1.5, math.nan, math.inf, 2**53 + 1, 10**400]
    if isinstance(value, int):
        out += [np.int64(value) if abs(value) < 2**63 else value, float(value)]
    elif value is not None:
        out += [np.float64(value), int(value), *([np.float32(value)] if abs(value) < 1e38 else [])]
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_accepted_result_row_reads_back_equal(tmp_path, data):
    positive = _reals(min_value=0.0, exclude_min=True)
    summary = data.draw(st.booleans(), label="summary")
    values = dict(
        problem=data.draw(st.sampled_from(sorted(PROBLEMS)), label="problem"),
        K=data.draw(_reals(min_value=0.0), label="K"),
        k=data.draw(positive, label="k"),
        variant=data.draw(st.sampled_from((*VARIANTS, DISCRETIZATION_VARIANT)), label="variant"),
        iter=data.draw(st.integers(min_value=0), label="iter"),
        boundary=data.draw(st.none() | st.integers(min_value=1), label="boundary"),
        rel_err=data.draw(_reals(min_value=0.0), label="rel_err"),
        theta=data.draw(st.none() | _reals(min_value=0.0, max_value=1.0), label="theta"),
        **{name: data.draw(positive, label=name) if summary else None
           for name in ("t_seq_s", "t_par_s", "speedup_meas", "speedup_theory")},
    )
    if data.draw(st.booleans(), label="respelled"):
        name = data.draw(st.sampled_from(sorted(values)), label="field")
        values[name] = data.draw(st.sampled_from(_respellings(values[name])), label="respelling")
        try:
            row = ResultRow(**values)
        except ValueError:
            return  # rejected, so never written
    else:
        row = ResultRow(**values)
    for path, emit in ((tmp_path / "rows.csv", emit_csv), (tmp_path / "rows.json", emit_json)):
        emit([row], str(path))
        assert load_rows(str(path)) == [row]
