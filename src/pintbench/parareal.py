"""Parallel-in-time iteration on a dependency-driven task executor.

The algorithm splits the horizon into ``L`` equal windows, seeds every
window boundary with a cheap coarse propagator ``C``, then iterates: all
windows are re-propagated with the expensive fine propagator ``F`` (in
parallel), and a sequential sweep corrects each boundary via

    X[i][l+1] = theta * C(X[i][l]) + F(X[i-1][l]) - theta * C(X[i-1][l])

with ``theta = 1`` for the classic update. The weighted variants pick
``theta`` from the inner products of the fine value and the new coarse
prediction per layout block (least-squares projection, or the same
projection further divided by the fine norm to damp mismatched pairs),
average over blocks, and clamp to [0, 1].

One executor runs the task graph and knows nothing of the algorithm:
one loop on the calling thread pops the ready task with the smallest
key, has it run and records its outcome. A window's fine propagation
for iteration ``i`` starts as soon as the iteration ``i-1`` corrector
has published that window's left boundary, so successive iterations
overlap when the loop hands its tasks to a pool of ``workers`` threads.
Window 0 starts from the initial state in every iteration, so its fine
and coarse values are computed once, and ``RunTrace.fine_propagations``
counts the fine propagations that ran. With one worker the loop runs
each task itself, on the calling thread, in the deterministic serial
order, so ``workers=1`` is the serial run. Every task writes a slot no
other task touches (a block, below, fills the slots of the fine tasks
it covers, which then write nothing), so results are bit-identical
across worker counts.

When the fine propagator has ``advance_many``, the fine tasks group
the windows themselves. The run has one worker (:func:`worker_threads`),
and the first fine task of an iteration to run makes one
``advance_many`` call on every window of that iteration (for a linear
problem, one block step). Each later fine task finds its slot filled
and returns. The block returns each window's ``advance`` result bit for
bit, so batching changes no result. If the block raises, it is not
retried: each fine task steps its own window, and the first failing
window is named as without the block. The serial order of the one
worker also guarantees that the previous iteration has published every
start the block reads. Pool threads serve only fine propagators without
``advance_many``, such as ``SleepPropagator``.
"""

from __future__ import annotations

import heapq
import math
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .integrators import Propagator, _split_window
from .state import State

VARIANTS = ("classic", "least_squares", "angle_penalized")
SCHEDULERS = ("pipelined",)
# the most worker threads a run may ask for; validation rejects more before any thread starts
MAX_WORKERS = 64

# blocks with coarse mass below this are skipped by the weighting (theta 1)
_DEGENERATE_MASS = 1e-28


class PararealError(RuntimeError):
    """A propagator failed inside the iteration; message carries (iteration, interval)."""


@dataclass(frozen=True)
class PararealConfig:
    """Interval count, iteration budget, stopping rule, and scheduling.

    ``scheduler`` names the executor backend; ``"pipelined"`` is the only
    one. The calling thread dispatches the tasks and ``workers`` pool
    threads run them, at most ``MAX_WORKERS``; one worker is the calling
    thread itself running the tasks in the serial order.
    :func:`worker_threads` says how many threads a run uses.
    """

    intervals: int
    max_iters: int
    tol: float = 1e-10
    variant: str = "classic"
    scheduler: str = "pipelined"
    workers: int = 1

    def __post_init__(self):
        if self.intervals < 2:
            raise ValueError("need at least 2 intervals")
        if not 1 <= self.max_iters <= self.intervals:
            raise ValueError("max_iters must lie in [1, intervals]; further iterations cannot improve")
        # NaN would never stop a run, and inf would stop every run after iteration 1
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}, expected one of {SCHEDULERS}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}]")


@dataclass
class RunTrace:
    """Per-iteration records collected by :func:`run_parareal`.

    ``theta_values``, ``correction_norms`` and ``boundary_errors`` are
    ``(iterations, L)`` arrays: row ``i - 1`` holds iteration ``i``, column
    ``l - 1`` boundary ``l`` (no rows without an oracle for the errors).
    ``iterate_values`` is a list of ``(L + 1, size)`` arrays, the boundary
    vectors of every iteration including the coarse initialization at
    index 0. They are rows of one array copied once at the end of the
    run, and the returned states' values are views of its last row, so
    the trace holds no second copy. ``iteration_seconds`` are cumulative
    wall times from the start of the run to the completion of each
    iteration's corrector sweep. ``workers`` is the run's
    :func:`worker_threads`: the calling thread alone at one, otherwise
    pool threads while the calling thread dispatches.
    """

    iterations_run: int = 0
    converged: bool = False
    theta_values: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    correction_norms: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    boundary_errors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    iterate_values: list = field(default_factory=list)
    init_seconds: float = 0.0
    iteration_seconds: list = field(default_factory=list)
    total_seconds: float = 0.0
    fine_propagations: int = 0
    workers: int = 1


def worker_threads(F: Propagator, workers: int) -> int:
    """Threads that run the tasks of :func:`run_parareal` with fine propagator ``F``.

    One, the calling thread, when ``F`` has ``advance_many``, whatever
    ``workers`` says: each iteration's fine sweep is then one block, and
    on an interpreter with a global lock a second thread adds no compute
    to the block; it only competes with it for the lock. ``workers`` pool
    threads otherwise, for fine propagators such as ``SleepPropagator``,
    whose sleeps release the lock.
    """
    return 1 if hasattr(F, "advance_many") else workers


def theoretical_speedup(r: float, iters: int, intervals: int) -> float:
    """Best-case speedup ``1 / (r + (K/N) * (1 + r))`` of the pipelined run.

    ``r`` is the fine/coarse step-size ratio, ``iters`` the iteration
    count ``K`` and ``intervals`` the number ``N`` of windows (one worker
    each).
    """
    if not 0.0 < r < math.inf:  # NaN too
        raise ValueError("step ratio r must be positive and finite")
    if not 0 < iters <= intervals:
        raise ValueError("iteration count must lie in (0, intervals]")
    return 1.0 / (r + (iters / intervals) * (1.0 + r))


def _same_time(t: float, grid_t: float) -> bool:
    """Whether ``t`` is the grid time ``grid_t`` up to 1e-12 relative rounding slack."""
    return abs(t - grid_t) <= 1e-12 * max(1.0, abs(grid_t))


def sequential_solve(F: Propagator, s0: State, t_grid: Sequence[float]) -> list:
    """Propagate ``s0`` through every grid point in one uninterrupted run."""
    grid = [float(t) for t in t_grid]
    if len(grid) < 2:
        raise ValueError("time grid needs at least two points")
    if not _same_time(grid[0], s0.time):
        raise ValueError(f"grid starts at {grid[0]} but the state is at {s0.time}")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("time grid must be strictly increasing")
    states = [s0]
    for t in grid[1:]:
        states.append(F.advance(states[-1], t))
    return states


def parareal_update(coarse_new: State, fine_old: State, coarse_old: State, theta: float) -> State:
    """Predictor-corrector combination ``theta*C_new + F_old - theta*C_old``."""
    if not (fine_old.same_layout(coarse_new) and fine_old.same_layout(coarse_old)):
        raise ValueError("states in the update must share one layout")
    t = fine_old.time
    if not (_same_time(coarse_new.time, t) and _same_time(coarse_old.time, t)):
        raise ValueError("states in the update must sit at the same time")
    values = theta * coarse_new.values + fine_old.values - theta * coarse_old.values
    return fine_old.with_values(values, time=t)


def theta_weight(fine: State, coarse: State, variant: str) -> float:
    """Data-dependent coarse weight, averaged over layout blocks.

    Per block, ``least_squares`` uses <F,C>/<C,C> (the scalar minimizing
    ||F - theta*C||) and ``angle_penalized`` divides that projection by
    <F,F> as well, shrinking the weight whenever fine and coarse carry
    different mass. Blocks with negligible coarse mass fall back to the
    classic weight 1. The block average is clamped to [0, 1].
    """
    if variant == "classic":
        return 1.0
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not fine.same_layout(coarse):
        raise ValueError("fine and coarse states must share one layout")
    weights = []
    for name in fine.layout:
        f = fine.block(name)
        c = coarse.block(name)
        cc = float(np.dot(c, c))
        if cc <= _DEGENERATE_MASS:
            weights.append(1.0)
            continue
        fc = float(np.dot(f, c))
        if variant == "least_squares":
            w = fc / cc
        else:
            denom = cc * float(np.dot(f, f))
            w = fc / denom if denom > _DEGENERATE_MASS**2 else 1.0
        weights.append(w if np.isfinite(w) else 1.0)
    return float(min(max(sum(weights) / len(weights), 0.0), 1.0))


def boundary_error(parareal_states: Sequence[State], sequential_states: Sequence[State]) -> list:
    """Relative Euclidean error per boundary; the absolute one where the
    sequential norm vanishes. Paired states must share one layout."""
    if len(parareal_states) != len(sequential_states):
        raise ValueError("state lists must have equal length")
    errors = []
    for vp, vs in zip(parareal_states, sequential_states):
        if not vp.same_layout(vs):
            raise ValueError("paired states must share one layout")
        diff = float(np.linalg.norm(vp.values - vs.values))
        ref = float(np.linalg.norm(vs.values))
        errors.append(diff / ref if ref > 0.0 else diff)
    return errors


# --------------------------------------------------------------------------
# task graph


@dataclass(frozen=True)
class Task:
    """One unit of the execution plan.

    ``key`` orders tasks so that running them in ascending key order on a
    single worker reproduces the serial algorithm exactly: all keys of
    iteration ``i`` sort below iteration ``i+1``, and within an iteration
    the fine phase (0) sorts below the corrector phase (1).
    """

    kind: str            # "coarse_init" | "fine" | "correct"
    iteration: int       # 0 for the initialization sweep
    interval: int
    depends: tuple

    @property
    def key(self):
        phase = 0 if self.kind == "fine" else 1
        return (self.iteration, phase, self.interval)


def pipelined_schedule(intervals: int, iterations: int) -> list:
    """Dependency graph of one full run: init sweep, then per iteration
    the fine propagations plus the sequential corrector sweep.

    A fine task of iteration ``i`` waits only for the iteration ``i-1``
    corrector of its left boundary, so successive iterations overlap; a
    corrector waits for its predecessor in the sweep, its own fine value,
    and the previous iteration's coarse prediction it has to subtract.
    Window 0 starts from the initial state in every iteration, so its
    fine value is propagated once, in iteration 1: there is no fine task
    ``(i, 0)`` for ``i >= 2``, and every corrector of window 0 reads
    iteration 1's.
    """
    if intervals < 1:
        raise ValueError("need at least one interval")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    tasks = []
    for l in range(intervals):
        deps = ((0, 1, l - 1),) if l > 0 else ()
        tasks.append(Task("coarse_init", 0, l, deps))
    for i in range(1, iterations + 1):
        for l in range(0 if i == 1 else 1, intervals):
            deps = ((i - 1, 1, l - 1),) if l > 0 else ()
            tasks.append(Task("fine", i, l, deps))
        for l in range(intervals):
            deps = [(i if l > 0 else 1, 0, l), (i - 1, 1, l)]
            if l > 0:
                deps.append((i, 1, l - 1))
            tasks.append(Task("correct", i, l, tuple(deps)))
    return tasks


def _execute(tasks: Sequence[Task], run_task: Callable, workers: int) -> Optional[int]:
    """Run the task graph in priority order; return the converged iteration, if any.

    A plain task runner whose one loop, on the calling thread, owns every
    piece of scheduling state, so nothing is shared and nothing locked.
    It pops the smallest ready key and runs that one task through
    ``run_task``: itself at one worker, so one worker is the serial
    order, and otherwise on a pool of ``workers`` threads with at most
    ``workers`` tasks in flight, recording each outcome as it arrives.
    Once ``run_task`` reports convergence at iteration ``i``, tasks of
    later iterations are skipped. A failing task stops only tasks with
    larger keys: the failure with the smallest key is raised, which is
    the one the serial order meets first, and a failure in an iteration
    after the converged one is dropped because the serial order never
    runs it. A stall (tasks left but nothing ready or running) cannot
    happen on a well-formed graph and is reported as a defect rather
    than swallowed. The pool is joined before this returns or raises.
    """
    by_key = {t.key: t for t in tasks}
    indegree = {t.key: len(t.depends) for t in tasks}
    dependents: dict = {}
    for t in tasks:
        for dep in t.depends:
            if dep not in by_key:
                raise ValueError(f"task {t.key} depends on unknown task {dep}")
            dependents.setdefault(dep, []).append(t.key)
    ready = [key for key, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    stop_at: Optional[int] = None
    failure: Optional[tuple] = None  # (task key, exception)
    in_flight: dict = {}  # future -> task key

    def record(key, outcome: Optional[int], exc: Optional[BaseException]) -> None:
        nonlocal stop_at, failure
        if exc is not None:
            if failure is None or key < failure[0]:
                failure = (key, exc)
            return
        if outcome is not None:
            stop_at = outcome if stop_at is None else min(stop_at, outcome)
        for dep_key in dependents.get(key, ()):
            indegree[dep_key] -= 1
            if indegree[dep_key] == 0:
                heapq.heappush(ready, dep_key)

    with (ThreadPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        while True:
            while ready and len(in_flight) < workers and (failure is None or ready[0] < failure[0]):
                key = heapq.heappop(ready)
                task = by_key[key]
                if stop_at is not None and task.iteration > stop_at:
                    record(key, None, None)
                elif pool is not None:
                    in_flight[pool.submit(run_task, task)] = key
                else:
                    try:
                        outcome = run_task(task)
                    except BaseException as exc:
                        record(key, None, exc)
                    else:
                        record(key, outcome, None)
            if not in_flight:
                break
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                key, exc = in_flight.pop(future), future.exception()
                record(key, None if exc is not None else future.result(), exc)
    # without a failure every task whose dependencies all finished has run
    if failure is None and any(indegree.values()):
        raise RuntimeError("scheduler stalled: tasks remain but none are ready or running")
    # convergence at iteration i needs every task up to i to succeed, so a
    # task failure beside it comes from a later iteration, which the serial
    # order never runs
    if failure is not None and stop_at is None:
        raise failure[1]
    return stop_at


def run_parareal(
    C: Propagator,
    F: Propagator,
    s0: State,
    t_end: float,
    cfg: PararealConfig,
    oracle: Optional[Sequence[State]] = None,
):
    """Run the parallel-in-time iteration over ``[s0.time, t_end]``.

    Iteration 0 seeds all boundaries with a sequential coarse sweep; each
    following iteration runs the fine propagations and the corrector
    sweep, stopping once the largest relative boundary correction drops
    to ``cfg.tol`` or the budget is exhausted. With an
    ``oracle`` (the sequential fine states at the same grid), relative
    boundary errors are recorded per iteration.

    Returns ``(states, trace)``: the boundary states of the last
    completed iteration and the :class:`RunTrace`.
    """
    L = cfg.intervals
    if t_end <= s0.time:
        raise ValueError("t_end must lie beyond the initial time")
    window = (t_end - s0.time) / L
    for prop in (C, F):
        _split_window(window, prop.step)  # raises NonDivisibleWindow on misfit
    t_grid = [s0.time + (t_end - s0.time) * l / L for l in range(L + 1)]
    t_grid[-1] = t_end
    if oracle is not None:
        if len(oracle) != L + 1:
            raise ValueError(f"oracle must hold {L + 1} states, got {len(oracle)}")
        for l, (state, t) in enumerate(zip(oracle, t_grid)):
            if not _same_time(state.time, t):
                raise ValueError(f"oracle state {l} is at time {state.time}, not at the grid time {t}")
            if not state.same_layout(s0):
                raise ValueError(f"oracle state {l} does not share the initial state's layout")

    max_iters = cfg.max_iters
    X = [[None] * (L + 1) for _ in range(max_iters + 1)]
    for row in X:
        row[0] = s0
    coarse_vals = [[None] * (L + 1) for _ in range(max_iters + 1)]
    fine_vals = [[None] * (L + 1) for _ in range(max_iters + 1)]
    theta_rows = [[1.0] * L for _ in range(max_iters + 1)]
    corr_rows = [[0.0] * L for _ in range(max_iters + 1)]
    timing = {"init": 0.0, "iterations": [0.0] * (max_iters + 1)}
    advance_many = getattr(F, "advance_many", None)
    t_start = time.perf_counter()

    def run_task(task: Task) -> Optional[int]:
        i, l = task.iteration, task.interval
        try:
            if task.kind == "coarse_init":
                nxt = C.advance(X[0][l], t_grid[l + 1])
                X[0][l + 1] = nxt
                coarse_vals[0][l + 1] = nxt
                if l == L - 1:
                    timing["init"] = time.perf_counter() - t_start
                return None
            if task.kind == "fine":
                if fine_vals[i][l + 1] is not None:
                    return None  # stepped by this iteration's block
                if advance_many is not None and l == (0 if i == 1 else 1):
                    # the iteration's first fine task (window 0 steps in iteration 1 only); the
                    # run has one worker, so the serial order has published every start
                    try:
                        fine_vals[i][l + 1:] = advance_many(X[i - 1][l:L], t_grid[l + 1:])
                        return None
                    except Exception:
                        pass  # not retried: each window steps alone, so the first failing one is named
                fine_vals[i][l + 1] = F.advance(X[i - 1][l], t_grid[l + 1])
                return None
            if l == 0:
                # X[i][0] is s0 in every row: C(s0) is the init sweep's, F(s0) iteration 1's
                coarse_new, fine_old = coarse_vals[0][1], fine_vals[1][1]
            else:
                coarse_new, fine_old = C.advance(X[i][l], t_grid[l + 1]), fine_vals[i][l + 1]
            th = theta_weight(fine_old, coarse_new, cfg.variant)
            new = parareal_update(coarse_new, fine_old, coarse_vals[i - 1][l + 1], th)
            X[i][l + 1] = new
            coarse_vals[i][l + 1] = coarse_new
            theta_rows[i][l] = th
            diff = float(np.linalg.norm(new.values - X[i - 1][l + 1].values))
            norm = float(np.linalg.norm(new.values))
            corr_rows[i][l] = 0.0 if diff == 0.0 else (diff / norm if norm > 0.0 else float("inf"))
            if l == L - 1:
                timing["iterations"][i] = time.perf_counter() - t_start
                if max(corr_rows[i]) <= cfg.tol:
                    return i
            return None
        except PararealError:
            raise
        except Exception as exc:
            raise PararealError(f"{task.kind} failed at iteration {i}, interval {l}: {exc}") from exc

    workers = worker_threads(F, cfg.workers)
    stop_at = _execute(pipelined_schedule(L, max_iters), run_task, workers)

    iters_run = stop_at if stop_at is not None else max_iters
    trace = RunTrace()
    trace.iterations_run = iters_run
    trace.converged = stop_at is not None
    trace.workers = workers
    trace.theta_values = np.array(theta_rows[1:iters_run + 1])
    trace.correction_norms = np.array(corr_rows[1:iters_run + 1])
    trace.init_seconds = timing["init"]
    trace.iteration_seconds = [timing["iterations"][i] for i in range(1, iters_run + 1)]
    trace.total_seconds = time.perf_counter() - t_start
    # a slot is filled only by a fine task that succeeded
    trace.fine_propagations = sum(v is not None for row in fine_vals for v in row)
    errors = [boundary_error(X[i][1:], oracle[1:]) for i in range(1, iters_run + 1)] if oracle is not None else []
    trace.boundary_errors = np.array(errors).reshape(len(errors), L)
    iterates = np.stack([x.values for row in X[:iters_run + 1] for x in row]).reshape(iters_run + 1, L + 1, -1)
    trace.iterate_values = list(iterates)
    return [x.with_values(v) for x, v in zip(X[iters_run], iterates[iters_run])], trace
