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

One executor, :func:`_execute`, runs the task graph and knows nothing
of the algorithm beyond each key's phase (0 a fine task, 1 a link of
the serial chain); its docstring gives the order at one worker, the
chain and fine threads at more, and where a run stops. A window's fine
propagation for iteration ``i`` starts as soon as the iteration
``i-1`` corrector has published that window's left boundary, so
successive iterations overlap.
After iteration ``i`` the first ``i`` boundaries are final, bit for bit,
so iteration ``i`` steps only windows ``i-1..L-1`` (:func:`pipelined_schedule`
says why), and :func:`run_parareal` copies the final boundaries from the
iterate before once the run ends.
``RunTrace.fine_propagations`` counts the fine propagations that ran.
Every task writes a slot no other task touches (a block, below, fills
the slots of the fine tasks it covers, which then write nothing), so
results are bit-identical across worker counts.

When the fine propagator has ``advance_many``, the fine tasks group
the windows themselves. The run then has one worker, whatever
``PararealConfig.workers`` says (its docstring says why), and the first
fine task of an iteration to run makes one ``advance_many`` call on
every window the iteration steps (for a linear problem, one block
step). Each later fine task finds its slot filled and returns. The
block returns each window's ``advance`` result bit for bit, so
batching changes no result. If the block raises, it is not
retried: each fine task steps its own window, and the first failing
window is named as without the block. The serial order of the one
worker also guarantees that the previous iteration has published every
start the block reads. The fine and chain threads serve only fine
propagators without ``advance_many``, such as ``SleepPropagator``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from .integrators import Propagator, _split_window
from .state import State, _require_fields

VARIANTS = ("classic", "least_squares", "angle_penalized")
SCHEDULERS = ("pipelined",)
# the most worker threads a run may ask for; validation rejects more before any thread starts
MAX_WORKERS = 64

# blocks with coarse mass below this take the classic weight, theta 1
_DEGENERATE_MASS = 1e-28


class PararealError(RuntimeError):
    """A propagator failed inside the iteration; message carries (iteration, interval)."""


@dataclass(frozen=True)
class PararealConfig:
    """Interval count, iteration budget, stopping rule, and scheduling.

    ``scheduler`` names the executor backend; ``"pipelined"`` is the only
    one. ``intervals``, ``max_iters`` and ``workers`` are integers and
    ``tol`` a finite real number, bools excluded, by the number rule of
    ``state._require_fields``; ``tol`` is positive, and ``workers`` is at
    most ``MAX_WORKERS``.
    ``workers`` acts only on a fine propagator without ``advance_many``,
    such as ``SleepPropagator``, whose sleeps release the interpreter
    lock. With ``advance_many`` each iteration's fine sweep is one block,
    and under the lock a second thread adds no compute to the block; it
    only competes with it, so :func:`run_parareal` runs on the calling
    thread alone. :func:`_execute` says what the threads of each count run.
    """

    intervals: int
    max_iters: int
    tol: float = 1e-10
    variant: str = "classic"
    scheduler: str = "pipelined"
    workers: int = 1

    def __post_init__(self):
        _require_fields(self)
        if self.intervals < 2:
            raise ValueError("need at least 2 intervals")
        if not 1 <= self.max_iters <= self.intervals:
            raise ValueError("max_iters must lie in [1, intervals]; further iterations cannot improve")
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
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
    iteration's corrector sweep. ``fine_propagations`` counts the fine
    windows stepped: iteration ``i`` steps windows ``i-1..L-1`` only, so
    ``L + sum(L - i + 1 for i in 2..iterations)`` for a run that
    completes. ``workers`` is the worker count :func:`_execute` ran with:
    1 when the fine propagator has ``advance_many``, since under the
    interpreter lock a second thread only competes with the block, and
    ``PararealConfig.workers`` otherwise.
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


def theoretical_speedup(r: float, iters: int, intervals: int) -> float:
    """Best-case speedup ``1 / (r + (K/N) * (1 + r))`` of the pipelined run.

    ``r`` is the fine/coarse step-size ratio, ``iters`` the iteration
    count ``K`` and ``intervals`` the number ``N`` of windows (one worker
    each); both counts are integers, bools excluded.
    """
    if not 0.0 < r < math.inf:  # NaN too
        raise ValueError("step ratio r must be positive and finite")
    for name, count in (("iters", iters), ("intervals", intervals)):
        if isinstance(count, bool) or not isinstance(count, Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
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
        d = vp.values - vs.values
        diff, ref = math.sqrt(d @ d), math.sqrt(vs.values @ vs.values)
        errors.append(diff / ref if ref > 0.0 else diff)
    return errors


# --------------------------------------------------------------------------
# task graph


@dataclass(frozen=True)
class Task:
    """One unit of the execution plan."""

    kind: str            # "coarse_init" | "fine" | "correct"
    iteration: int       # 0 for the initialization sweep
    interval: int
    depends: tuple

    @property
    def key(self):
        """``(iteration, phase, interval)``; phase 0 is a fine task, 1 a link of the serial chain.

        The chain is the init sweep (``coarse_init``, at iteration 0) and
        the correctors. :func:`_execute` requires every dependency to have
        a smaller key and a fine task to depend only on links, and its
        docstring says how key order and the phase schedule a run.
        """
        return (self.iteration, 0 if self.kind == "fine" else 1, self.interval)


@lru_cache(maxsize=8)
def pipelined_schedule(intervals: int, iterations: int) -> tuple:
    """Dependency graph of one full run: init sweep, then per iteration
    the fine propagations plus the sequential corrector sweep.

    Iteration ``i`` has a fine task and a corrector for each window
    ``l >= i - 1`` only. A fine task of iteration ``i`` waits only for
    the iteration ``i-1`` corrector of its left boundary, so successive
    iterations overlap; a corrector waits for its own fine value, the
    previous iteration's coarse prediction it has to subtract and, but
    for the iteration's first (``l == i - 1``), its predecessor in the
    sweep. The first corrector starts from boundary ``i-1``, which is
    final, so it reuses the coarse value iteration ``i-1`` computed
    there. Iterations beyond ``intervals`` add no task.

    Dropping the windows below ``i-1`` is exact. Every iterate starts at
    the initial state, and by induction on ``i >= 2``: if iterates
    ``i-1`` and ``i-2`` agree on boundaries ``0..i-2``, every
    input of fine task ``(i, l <= i-2)`` and of corrector ``(i, l <=
    i-2)``, ``theta_weight``'s included, equals the input of the same
    task in iteration ``i-1``, so iterates ``i`` and ``i-1`` agree on
    ``0..i-1``, and each dropped task would repeat an earlier one bit
    for bit. The graph is built once per shape and shared, so it is a
    tuple of frozen tasks.
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
        for l in range(i - 1, intervals):
            deps = ((i - 1, 1, l - 1),) if l > 0 else ()
            tasks.append(Task("fine", i, l, deps))
        for l in range(i - 1, intervals):
            sweep = ((i, 1, l - 1),) if l >= i else ()  # the first corrector has no predecessor
            tasks.append(Task("correct", i, l, ((i, 0, l), (i - 1, 1, l)) + sweep))
    return tuple(tasks)


def _execute(tasks: Sequence[Task], run_task: Callable, workers: int) -> Optional[int]:
    """Run the task graph in key order; return the converged iteration, if any.

    Every dependency must be a task with a smaller key, and a fine task
    (phase 0) may depend only on links of the chain (phase 1); a graph
    that breaks either rule (an unknown task, a later one, a cycle, a
    fine task waiting for a fine task) raises ``ValueError`` naming both
    before any task runs. Each task then sorts after every task it waits
    for, so ascending key order is a topological order: the serial order
    of the run. At one worker that is the whole executor: the calling
    thread runs the tasks through ``run_task`` in ascending key order and
    starts no thread. It returns at the first task that reports
    convergence, and an exception from a task propagates unchanged, so
    nothing after it runs.

    At more workers the executor is the chain. One chain thread runs the
    links (the init sweep and the correctors) in ascending key order, one
    at a time, since each waits for the one before it; it waits before
    each link for that link's fine dependencies, and after each link
    submits every fine task whose largest dependency that link was to a
    pool of ``workers`` fine threads (the fine tasks with no dependency
    are submitted at the start). So at most ``workers`` fine tasks and
    one link are in flight, a link never waits for a fine slot, and a
    fine task starts as soon as the one link it waits for has run. The
    calling thread only waits for the chain.

    The chain stops at the first link that reports convergence, that
    raises, or whose fine dependency failed. The calling thread then
    cancels the queued fine tasks that sort after that link (fine tasks
    that have started finish, and their outcomes are dropped), awaits the
    fine tasks that sort before it in key order and raises the first
    failure, and otherwise raises the link's exception or returns its
    outcome. The failure raised is thus the one with the smallest key,
    the one the serial order meets first, and a failure beside
    convergence is dropped, since it comes from a later iteration, as
    long as the link that converges depends, directly or through other
    tasks, on every task of its iteration and the ones before, as the
    last corrector of :func:`pipelined_schedule` does. A fine failure is
    noticed only when the chain reaches a link that waits for it, so a
    few links with larger keys may run first; their results are dropped.
    An interrupt of the calling thread cancels the queued fine tasks and
    stops the chain at the first link that waits for one of them or
    releases one. Both pools are joined before this returns or raises.
    """
    by_key = {t.key: t for t in tasks}
    for t in tasks:
        for dep in t.depends:
            if dep not in by_key or dep >= t.key:
                raise ValueError(f"task {t.key} depends on {dep}, which is not a task with a smaller key")
            if dep[1] == 0 == t.key[1]:
                raise ValueError(f"fine task {t.key} depends on fine task {dep}, not on a link of the chain")
    if workers == 1:
        for key in sorted(by_key):
            if (outcome := run_task(by_key[key])) is not None:
                return outcome
        return None
    links = sorted(key for key in by_key if key[1] == 1)
    released: dict = {}  # link key, or None for the start -> the fine keys it releases, in key order
    for key in sorted(by_key):
        if key[1] == 0:
            released.setdefault(max(by_key[key].depends, default=None), []).append(key)
    fine: dict = {}  # fine key -> future, written only by the chain once it runs

    def release(link) -> None:
        for key in released.get(link, ()):
            fine[key] = fine_pool.submit(run_task, by_key[key])

    def chain() -> tuple:
        """Run the links up to the one the run stops at; return its key and its outcome or exception."""
        for key in links:
            if any(fine[dep].exception() is not None for dep in by_key[key].depends if dep[1] == 0):
                return key, None
            try:
                outcome = run_task(by_key[key])
            except BaseException as exc:  # re-raised on the calling thread
                return key, exc
            if outcome is not None:
                return key, outcome
            release(key)
        return None, None

    with ThreadPoolExecutor(workers) as fine_pool, ThreadPoolExecutor(1) as chain_pool:
        release(None)
        try:
            stop, outcome = chain_pool.submit(chain).result()
        except BaseException:
            # an interrupt: cancel every queued fine task; the chain stops at the first link
            # that waits for a cancelled task or releases one into the shut pool
            fine_pool.shutdown(wait=False, cancel_futures=True)
            raise
        for key, future in fine.items():
            if stop is not None and key > stop:
                future.cancel()
        for key in sorted(fine):
            if (stop is None or key < stop) and (exc := fine[key].exception()) is not None:
                raise exc
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


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
                if advance_many is not None and l == i - 1:
                    # the iteration's first fine task; the run has one worker, so the
                    # serial order has published every start
                    try:
                        fine_vals[i][i:] = advance_many(X[i - 1][i - 1:L], t_grid[i:])
                        return None
                    except Exception:
                        pass  # not retried: each window steps alone, so the first failing one is named
                fine_vals[i][l + 1] = F.advance(X[i - 1][l], t_grid[l + 1])
                return None
            # the first corrector starts from the final boundary i-1, whose coarse value
            # iteration i-1 holds; X[i][i-1] itself is filled in after the run
            coarse_new = coarse_vals[i - 1][i] if l == i - 1 else C.advance(X[i][l], t_grid[l + 1])
            fine_old = fine_vals[i][l + 1]
            th = theta_weight(fine_old, coarse_new, cfg.variant)
            new = parareal_update(coarse_new, fine_old, coarse_vals[i - 1][l + 1], th)
            X[i][l + 1] = new
            coarse_vals[i][l + 1] = coarse_new
            theta_rows[i][l] = th
            d = new.values - X[i - 1][l + 1].values
            diff, norm = math.sqrt(d @ d), math.sqrt(new.values @ new.values)
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

    workers = 1 if advance_many is not None else cfg.workers
    stop_at = _execute(pipelined_schedule(L, max_iters), run_task, workers)

    iters_run = stop_at if stop_at is not None else max_iters
    for i in range(1, iters_run + 1):
        # the final boundaries iteration i did not recompute; the unrun correctors' norms stay 0.0
        X[i][1:i] = X[i - 1][1:i]
        theta_rows[i][:i - 1] = theta_rows[i - 1][:i - 1]
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
