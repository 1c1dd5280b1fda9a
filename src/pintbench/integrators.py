"""One-step theta-scheme integration and the propagator contract.

The integrator solves, per step of size ``k``,

    y_n - y_{n-1} - k * [theta * f(y_n, t_n) + (1 - theta) * f(y_{n-1}, t_{n-1})] = 0

``theta = 1/2`` is the Crank-Nicolson scheme (second order),
``theta = 1`` backward Euler (first order), and the shifted variant
``theta = 1/2 + theta0 * k`` trades a step-size proportional amount of
damping for retained second-order accuracy. Every failure of a step is
reported as a ``TimeStepError`` naming the step's ``(t_n, k)``.

The step comes in two kinds, and ``make_propagator`` builds the
propagator of the problem's kind: a linear problem's step is an exact
affine map (Hairer & Wanner II, section IV.3), which
``LinearThetaPropagator`` takes from ``linear_step_map``'s shared
cache, and a nonlinear problem's step is a simplified Newton solve
(section IV.8) in ``NewtonThetaPropagator``. Both derive from
``ThetaPropagator``, which holds what they share. ``Propagator`` is the
contract by which the parallel-in-time engine composes them, a cheap
coarse propagator and an expensive fine one over the same windows, and
``SleepPropagator`` is a synthetic one for scheduler benchmarks.
Besides ``advance``, the contract names two optional calls that take a
loop of windows at once, ``advance_many`` over independent windows and
``advance_through`` over chained ones, and each must equal its loop
bit for bit. A linear propagator has both: every step it takes, a lone
window's, a sweep's or a stack's, runs in one two-buffer loop,
``_linear``, so the serial coarse chain pays for its products and
little else.

A window of ``n`` steps takes ``n`` steps of exactly the propagator's
step and is stamped ``t_end``: rounding slack of at most 1e-9 relative
between the window and ``n`` steps is stamped, not integrated.
Propagators are safe to share across workers: their settings do not
change after construction, and the only state ``advance`` writes is a
pair of cost counters updated under a lock. Each ``advance`` is
deterministic, so identical inputs give bit-identical outputs
regardless of scheduling.
"""

from __future__ import annotations

import functools
import math
import threading
import time as _time
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import problems as _problems
from .linalg import MaxItersExceeded, NumericBreakdown, finite_test, newton_solve
from .state import State, _require_fields


class NonDivisibleWindow(ValueError):
    """Requested window is not an integer multiple of the propagator step."""


class TimeStepError(RuntimeError):
    """An implicit step failed; message carries the step's (t_n, k)."""


# window mismatch below this relative threshold is rounding slack, stamped not integrated
_WINDOW_SLACK = 1e-9

# step maps kept at once: one per (problem, step size, theta), and a run
# uses a few step sizes
_STEP_MAP_CACHE_SIZE = 64


@dataclass(frozen=True)
class ThetaSettings:
    """Step size and implicitness shift for theta stepping.

    ``step`` and ``theta0`` follow the number rule of
    ``state._require_fields``: finite real numbers, bools excluded, and
    ``step`` is positive. The effective implicitness is
    ``theta = 1/2 + theta0 * step``, clamped to [1/2, 1]; configurations
    more than 1e-12 outside it are rejected.
    """

    step: float
    theta0: float = 0.0

    def __post_init__(self):
        _require_fields(self)
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        theta = 0.5 + self.theta0 * self.step
        if not 0.5 - 1e-12 <= theta <= 1.0 + 1e-12:
            raise ValueError(f"effective theta {theta} at step {self.step!r} outside [1/2, 1]; adjust theta0")

    @property
    def theta(self) -> float:
        return min(max(0.5 + self.theta0 * self.step, 0.5), 1.0)


def _iteration_inverse(jacobian: np.ndarray, k: float, theta: float) -> np.ndarray:
    """Inverse of ``I - k*theta*jacobian``; ``NumericBreakdown`` when it is singular."""
    try:
        return np.linalg.inv(np.eye(jacobian.shape[0]) - (k * theta) * jacobian)
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdown(f"singular iteration matrix at k={k!r}") from exc


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` that starts on a 64-byte boundary.

    It is a slice of an allocation 7 entries longer, whose address is read
    once (about 1.4 us). OpenBLAS's gemv reads a map that starts 16 or 48
    bytes past a cache line about a tenth slower, with the same bits at
    every offset.
    """
    count = math.prod(shape)
    raw = np.empty(count + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + count].reshape(shape)


@functools.lru_cache(maxsize=_STEP_MAP_CACHE_SIZE)
def linear_step_map(problem: _problems.Problem, k: float, theta: float) -> np.ndarray:
    """The read-only augmented step map ``[M | c]`` of a linear problem: one theta step is ``y -> M y + c``.

    Subtracting ``y_{n-1}`` from both sides of the scheme leaves
    ``(I - k*theta*A) (y_n - y_{n-1}) = k f(y_{n-1})``, so with
    ``K = k * (I - k*theta*A)^-1`` the step's increment is ``K f(y)``, and
    ``f(y) = A y + b`` gives ``M = I + K A`` and ``c = K b``. They are
    returned as one C-contiguous ``size x (size + 1)`` array, ``M`` in the
    first ``size`` columns and ``c`` in the last, so that its product with
    ``[y; 1]`` is the whole step. The array starts on a 64-byte boundary
    (``_aligned_empty``). One module-level cache, keyed on the
    problem, the step size and theta, serves every propagator, so
    propagators on the same problem and step size share one array instead
    of each holding a copy. A singular iteration matrix raises
    ``NumericBreakdown``.
    """
    a, b = problem.affine
    size = a.shape[0]
    gain = k * _iteration_inverse(a, k, theta)
    step = _aligned_empty((size, size + 1))
    step[:, :size] = np.eye(size) + gain.dot(a)
    step[:, size] = gain.dot(b)
    step.base.setflags(write=False)
    step.setflags(write=False)
    return step


class Propagator(Protocol):
    """What the engine needs of a propagator: ``step`` and ``advance``.

    ``step`` is the fixed internal step, and ``advance(state, t_end)``
    takes the window's whole number of steps from ``state`` and returns
    the state stamped ``t_end``. A propagator may also have either of two
    optional methods, each a loop of ``advance`` taken at once:

    - ``advance_many(states, t_ends) -> list``, the loop of ``advance``
      over independent windows, one per start state. The engine calls it
      on a fine propagator with an iteration's windows, on the run's one
      thread (``parareal.PararealConfig`` says why).
    - ``advance_through(state, t_grid) -> list``, the chained loop
      ``state = advance(state, t)`` over the times of ``t_grid``, which
      returns the state at each of them. ``parareal.sequential_solve``
      calls it, and so the one-worker init sweep of the coarse
      propagator.

    Either one's contract is its loop: for every window it returns
    exactly the state ``advance`` returns there, with the same bytes, and
    the propagator's counters grow by the loop's totals. A window that
    fails raises the loop's error for the first failing window, with the
    windows before it counted, and a window that cannot be stepped
    raises the ``ValueError`` the loop would, before any step. The
    engine does not retry a call that raised: it steps each window
    through ``advance``, so the first failing window is named.
    """

    step: float

    def advance(self, state: State, t_end: float) -> State:
        ...


# a run splits a few distinct windows over and over: each coarse and fine window,
# and the rounding of its grid times; a hit costs a fifth of the checks, and typed
# keys keep a NumPy scalar's own arithmetic
@functools.lru_cache(maxsize=256, typed=True)
def _split_window(window: float, step: float) -> int:
    """Number of internal steps for ``window``, validating divisibility."""
    if not 0.0 < step < math.inf:  # NaN too
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not math.isfinite(window):
        raise ValueError(f"window {window!r} is not finite")
    ratio = window / step
    if not math.isfinite(ratio):
        raise ValueError(f"window {window!r} holds too many steps of {step!r}")
    n = max(int(round(ratio)), 1)
    mismatch = abs(window - n * step)
    if mismatch > _WINDOW_SLACK * max(abs(window), step):
        raise NonDivisibleWindow(
            f"window {window!r} is not an integer multiple of step {step!r} (mismatch {mismatch:.3e})"
        )
    return n


def _window_steps(t0: float, t_end: float, step: float) -> int:
    """Steps of ``step`` from time ``t0`` to ``t_end``: 0 for an empty window, ValueError for a backwards one."""
    window = t_end - t0
    if window == 0.0:
        return 0
    if window < 0.0:
        raise ValueError(f"cannot advance backwards from {t0} to {t_end}")
    return _split_window(window, step)


class ThetaPropagator:
    """What the two theta-scheme propagators share: one problem at a fixed step size.

    ``make_propagator`` builds ``LinearThetaPropagator`` or
    ``NewtonThetaPropagator`` by the problem's kind, and each has its own
    ``advance``. ``theta`` is the effective implicitness. ``advance``,
    ``advance_many`` and a linear propagator's ``advance_through`` are the
    only paths to a step, so one step is
    ``advance(state, state.time + step)``. Newton iterations and steps
    are accumulated in ``newton_iterations`` and ``steps_taken`` for cost
    diagnostics; these counters change under a lock, everything else is
    fixed at construction.
    """

    def __init__(self, problem: _problems.Problem, settings: ThetaSettings):
        self.problem = problem
        self.step = settings.step
        # not part of the Propagator contract: only perfbench/spans.py's proxy
        # copies it, here and as SleepPropagator's sleep, and it goes with
        # that proxy (ROADMAP item 8)
        self.cost_hint = 0.0
        self.theta = settings.theta
        self.newton_iterations = 0
        self.steps_taken = 0
        self._stats_lock = threading.Lock()

    def advance_many(self, states: Sequence[State], t_ends: Sequence[float]) -> list:
        """Validates every window before any steps, then ``advance`` on each in turn."""
        for s, t in zip(states, t_ends, strict=True):
            _window_steps(s.time, t, self.step)
        return [self.advance(s, t) for s, t in zip(states, t_ends)]

    def _count(self, iters: int, steps: int) -> None:
        with self._stats_lock:
            self.newton_iterations += iters
            self.steps_taken += steps


@functools.lru_cache(maxsize=_STEP_MAP_CACHE_SIZE)
def _pair_template(size: int) -> np.ndarray:
    """Read-only ones of two flat buffers ``[y; 1]`` of ``size + 1`` entries, back to back.

    A sweep's buffers start as a copy of it, 0.4 us cheaper than setting
    the two ones; propagators of one size share it, so none keeps a copy.
    """
    pair = np.ones(2 * (size + 1))
    pair.setflags(write=False)
    return pair


def _linear(product, a, b, a_out, b_out, n: int) -> tuple:
    """``n`` linear steps from the buffer ``a``: the one step loop of a window, a sweep and a stack.

    A buffer holds ``[Y; 1]``, and ``a_out``, ``b_out`` are views of its
    first ``size`` entries. Each step is ``product(x, out=y_out)``, the
    step map times one buffer written into the other, so the two take
    turns. Returns the pair with the buffer of the last step first, as
    ``(a, b, a_out, b_out)``: swapped when ``n`` is odd. The loop tests
    nothing.
    """
    for _ in range(n // 2):
        product(a, out=b_out)
        product(b, out=a_out)
    if n % 2:
        product(a, out=b_out)
        return b, a, b_out, a_out
    return a, b, a_out, b_out


class LinearThetaPropagator(ThetaPropagator):
    """Theta-scheme propagator of a linear problem: each step is its exact affine map.

    A linear problem's rhs is ``A y + b``, so the iteration matrix
    ``I - k*theta*A`` is constant and one theta step is ``Y <- M Y + c``.
    ``step_map`` is that map as the shared read-only augmented matrix
    ``[M | c]`` of ``linear_step_map``, and every step is one product with
    it in ``_linear``'s loop: no rhs call and no separate add. A step
    evaluates no rhs, tests no residual and counts one Newton iteration.

    ``advance`` and ``advance_through`` step one window after another in
    one pair of flat ``size + 1`` buffers, whose last entry is 1.0,
    through ``step_map.dot``, one gemv a step: ``advance`` is the sweep of
    one window, and the sequential solve and the coarse init sweep are one
    sweep each. A window tests its last step's buffer once, with the
    finiteness test of ``size + 1`` entries taken at construction, since
    a NaN or Inf entering a product makes every entry of every later step
    non-finite (``linalg.finite_test``), and copies it out as its state's
    values. A window that fails the test, or whose product raises numpy's
    ``RuntimeWarning`` (warnings as errors) or ``FloatingPointError``
    (``np.seterr``), replays its steps from its start values under
    ``np.errstate(all="ignore")``, testing each. Its first non-finite step
    raises ``TimeStepError`` with that step's ``(t_n, k)``, its clock
    advanced as ``t + k`` once per step, and the windows before it are
    counted; a replay whose every step is finite (an underflow numpy was
    told to raise) keeps its values. ``advance_many`` steps two or more
    windows of one step count as one stack, in the same loop.
    """

    def __init__(self, problem: _problems.Problem, settings: ThetaSettings):
        super().__init__(problem, settings)
        self.step_map = linear_step_map(problem, self.step, self.theta)
        size = self.step_map.shape[0]
        self._pair = _pair_template(size)
        self._finite = finite_test(size + 1)

    def advance(self, state: State, t_end: float) -> State:
        n = _window_steps(state.time, t_end, self.step)
        return self._sweep(state, (n,), (t_end,))[0] if n else state

    def advance_through(self, state: State, t_grid: Sequence[float]) -> list:
        """The states at the times of ``t_grid``, stepped as one sweep; ``Propagator`` states the contract."""
        counts, t = [], state.time
        for t_end in t_grid:
            counts.append(n := _window_steps(t, t_end, self.step))
            if n:
                t = float(t_end)
        return self._sweep(state, counts, t_grid)

    def advance_many(self, states: Sequence[State], t_ends: Sequence[float]) -> list:
        """Two or more windows of one nonzero step count step as one stack; other calls take the base's loop.

        The stack is ``(m, size + 1, 1)`` in a grid that starts on a
        64-byte boundary, stepped through ``np.matmul``, which makes one
        gemv per column, the gemv of one window, so every column has the
        same bits whichever windows share the stack. If the last step is
        finite, the counters grow by the loop's totals, and each window's
        values are its row of the stack. A stack with a non-finite step, or
        whose product raises numpy's warning or error, is handed to the
        base's loop, which raises the first failing window's error.
        """
        counts = [_window_steps(s.time, t, self.step) for s, t in zip(states, t_ends, strict=True)]
        if len(counts) < 2 or len(set(counts)) > 1 or counts[0] == 0:
            return super().advance_many(states, t_ends)
        m, n, size = len(counts), counts[0], self.step_map.shape[0]
        a, b = grid = _aligned_empty((2, m, size + 1, 1))
        grid[:, :, size] = 1.0
        a[:, :size, 0] = [s.values for s in states]
        try:
            a, _, a_out, _ = _linear(functools.partial(np.matmul, self.step_map), a, b, a[:, :size], b[:, :size], n)
            stacked = finite_test(a.size)(a.reshape(-1))
        except (RuntimeWarning, FloatingPointError):
            stacked = False
        if not stacked:
            return super().advance_many(states, t_ends)
        self._count(m * n, m * n)
        return [s.with_values(y, time=t) for s, t, y in zip(states, t_ends, a_out.copy().reshape(m, -1))]

    def _sweep(self, state: State, counts: Sequence[int], t_ends: Sequence[float]) -> list:
        """The loop of ``advance`` over chained windows of ``counts`` steps ending at ``t_ends``, from ``state``.

        Every window steps from the buffer that holds the last step of the
        one before, so the pair is set up once, and the counters grow once,
        by the steps of the windows that succeeded.
        """
        size = self.step_map.shape[0]
        pair = self._pair.copy()
        pair[:size] = state.values
        a, b, a_out, b_out = pair[:size + 1], pair[size + 1:], pair[:size], pair[size + 1:-1]
        product, finite = self.step_map.dot, self._finite
        states, steps = [], 0
        try:
            for n, t_end in zip(counts, t_ends):
                if n:
                    try:
                        a, b, a_out, b_out = _linear(product, a, b, a_out, b_out, n)
                        if not finite(a):
                            raise FloatingPointError("non-finite step")
                    except (RuntimeWarning, FloatingPointError):
                        # numpy's warning or error from a product, or a non-finite last step
                        with np.errstate(all="ignore"):
                            self._replay(a, b, a_out, b_out, state, n)
                    state = state.with_values(a_out.copy(), time=t_end)
                    steps += n
                states.append(state)
        finally:
            self._count(steps, steps)
        return states

    def _replay(self, a, b, a_out, b_out, start: State, n: int) -> None:
        """Steps ``n`` steps from ``start`` into ``a``, testing each; the first non-finite one raises its step error.

        The replay's steps have the loop's bits, so it fails at the first
        non-finite step of the window, or leaves the loop's values in ``a``.
        """
        product, finite, k, t = self.step_map.dot, self._finite, self.step, start.time
        a_out[:] = start.values
        for _ in range(n):
            t += k
            product(a, out=b_out)
            if not finite(b):
                raise TimeStepError(f"implicit step failed at t_n={t!r}, k={k!r}: non-finite values")
            a_out[:] = b_out


class NewtonThetaPropagator(ThetaPropagator):
    """Theta-scheme propagator of a nonlinear problem: each step is one simplified Newton solve.

    A step is ``_step``, one damped ``newton_solve`` call whose every
    direction is a product with one inverse of the iteration matrix
    ``I - k*theta*J``, where ``J`` is the problem's analytic Jacobian.
    The step forms that inverse once, from ``J`` at its start values and
    end time, and keeps it for every Newton iterate and line-search trial
    of the step, so a window is its steps chained one at a time. Every
    step confirms convergence against ``linalg``'s residual tolerance,
    and a singular iteration matrix is a failure of the step like any
    other. Newton returns the last iterate it evaluated the residual at,
    so a step ends holding ``f(y_n, t_n)``, and that vector is the next
    step's ``f(y_{n-1}, t_{n-1})``: a window evaluates the rhs once at its
    start and then only inside Newton, bit-identical to evaluating
    afresh. Steps run on raw arrays, and a window builds one ``State``. A
    step whose start values already solve it returns that array itself,
    so a result may share its values with its input; states are never
    written, so this is safe. ``advance_many`` is the base's loop, which
    has the engine run the fine windows on one thread.
    """

    def advance(self, state: State, t_end: float) -> State:
        n = _window_steps(state.time, t_end, self.step)
        if n == 0:
            return state
        y, t, f, iters = state.values, state.time, None, 0
        for _ in range(n):
            y, f, it = self._step(y, f, t)
            t += self.step
            iters += it
        self._count(iters, n)
        return state.with_values(y, time=t_end)

    def _step(self, y0: np.ndarray, f0, t0: float):
        """One step on raw arrays; returns (y1, f(y1, t0 + k), Newton iterations).

        ``f0`` is ``f(y0, t0)`` when the caller holds it (the previous step's
        returned rhs), else None and evaluated here. The step's inverse is
        formed from the Jacobian at ``(y0, t0 + k)``, the point of Newton's
        first residual.
        """
        problem, k, theta = self.problem, self.step, self.theta
        t1 = t0 + k
        k_impl = k * theta
        y_last = f_last = None

        def rhs1(y):
            # the rhs at t1, kept for the last argument: Newton returns the
            # last iterate it evaluated, so the solution's rhs is at hand
            nonlocal y_last, f_last
            if y is not y_last:
                f_last = _problems.rhs_values(problem, y, t1)
                y_last = y
            return f_last

        def residual(y):
            # a trial iterate may leave the admissible region (e.g. collapse
            # the moving mesh); report it as a non-finite residual so the
            # Newton line search backs off instead of aborting
            try:
                return y - base - k_impl * rhs1(y)
            except _problems.MeshDegenerate:
                return np.full_like(y, np.inf)

        try:
            if f0 is None:
                f0 = _problems.rhs_values(problem, y0, t0)
            base = y0 + (k * (1.0 - theta)) * f0
            inverse = _iteration_inverse(problem.jacobian(y0, t1), k, theta)
            y1, iters = newton_solve(residual, y0, jacobian_inverse=inverse)
            return y1, rhs1(y1), iters
        except (_problems.MeshDegenerate, NumericBreakdown, MaxItersExceeded) as exc:
            raise TimeStepError(f"implicit step failed at t_n={t1!r}, k={k!r}: {exc}") from exc


def make_propagator(problem: _problems.Problem, settings: ThetaSettings) -> ThetaPropagator:
    """Build the theta-scheme propagator of ``problem``'s step kind."""
    return (LinearThetaPropagator if problem.linear else NewtonThetaPropagator)(problem, settings)


@dataclass(frozen=True)
class SleepPropagator:
    """Synthetic propagator with a fixed wall-clock cost per internal step.

    Used to benchmark schedulers in isolation: every internal step sleeps
    ``cost_per_step`` seconds and applies a backward-Euler decay
    ``y <- y / (1 + decay_rate * step)``, so coarse and fine instances
    disagree enough to keep the corrector active while the numerical work
    stays negligible next to the sleeps. Like ``ThetaPropagator``, a window
    takes ``n`` steps of exactly ``step`` and is stamped ``t_end``. The
    three fields follow the number rule of ``state._require_fields``:
    finite real numbers, bools excluded, with ``step`` positive,
    ``cost_per_step`` non-negative and ``1 + decay_rate * step`` positive.
    """

    step: float
    cost_per_step: float
    decay_rate: float = 1.0

    def __post_init__(self):
        _require_fields(self)
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.cost_per_step < 0.0:
            raise ValueError(f"cost_per_step must be non-negative, got {self.cost_per_step!r}")
        # the decay factor 1 / (1 + decay_rate * step) must exist and stay positive
        if 1.0 + self.decay_rate * self.step <= 0.0:
            raise ValueError(f"decay_rate must give 1 + decay_rate * step > 0, got {self.decay_rate!r}")

    # read-only: perfbench/spans.py's proxy copies it, as ThetaPropagator's
    cost_hint = property(lambda self: self.cost_per_step)

    def advance(self, state: State, t_end: float) -> State:
        n = _window_steps(state.time, t_end, self.step)
        if n == 0:
            return state
        if self.cost_per_step > 0.0:
            _time.sleep(n * self.cost_per_step)
        factor = (1.0 + self.decay_rate * self.step) ** (-n)
        return state.with_values(state.values * factor, time=t_end)


def convergence_order(
    problem: _problems.Problem,
    steps: Sequence[float],
    theta0: float = 0.0,
    fixed_theta: float | None = None,
) -> float:
    """Observed order of the theta scheme on ``problem``.

    Integrates to t = 1 for every step size, measures the error against a
    reference, and returns the least-squares slope of log(error) versus
    log(step). The scalar test equation's reference is its analytic
    solution ``y0 * exp(lam)``; every other problem's is one run with
    ``theta0`` at an eighth of the smallest step, on the same mesh. With
    ``fixed_theta`` set, ``theta0`` is chosen per step so the effective
    theta stays constant across the sweep (e.g. ``fixed_theta=1.0``
    checks backward Euler at first order).
    """
    if len(steps) < 3:
        raise ValueError("need at least 3 step sizes to fit an order")
    s0 = _problems.initial_state(problem)
    if isinstance(problem, _problems.Dahlquist):
        ref = np.array([problem.y0 * math.exp(problem.lam)])
    else:
        ref = make_propagator(problem, ThetaSettings(step=min(steps) / 8, theta0=theta0)).advance(s0, 1.0).values
    errors = []
    for k in steps:
        shift = (fixed_theta - 0.5) / k if fixed_theta is not None else theta0
        end = make_propagator(problem, ThetaSettings(step=k, theta0=shift)).advance(s0, 1.0)
        errors.append(max(float(np.linalg.norm(end.values - ref)), 1e-300))
    slope = np.polyfit(np.log(np.asarray(steps, dtype=float)), np.log(np.asarray(errors)), 1)[0]
    return float(slope)
