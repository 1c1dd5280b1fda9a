"""One-step theta-scheme integration and the propagator contract.

The integrator solves, per step of size ``k``,

    y_n - y_{n-1} - k * [theta * f(y_n, t_n) + (1 - theta) * f(y_{n-1}, t_{n-1})] = 0

``theta = 1/2`` is the Crank-Nicolson scheme (second order),
``theta = 1`` backward Euler (first order), and the shifted variant
``theta = 1/2 + theta0 * k`` trades a step-size proportional amount of
damping for retained second-order accuracy. Every failure of a step is
reported as a ``TimeStepError`` naming the step's ``(t_n, k)``.

A linear problem's rhs is ``A y + b`` (``problem.linear``), so the
iteration matrix ``I - k * theta * A`` is constant: its inverse is one
read-only operator per (problem, step size, theta), kept in one bounded
module-level cache that every propagator shares. With that exact
inverse, Newton's first full step solves the step up to rounding
(Hairer & Wanner II, section IV.8), so a linear step is that step and
nothing more, ``y_n = y_{n-1} - operator.dot(y_{n-1} - base - k*theta *
f(y_{n-1}))`` with ``base = y_{n-1} + k*(1-theta) * f(y_{n-1})``. It
tests no residual; its one failure is a non-finite value, and it counts
one Newton iteration. A linear window steps in one of two loops of that
arithmetic: ``ThetaPropagator._linear`` on one window's vector
(``advance``, and so the sequential solve and every coarse window) and
``_linear_block`` on an ``(m, size, 1)`` stack of windows of equal step
count (``advance_many``). Each evaluates the rhs once per step, at the
step's start values; the rhs does not depend on the time. The vector
loop checks every step's values, ``y.dot(y)`` first and the entrywise scan
only when that sum is not finite, and raises at the first non-finite
step. A non-finite entry stays non-finite in every later step, so the
block checks its final stack once and hands itself back as None when it
is not finite; ``advance_many`` then is the loop of ``advance`` over
its windows, which raises the first failing window's step error. The
loops make only the numpy calls that arithmetic needs: when
``k*(1-theta)`` and ``k*theta`` are the same float, as at ``theta =
1/2``, the explicit term is the implicit term ``k*theta * f`` already
held, the same product, so it is not formed again, and the block
allocates its working arrays once per call and steps with ``out=``. The
vector loop's products are ``linalg.matrix_vector``'s, ``A.dot(y)``
with the bits of ``A @ y``. A stacked ``matmul`` makes the same BLAS
call per column (a plain ``A @ Y.T`` does not: its columns change with
the block width, and on a stack ``dot`` is another product), so the
stack returns, for every window, exactly the array ``advance`` returns,
whichever windows share it. Every other
``advance_many`` call is the loop of ``advance`` over its windows.

A nonlinear problem's step is ``ThetaPropagator._step``, one damped
``newton_solve`` call whose every direction is a product with one
inverse of the iteration matrix ``I - k * theta * J``, where ``J`` is
the problem's analytic Jacobian (simplified Newton). The step forms
that inverse once, from ``J`` at its start values and end time, and
keeps it for every Newton iterate and line-search trial of the step.
The matrix is frozen per step, not per window, so a window is its steps
chained one at a time. Every nonlinear step evaluates the residual and
confirms convergence against ``linalg``'s residual tolerance, and a
singular iteration matrix is a failure of the step like any other.
Newton returns the last
iterate it evaluated the residual at, so a step ends holding ``f(y_n,
t_n)``, and that vector is the next step's ``f(y_{n-1}, t_{n-1})``: a
window evaluates the rhs once at its start and then only inside Newton.
This reuses the result of the same call on the same arguments, so the
output is bit-identical to evaluating afresh. Steps run on raw arrays,
and a window builds one ``State``. A step whose start values already
solve it returns that array itself, so a result may share its values
with its input; states are never written, so this is safe.

Propagators wrap the stepping loop behind ``advance(state, t_end)`` and
are the unit the parallel-in-time engine composes: a cheap coarse
propagator and an expensive fine one over the same windows. A fine
propagator may also have ``advance_many(states, t_ends)``, and the
engine then hands it each iteration's windows as one call, on the
calling thread alone, since under the interpreter lock a second thread
would only compete with the call. The engine
relies on its contract: the call is the loop of ``advance`` over its
windows, bit for bit, so it returns one state per window, each exactly
what ``advance`` returns for that window, or raises what the loop
raises. The exception does not say which window failed, so the engine
then steps each window through ``advance`` to name it.
``SleepPropagator`` has none. A window of
``n`` steps takes ``n`` steps of exactly the propagator's step and is
stamped ``t_end``: rounding slack of at most 1e-9 relative between the
window and ``n`` steps is stamped, not integrated. Propagators are safe
to share across workers: their settings do not change after
construction, and the only state ``advance`` writes is a pair of cost
counters updated under a lock. Each ``advance`` is deterministic, so
identical inputs give bit-identical outputs regardless of scheduling.
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
from .linalg import MaxItersExceeded, NumericBreakdown, matrix_vector, newton_solve
from .state import State, _require_fields


class NonDivisibleWindow(ValueError):
    """Requested window is not an integer multiple of the propagator step."""


class TimeStepError(RuntimeError):
    """An implicit step failed; message carries the step's (t_n, k)."""


# window mismatch below this relative threshold is rounding slack, stamped not integrated
_WINDOW_SLACK = 1e-9

# frozen step operators kept at once: one per (problem, step size, theta),
# and a run uses a few step sizes
_OPERATOR_CACHE_SIZE = 64


@dataclass(frozen=True)
class ThetaSettings:
    """Step size and implicitness shift for theta stepping.

    ``step`` and ``theta0`` follow the number rule of
    ``state._require_fields``: finite real numbers, bools excluded, and
    ``step`` is positive. The effective implicitness is
    ``theta = 1/2 + theta0 * step``, clamped to [1/2, 1]; configurations
    more than 1e-12 outside it are rejected.
    A nonlinear problem's Newton solve stops once the residual norm is
    at most ``linalg``'s residual tolerance; a linear problem's step is
    Newton's first step, with no residual test.
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


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def frozen_inverse(problem: _problems.Problem, k: float, theta: float) -> np.ndarray:
    """Read-only inverse of the iteration matrix ``I - k*theta*J`` of a linear problem.

    One module-level cache, keyed on the problem, the step size and theta,
    serves every propagator, so propagators on the same problem and step
    size share one operator instead of each holding a copy.
    """
    inverse = _iteration_inverse(problem.affine[0], k, theta)
    inverse.setflags(write=False)
    return inverse


class Propagator(Protocol):
    """What the engine needs of a propagator: ``step`` and ``advance``.

    ``step`` is the fixed internal step, and ``advance(state, t_end)``
    takes the window's whole number of steps from ``state`` and returns
    the state stamped ``t_end``. A fine propagator may also have the
    optional ``advance_many(states, t_ends) -> list``, which the engine
    calls on an iteration's windows at once, on the run's one thread
    (``parareal.PararealConfig`` says why). It is the loop of
    ``advance`` over the windows: it returns, for every window, exactly
    the state ``advance`` returns for it, or raises what that loop
    raises. The engine does not retry a call that raised and steps each
    window through ``advance``, so the first failing window is named.
    """

    step: float

    def advance(self, state: State, t_end: float) -> State:
        ...


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


def _window_steps(state: State, t_end: float, step: float) -> int:
    """Steps of ``step`` from ``state`` to ``t_end``: 0 for an empty window, ValueError for a backwards one."""
    window = t_end - state.time
    if window == 0.0:
        return 0
    if window < 0.0:
        raise ValueError(f"cannot advance backwards from {state.time} to {t_end}")
    return _split_window(window, step)


class ThetaPropagator:
    """Theta-scheme propagator for one problem at a fixed step size.

    ``advance`` takes the ``n`` steps of exactly ``step`` that the window
    holds and stamps the result ``t_end``; the rounding slack between the
    window and ``n * step`` (at most 1e-9 relative) is not integrated.
    ``theta`` is the effective implicitness. A linear problem's windows
    step in ``_linear`` and ``_linear_block``, each step one product with
    ``operator``, the shared frozen inverse of ``I - k*theta*A``, and a
    non-finite step raises. A nonlinear problem has no ``operator``
    (None): each of its steps is one ``newton_solve`` in ``_step``, with
    the inverse formed at the step's own start.
    ``advance`` and ``advance_many`` are the only paths to a step, so one
    step is ``advance(state, state.time + step)``. The steps of a window
    run on raw arrays; a nonlinear window carries the rhs from one step
    to the next, so its first rhs is its only one outside the steps'
    solves. Newton iterations (one per linear step) and steps are
    accumulated in ``newton_iterations`` and ``steps_taken`` for cost
    diagnostics; these counters change under a lock, everything else is
    fixed at construction.
    """

    def __init__(self, problem: _problems.Problem, settings: ThetaSettings):
        self.problem = problem
        self.step = settings.step
        # not part of the Propagator contract: only perfbench/spans.py's proxy
        # copies it, here and as SleepPropagator's sleep, and it goes with
        # that proxy (ROADMAP item 5)
        self.cost_hint = 0.0
        self.theta = settings.theta
        self.operator = frozen_inverse(problem, self.step, self.theta) if problem.linear else None
        self.newton_iterations = 0
        self.steps_taken = 0
        self._stats_lock = threading.Lock()

    def advance(self, state: State, t_end: float) -> State:
        n = _window_steps(state, t_end, self.step)
        if n == 0:
            return state
        if self.operator is not None:
            y, iters = self._linear(state.values, n, state.time), n
        else:
            y, t, f, iters = state.values, state.time, None, 0
            for _ in range(n):
                y, f, it = self._step(y, f, t)
                t += self.step
                iters += it
        self._count(iters, n)
        return state.with_values(y, time=t_end)

    def advance_many(self, states: Sequence[State], t_ends: Sequence[float]) -> list:
        """``[advance(s, t) for s, t in zip(states, t_ends)]``, bit for bit, failures included.

        Every window is validated before any of them steps. Two or more
        windows of a linear problem that all take the same nonzero number
        of steps are first stepped as one ``(m, size, 1)`` stack by
        ``_linear_block``. If its final stack is finite, the counters grow
        by the loop's totals. Otherwise, and for any other call, the
        result is that loop of ``advance``, so a window that fails raises
        its own step error and leaves the windows before it counted.
        """
        counts = [_window_steps(s, t, self.step) for s, t in zip(states, t_ends, strict=True)]
        stacked = self.operator is not None and len(states) > 1 and len(set(counts)) == 1 and counts[0] > 0
        block = self._linear_block([s.values for s in states], counts[0]) if stacked else None
        if block is None:
            return [self.advance(s, t) for s, t in zip(states, t_ends)]
        steps = sum(counts)
        self._count(steps, steps)
        return [s.with_values(y, time=t) for s, t, y in zip(states, t_ends, block[:, :, 0])]

    def _count(self, iters: int, steps: int) -> None:
        with self._stats_lock:
            self.newton_iterations += iters
            self.steps_taken += steps

    def _linear(self, y: np.ndarray, n: int, t: float) -> np.ndarray:
        """``n`` steps of a linear problem from one window's vector ``y`` at time ``t``.

        A step is Newton's first, full step with the frozen inverse,
        ``y - operator.dot(r)`` for the residual ``r`` at the start values,
        with the rhs evaluated there. Its values are checked for
        non-finite entries, ``y.dot(y)`` first and the entrywise scan only
        when that sum is not finite, and the first non-finite step raises
        ``TimeStepError`` with its ``(t_n, k)``. The explicit term
        ``k*(1-theta) * f`` is the implicit one ``k*theta * f`` the loop
        already holds when the two weights are the same float, as at
        ``theta = 1/2``, so such a step adds it instead of forming it.
        The clock is one float, advanced as ``t + k`` once per step.
        Returns the final values.
        """
        problem, apply, k = self.problem, matrix_vector(self.operator), self.step
        k_expl, k_impl = k * (1.0 - self.theta), k * self.theta
        for _ in range(n):
            f = _problems.rhs_values(problem, y, t)
            t += k
            kf = k_impl * f
            base = y + kf if k_expl == k_impl else y + k_expl * f
            y = y - apply(y - base - kf)  # newton_solve's x + 1.0 * dx, dx = -(inverse @ r)
            if not math.isfinite(y.dot(y)) and not np.all(np.isfinite(y)):
                raise TimeStepError(f"implicit step failed at t_n={t!r}, k={k!r}: non-finite values")
        return y

    def _linear_block(self, values: Sequence[np.ndarray], n: int):
        """``_linear`` on ``m`` windows at once, as one ``(m, size, 1)`` stack, or None.

        ``values`` holds each window's start values. Each column takes
        ``_linear``'s step. The rhs is ``A Y + b``: the stacked product
        ``np.matmul(A, Y)`` makes one BLAS call per column, the call
        ``_linear``'s ``A.dot(y)`` makes, so each column is ``_linear``'s
        step bit for bit whichever windows share the stack. The stack is checked once, at the end: a
        non-finite entry stays non-finite in every later step, so a stack
        with none had none at any step. A stack with one is handed back as
        None, and ``advance_many`` steps each window through ``advance``,
        which names the failing step. The working arrays are allocated
        once per call, and the loop writes only its own arrays. Returns
        the final stack.
        """
        inverse, k = self.operator, self.step
        k_expl, k_impl = k * (1.0 - self.theta), k * self.theta
        a, b = self.problem.affine
        b = b[:, None]
        y = np.stack(values)[:, :, None]
        f, kf, r = (np.empty_like(y) for _ in range(3))
        for _ in range(n):
            np.add(np.matmul(a, y, out=f), b, out=f)
            np.multiply(f, k_impl, out=kf)
            if k_expl == k_impl:
                np.add(y, kf, out=r)
            else:
                np.add(y, np.multiply(f, k_expl, out=r), out=r)
            np.subtract(np.subtract(y, r, out=r), kf, out=r)  # r holds base, then the residual
            np.subtract(y, np.matmul(inverse, r, out=f), out=y)
        flat = y.reshape(-1)
        if not math.isfinite(flat.dot(flat)) and not np.all(np.isfinite(flat)):
            return None
        return y

    def _step(self, y0: np.ndarray, f0, t0: float):
        """One implicit step of a nonlinear problem on raw arrays; returns (y1, f(y1, t0 + k), Newton iterations).

        ``f0`` is ``f(y0, t0)`` when the caller holds it (the previous step's
        returned rhs), else None and evaluated here. Every Newton direction
        is a product with one inverse of ``I - k*theta*J``, formed here,
        once, from the analytic Jacobian at ``(y0, t0 + k)``, the point of
        Newton's first residual. A singular matrix is a ``TimeStepError``
        like any other failure of the step.
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
    """Build the theta-scheme propagator for ``problem``."""
    return ThetaPropagator(problem, settings)


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
        n = _window_steps(state, t_end, self.step)
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
