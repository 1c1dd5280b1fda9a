"""One-step theta-scheme integration and the propagator contract.

The integrator solves, per step of size ``k``,

    y_n - y_{n-1} - k * [theta * f(y_n, t_n) + (1 - theta) * f(y_{n-1}, t_{n-1})] = 0

with a damped Newton iteration whose every direction is a product with
one inverse of the iteration matrix ``I - k * theta * J``, where ``J``
is the problem's analytic Jacobian (simplified Newton). A linear
problem's rhs is ``A y + b`` (``problem.linear``), so ``J = A`` is
constant and the inverse is exact: one read-only operator per (problem,
step size, theta), kept in one bounded module-level cache that every
propagator shares. A nonlinear problem's step forms its own inverse
once, from ``J`` at the step's start values and end time, and keeps it
for every Newton iterate and line-search trial of that step. The matrix
is frozen per step, not per window, so a window is its steps chained
one at a time. Every step evaluates the residual and confirms
convergence, and every failure, a singular iteration matrix too, is
reported as a ``TimeStepError`` naming the step's ``(t_n, k)``.
``theta = 1/2`` is the Crank-Nicolson scheme (second order),
``theta = 1`` backward Euler (first order), and the shifted variant
``theta = 1/2 + theta0 * k`` trades a step-size proportional amount of
damping for retained second-order accuracy.

Newton returns the last iterate it evaluated the residual at, so a step
ends holding ``f(y_n, t_n)``, and that vector is the next step's
``f(y_{n-1}, t_{n-1})``: a window evaluates the rhs once at its start and
then only inside Newton. A linear problem's rhs does not depend on the
time, so the residual at the start values reuses that vector too, since
``f(y_{n-1}, t_n)`` is the same. Both reuse the result of the same call
on the same arguments, so the output is bit-identical to evaluating
afresh. Steps run on raw arrays, and a window builds one ``State``. A
step whose start values already solve it returns that array itself, so
a result may share its values with its input; states are never
written, so this is safe.

A nonlinear problem's step is ``ThetaPropagator._step``, one
``newton_solve`` call. A linear problem's windows step in one of two
loops of the same arithmetic: ``ThetaPropagator._linear`` on one
window's vector (``advance``, and so the sequential solve and every
coarse window) and ``_linear_block`` on an ``(m, size, 1)`` stack of
windows of equal step count (``advance_many``). On a linear problem
Newton's first, full step solves the step up to rounding, so the loops
take that step inline, with ``newton_solve``'s arithmetic in its order,
and keep it when the residual falls from above the tolerance to at most
it, which is where ``newton_solve`` stops. Any other step is redone
column by column by ``_step``, which keeps the line search, the
breakdown checks and the ``TimeStepError``. The loops make only the
numpy calls that arithmetic needs: when ``k*(1-theta)`` and
``k*theta`` are the same float, as at ``theta = 1/2``, the explicit
term is the implicit term ``k*theta * f`` already held, the same
product, so it is not formed again; the vector loop keeps one scalar
clock, and the block allocates its working arrays once per call,
steps with ``out=`` and replays its columns' clocks only for a step
that falls back. A stacked ``matmul`` makes the same BLAS call per
column that ``A @ y`` makes (a plain ``A @ Y.T`` does not: its columns
change with the block width), so the stack returns, for every window,
exactly the array ``advance`` returns, whichever windows share it.
Every other ``advance_many`` call is the loop of ``advance`` over its
windows.

Propagators wrap the stepping loop behind ``advance(state, t_end)`` and
are the unit the parallel-in-time engine composes: a cheap coarse
propagator and an expensive fine one over the same windows. A fine
propagator may also have ``advance_many(states, t_ends)``, and the
engine then hands it each iteration's windows as one call, on the
calling thread alone, since under the interpreter lock a second thread
would only compete with the call. The engine
relies on its contract: the call returns one state per window, each
exactly what ``advance`` returns for that window, and it may raise as a
whole, in which case the engine steps each window through ``advance``
to name the failing one. ``SleepPropagator`` has none. A window of
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
from .linalg import TOL, MaxItersExceeded, NumericBreakdown, newton_solve
from .state import State, _require_fields


class NonDivisibleWindow(ValueError):
    """Requested window is not an integer multiple of the propagator step."""


class TimeStepError(RuntimeError):
    """An implicit step failed; message carries the step's (t_n, k)."""


# window mismatch below this relative threshold is rounding slack, stamped not integrated
_WINDOW_RTOL = 1e-9

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
    Each step's Newton solve stops once the residual norm is at most
    ``linalg.TOL``.
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
    (``parareal.PararealConfig`` says why). It returns, for every window,
    exactly the state ``advance`` returns for it, and it may raise for
    the call as a whole: the engine then does not retry it and steps
    each window through ``advance``, so the first failing window is
    named.
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
    if mismatch > _WINDOW_RTOL * max(abs(window), step):
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
    ``theta`` is the effective implicitness. For a linear problem every
    step uses ``operator``, the shared frozen inverse of ``I - k*theta*J``,
    and its windows step in ``_linear`` and ``_linear_block``. A
    nonlinear problem has no ``operator`` (None): each of its steps forms
    the inverse at its own start in ``_step``.
    ``advance`` and ``advance_many`` are the only paths to a step, so one
    step is ``advance(state, state.time + step)``. The steps of a window
    run on raw arrays and carry the rhs from one step to the next, so the
    window's first rhs is its only one outside the steps' solves.
    Newton iterations and steps are accumulated in ``newton_iterations``
    and ``steps_taken`` for cost diagnostics; these counters change under
    a lock, everything else is fixed at construction.
    """

    def __init__(self, problem: _problems.Problem, settings: ThetaSettings):
        self.problem = problem
        self.step = settings.step
        # not part of the Propagator contract: only perfbench/spans.py's proxy
        # copies it, here and as SleepPropagator's sleep, and it goes with
        # that proxy (ROADMAP item 4)
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
        y, t, iters = state.values, state.time, 0
        if self.operator is not None:
            y, iters = self._linear(y, n, t)
        else:
            f = None
            for _ in range(n):
                y, f, it = self._step(y, f, t)
                t += self.step
                iters += it
        self._count(iters, n)
        return state.with_values(y, time=t_end)

    def advance_many(self, states: Sequence[State], t_ends: Sequence[float]) -> list:
        """``[advance(s, t) for s, t in zip(states, t_ends)]``, bit for bit.

        Every window is validated before any of them steps. Two or more
        windows of a linear problem that all take the same nonzero number
        of steps are stepped as one ``(m, size, 1)`` stack by
        ``_linear_block``, and the counters grow by the loop's totals only
        once every window has succeeded. Any other call is that loop of
        ``advance``, so a window that fails leaves the windows before it
        counted.
        """
        counts = [_window_steps(s, t, self.step) for s, t in zip(states, t_ends, strict=True)]
        if self.operator is None or len(states) < 2 or len(set(counts)) > 1 or counts[0] == 0:
            return [self.advance(s, t) for s, t in zip(states, t_ends)]
        block, iters = self._linear_block([s.values for s in states], counts[0], [s.time for s in states])
        self._count(iters, sum(counts))
        return [s.with_values(y, time=t) for s, t, y in zip(states, t_ends, block[:, :, 0])]

    def _count(self, iters: int, steps: int) -> None:
        with self._stats_lock:
            self.newton_iterations += iters
            self.steps_taken += steps

    def _linear(self, y: np.ndarray, n: int, t: float):
        """``n`` steps of a linear problem from one window's vector ``y`` at time ``t``.

        A step is Newton's first, full step with the frozen inverse,
        ``x = y - operator @ r`` for the residual ``r`` at the start values,
        followed by the rhs and the residual at ``x``: ``newton_solve``'s
        arithmetic in its order. It is taken when the residual norm starts
        above ``TOL`` and ends at or below it, which is where
        ``newton_solve`` returns ``x`` after one iteration. Any other step
        (a start that already solves it, no decrease, a residual still
        above ``TOL``, a non-finite value) is redone by ``_step``, which
        also raises its ``TimeStepError``. The explicit term
        ``k*(1-theta) * f`` is the implicit one ``k*theta * f`` the loop
        already holds when the two weights are the same float, as at
        ``theta = 1/2``, so such a step adds it instead of forming it.
        The clock is one float, advanced as ``t + k`` once per step.
        Returns the final values and the Newton iterations.
        """
        problem, inverse, k = self.problem, self.operator, self.step
        k_expl, k_impl = k * (1.0 - self.theta), k * self.theta
        f = _problems.rhs_values(problem, y, t)
        kf = k_impl * f  # the step's implicit rhs term at its start, the last step's at its end
        iters = 0
        for _ in range(n):
            t_end = t + k
            base = y + kf if k_expl == k_impl else y + k_expl * f
            r = y - base - kf
            x = y - inverse @ r  # newton_solve's x + 1.0 * dx, dx = -(inverse @ r)
            fx = _problems.rhs_values(problem, x, t_end)
            kfx = k_impl * fx
            rx = x - base - kfx
            if math.sqrt(rx @ rx) <= TOL < math.sqrt(r @ r):
                y, f, kf = x, fx, kfx
                iters += 1
            else:
                y, f, it = self._step(y, f, t)
                kf = k_impl * f
                iters += it
            t = t_end
        return y, iters

    def _linear_block(self, values: Sequence[np.ndarray], n: int, starts: Sequence[float]):
        """``_linear`` on ``m`` windows at once, as one ``(m, size, 1)`` stack.

        ``values`` and ``starts`` hold each window's start values and time.
        Each column takes ``_linear``'s step, and a step is taken when it
        passes for every column: ``sqrt(max after²) <= TOL < sqrt(min
        before²)`` over the columns' squared residual norms, which is the
        columnwise test, NaN included. Otherwise every column redoes the
        step by ``_step`` in window order, with its clock replayed as
        ``t + k`` from its start, so ``_step`` sees the times ``advance``
        passes. The rhs is ``A @ Y + b``: the stacked products ``A @ Y``
        and ``R.mT @ R`` make one BLAS call per column, the calls ``A @ y``
        and ``r @ r`` make, so each column is ``_linear``'s step bit for bit
        whichever windows share the stack. The working arrays are
        allocated once per call and a taken step swaps them, so the loop
        writes only its own arrays. Returns the final stack and the Newton
        iterations of all columns.
        """
        inverse, k = self.operator, self.step
        k_expl, k_impl = k * (1.0 - self.theta), k * self.theta
        a, b = self.problem.affine
        b = b[:, None]
        y = np.stack(values)[:, :, None]
        f, kf, x, fx, kfx, base, r = (np.empty_like(y) for _ in range(7))
        before, after = np.empty((2, len(values), 1, 1))
        np.add(np.matmul(a, y, out=f), b, out=f)
        np.multiply(f, k_impl, out=kf)
        clock, at = list(starts), 0  # each column's time at the start of step `at`
        iters = 0
        for j in range(n):
            if k_expl == k_impl:
                np.add(y, kf, out=base)
            else:
                np.add(y, np.multiply(f, k_expl, out=base), out=base)
            np.subtract(np.subtract(y, base, out=r), kf, out=r)
            np.matmul(r.mT, r, out=before)
            np.subtract(y, np.matmul(inverse, r, out=x), out=x)
            np.add(np.matmul(a, x, out=fx), b, out=fx)
            np.multiply(fx, k_impl, out=kfx)
            np.subtract(np.subtract(x, base, out=r), kfx, out=r)
            np.matmul(r.mT, r, out=after)
            if math.sqrt(after.max()) <= TOL < math.sqrt(before.min()):
                y, f, kf, x, fx, kfx = x, fx, kfx, y, f, kf
                iters += len(values)
            else:
                for _ in range(j - at):
                    clock = [t + k for t in clock]
                at = j
                ys, fs, its = zip(*(self._step(y0, f0, t0) for y0, f0, t0 in zip(y[:, :, 0], f[:, :, 0], clock)))
                y[:, :, 0], f[:, :, 0] = ys, fs
                np.multiply(f, k_impl, out=kf)
                iters += sum(its)
        return y, iters

    def _step(self, y0: np.ndarray, f0, t0: float):
        """One implicit step on raw arrays; returns (y1, f(y1, t0 + k), Newton iterations).

        ``f0`` is ``f(y0, t0)`` when the caller holds it (the previous step's
        returned rhs), else None and evaluated here. Every Newton direction
        is a product with one inverse of ``I - k*theta*J``: ``operator`` for
        a linear problem, and for a nonlinear one the inverse formed here,
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
            if problem.linear:
                # f(y0, t1) is f(y0, t0): an affine rhs does not depend on time
                y_last, f_last = y0, f0
                inverse = self.operator
            else:
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
