"""One-step theta-scheme integration and the propagator contract.

The integrator solves, per step of size ``k``,

    y_n - y_{n-1} - k * [theta * f(y_n, t_n) + (1 - theta) * f(y_{n-1}, t_{n-1})] = 0

with a damped Newton iteration on the iteration matrix
``I - k * theta * J``, where ``J`` is the problem's analytic Jacobian.
For a nonlinear problem that matrix is formed afresh at every Newton
iterate. For a linear problem ``J`` is constant, so the step uses a
frozen inverse of the matrix (simplified Newton, exact here): one
read-only operator per (problem, step size actually taken, theta), kept
in one bounded module-level cache that every propagator and step
shares. Newton still evaluates the residual and confirms convergence on
every step, and every failure is reported as a ``TimeStepError`` naming
the step's ``(t_n, k)``. ``theta = 1/2`` is the Crank-Nicolson scheme
(second order), ``theta = 1`` backward Euler (first order), and the
shifted variant ``theta = 1/2 + theta0 * k`` trades a step-size
proportional amount of damping for retained second-order accuracy.

Newton returns the last iterate it evaluated the residual at, so a step
ends holding ``f(y_n, t_n)``, and that vector is the next step's
``f(y_{n-1}, t_{n-1})``: a window evaluates the rhs once at its start and
then only inside Newton. For an autonomous problem (``problem.autonomous``)
the residual at the start values reuses that vector too, since
``f(y_{n-1}, t_n)`` is the same. Both reuse the result of the same call
on the same arguments, so the output is bit-identical to evaluating
afresh. ``advance`` steps raw arrays and builds one ``State`` per window.
A step whose start values already solve it returns that array itself,
so a result may share its values with its input; states are never
written, so this is safe.

Propagators wrap the stepping loop behind ``advance(state, t_end)`` and
are the unit the parallel-in-time engine composes: a cheap coarse
propagator and an expensive fine one over the same windows. Propagators
are safe to share across workers: their settings do not change after
construction, and the only state ``advance`` writes is a pair of cost
counters updated under a lock. Each ``advance`` is deterministic, so
identical inputs give bit-identical outputs regardless of scheduling.
"""

from __future__ import annotations

import functools
import math
import threading
import time as _time
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import numpy as np

from . import problems as _problems
from .linalg import MaxItersExceeded, NewtonSettings, NumericBreakdown, newton_solve
from .state import State


class NonDivisibleWindow(ValueError):
    """Requested window is not an integer multiple of the propagator step."""


class TimeStepError(RuntimeError):
    """An implicit step failed; message carries the step's (t_n, k)."""


# mismatch below this relative threshold is absorbed into the last step
_WINDOW_RTOL = 1e-9

# frozen step operators kept at once: a few step sizes per run, plus the
# shortened last steps of the windows
_OPERATOR_CACHE_SIZE = 64


@dataclass(frozen=True)
class ThetaSettings:
    """Step size, implicitness shift, and Newton settings for theta stepping.

    The effective implicitness is ``theta = 1/2 + theta0 * step`` and must
    lie in [1/2, 1]; configurations outside that range are rejected.
    """

    step: float
    theta0: float = 0.0
    newton: NewtonSettings = field(default_factory=NewtonSettings)

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        theta = self.theta
        if not 0.5 - 1e-12 <= theta <= 1.0 + 1e-12:
            raise ValueError(f"effective theta {theta} outside [1/2, 1]; adjust theta0")

    @property
    def theta(self) -> float:
        return 0.5 + self.theta0 * self.step


@functools.lru_cache(maxsize=_OPERATOR_CACHE_SIZE)
def frozen_inverse(problem: _problems.Problem, k: float, theta: float) -> np.ndarray:
    """Read-only inverse of the iteration matrix ``I - k*theta*J`` of a linear problem.

    One module-level cache, keyed on the problem, the step size actually
    taken and theta, serves every propagator and step, so propagators on
    the same problem and step share one operator instead of each holding
    a copy.
    """
    jac = problem.jacobian(problem.initial_values(), 0.0)
    try:
        inverse = np.linalg.inv(np.eye(jac.shape[0]) - (k * theta) * jac)
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdown(f"singular iteration matrix at k={k!r}") from exc
    inverse.setflags(write=False)
    return inverse


def _effective_theta(settings: ThetaSettings) -> float:
    return min(max(settings.theta, 0.5), 1.0)


def _step_values(problem: _problems.Problem, y0: np.ndarray, f0, t0: float, k: float, theta: float,
                 newton: NewtonSettings, inverse=None):
    """One implicit step on raw arrays; returns (y1, f(y1, t0 + k), Newton iterations).

    ``f0`` is ``f(y0, t0)`` when the caller holds it (the previous step's
    returned rhs), else None and evaluated here. A linear problem's
    Newton direction is a product with the shared frozen inverse of
    ``I - k*theta*J`` (``inverse`` when the caller holds it for this step
    size, else looked up in the cache); a nonlinear problem forms that
    matrix afresh from its analytic Jacobian at every Newton iterate.
    """
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

    def iteration_matrix(y):
        return np.eye(y.size) - k_impl * problem.jacobian(y, t1)

    try:
        if f0 is None:
            f0 = _problems.rhs_values(problem, y0, t0)
        base = y0 + (k * (1.0 - theta)) * f0
        if problem.autonomous:
            # f(y0, t1) is f(y0, t0) when the rhs does not depend on time
            y_last, f_last = y0, f0
        if problem.linear:
            if inverse is None:
                inverse = frozen_inverse(problem, k, theta)
            y1, iters = newton_solve(residual, y0, newton, jacobian_inverse=inverse)
        else:
            y1, iters = newton_solve(residual, y0, newton, jacobian=iteration_matrix)
        return y1, rhs1(y1), iters
    except (_problems.MeshDegenerate, NumericBreakdown, MaxItersExceeded) as exc:
        raise TimeStepError(f"implicit step failed at t_n={t1!r}, k={k!r}: {exc}") from exc


def _theta_step(problem: _problems.Problem, state: State, settings: ThetaSettings, inverse=None):
    """One implicit step of a state; returns (new state, Newton iterations used)."""
    values, _, iters = _step_values(problem, state.values, None, state.time, settings.step,
                                    _effective_theta(settings), settings.newton, inverse)
    return state.with_values(values, time=state.time + settings.step), iters


def theta_step(problem: _problems.Problem, s: State, settings: ThetaSettings) -> State:
    """Advance ``s`` by exactly one step of ``settings.step`` seconds."""
    new, _ = _theta_step(problem, s, settings)
    return new


class Propagator(Protocol):
    """Advances a state over a time window with a fixed internal step."""

    step: float
    cost_hint: float

    def advance(self, state: State, t_end: float) -> State:
        ...


def _split_window(window: float, step: float) -> int:
    """Number of internal steps for ``window``, validating divisibility."""
    if not math.isfinite(window):
        raise ValueError(f"window {window!r} is not finite")
    n = max(int(round(window / step)), 1)
    mismatch = abs(window - n * step)
    if mismatch > _WINDOW_RTOL * max(abs(window), step):
        raise NonDivisibleWindow(
            f"window {window!r} is not an integer multiple of step {step!r} (mismatch {mismatch:.3e})"
        )
    return n


class ThetaPropagator:
    """Theta-scheme propagator for one problem at a fixed step size.

    ``advance`` composes as many steps as the window requires; rounding
    slack (below 1e-9 relative) is absorbed into the last step so the
    final time lands on ``t_end`` exactly. ``theta`` is the effective
    implicitness at the nominal step. For a linear problem ``operator``
    is the shared frozen inverse of ``I - k*theta*J`` at the nominal step
    (None for a nonlinear problem); a shortened last step takes its own
    theta and the cached operator for its own size. The steps of a window
    run on raw arrays and carry the rhs from one step to the next, so the
    window's first rhs is its only one outside Newton. Newton iterations
    and steps are accumulated in ``newton_iterations`` and
    ``steps_taken`` for cost diagnostics; these counters change under a
    lock, everything else is fixed at construction.
    """

    def __init__(self, problem: _problems.Problem, settings: ThetaSettings, cost_hint: float = 0.0):
        self.problem = problem
        self.settings = settings
        self.step = settings.step
        self.cost_hint = cost_hint
        self.theta = _effective_theta(settings)
        self.operator = frozen_inverse(problem, self.step, self.theta) if problem.linear else None
        self.newton_iterations = 0
        self.steps_taken = 0
        self._stats_lock = threading.Lock()

    def advance(self, state: State, t_end: float) -> State:
        window = t_end - state.time
        if window == 0.0:
            return state
        if window < 0.0:
            raise ValueError(f"cannot advance backwards from {state.time} to {t_end}")
        n = _split_window(window, self.step)

        problem, k, newton = self.problem, self.step, self.settings.newton
        y, f, t = state.values, None, state.time
        iters = 0
        for _ in range(n - 1):
            y, f, it = _step_values(problem, y, f, t, k, self.theta, newton, self.operator)
            t += k
            iters += it
        last = t_end - t
        if last == k:
            y, _, it = _step_values(problem, y, f, t, k, self.theta, newton, self.operator)
        else:
            # the shortened step has its own theta and operator, keyed on its actual size
            theta = _effective_theta(replace(self.settings, step=last))
            y, _, it = _step_values(problem, y, f, t, last, theta, newton)
        iters += it
        with self._stats_lock:
            self.newton_iterations += iters
            self.steps_taken += n
        return state.with_values(y, time=t_end)


def make_propagator(
    problem: _problems.Problem, settings: ThetaSettings, cost_hint: float = 0.0
) -> ThetaPropagator:
    """Build the theta-scheme propagator for ``problem``."""
    return ThetaPropagator(problem, settings, cost_hint=cost_hint)


class SleepPropagator:
    """Synthetic propagator with a fixed wall-clock cost per internal step.

    Used to benchmark schedulers in isolation: every internal step sleeps
    ``cost_per_step`` seconds and applies a backward-Euler decay
    ``y <- y / (1 + decay_rate * dt)``, so coarse and fine instances
    disagree enough to keep the corrector active while the numerical work
    stays negligible next to the sleeps.
    """

    def __init__(self, step: float, cost_per_step: float, decay_rate: float = 1.0):
        # written so that NaN fails both checks
        if not step > 0.0:
            raise ValueError("step must be positive")
        if not 0.0 <= cost_per_step < math.inf:
            raise ValueError("cost_per_step must be finite and non-negative")
        self.step = step
        self.cost_hint = cost_per_step
        self.decay_rate = decay_rate

    def advance(self, state: State, t_end: float) -> State:
        window = t_end - state.time
        if window == 0.0:
            return state
        if window < 0.0:
            raise ValueError(f"cannot advance backwards from {state.time} to {t_end}")
        n = _split_window(window, self.step)
        if self.cost_hint > 0.0:
            _time.sleep(n * self.cost_hint)
        dt = window / n
        factor = (1.0 + self.decay_rate * dt) ** (-n)
        return state.with_values(state.values * factor, time=t_end)


def convergence_order(
    problem: _problems.Problem,
    steps: Sequence[float],
    theta0: float = 0.0,
    fixed_theta: float | None = None,
    t_final: float = 1.0,
    newton: NewtonSettings | None = None,
    fine_factor: int = 8,
) -> float:
    """Observed order of the theta scheme on ``problem``.

    Integrates to ``t_final`` for every step size, measures the error
    against the reference solution, and returns the least-squares slope
    of log(error) versus log(step). With ``fixed_theta`` set, ``theta0``
    is chosen per step so the effective theta stays constant across the
    sweep (e.g. ``fixed_theta=1.0`` checks backward Euler at first order).
    """
    if len(steps) < 3:
        raise ValueError("need at least 3 step sizes to fit an order")
    newton_cfg = newton if newton is not None else NewtonSettings()
    ref = _problems.reference_solution(
        problem, t_final, fine_factor=fine_factor, base_step=min(steps), theta0=theta0
    )
    errors = []
    for k in steps:
        shift = (fixed_theta - 0.5) / k if fixed_theta is not None else theta0
        settings = ThetaSettings(step=k, theta0=shift, newton=newton_cfg)
        end = make_propagator(problem, settings).advance(_problems.initial_state(problem), t_final)
        errors.append(max(float(np.linalg.norm(end.values - ref.values)), 1e-300))
    slope = np.polyfit(np.log(np.asarray(steps, dtype=float)), np.log(np.asarray(errors)), 1)[0]
    return float(slope)
