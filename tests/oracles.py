"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written in the most straightforward
way possible (plain loops, numpy only) and does not reuse any engine
internals beyond the propagator ``advance`` contract, except that
:func:`linear_theta_window` takes a linear problem's closed-form theta
step with the shared ``frozen_inverse`` and :func:`newton_theta_window`
solves each step of a nonlinear one with ``linalg.newton_solve``: they
are the arithmetic a step must reproduce bit for bit.
"""

import heapq

import numpy as np

from pintbench.integrators import frozen_inverse
from pintbench.linalg import MaxItersExceeded, NumericBreakdown, newton_solve
from pintbench.problems import MeshDegenerate


def textbook_parareal(coarse, fine, s0, t_grid, iterations, variant="classic"):
    """Plain triple-loop Parareal over the given boundary grid.

    Returns a list of per-iteration boundary value arrays,
    ``result[i][l]`` being the solution vector at boundary ``l`` after
    iteration ``i`` (iteration 0 is the initial coarse sweep).
    """
    L = len(t_grid) - 1
    X = [[None] * (L + 1) for _ in range(iterations + 1)]
    coarse_state = [[None] * (L + 1) for _ in range(iterations + 1)]

    X[0][0] = s0
    for l in range(L):
        nxt = coarse.advance(X[0][l], t_grid[l + 1])
        X[0][l + 1] = nxt
        coarse_state[0][l + 1] = nxt

    for i in range(1, iterations + 1):
        fine_state = [None] * (L + 1)
        for l in range(L):
            fine_state[l + 1] = fine.advance(X[i - 1][l], t_grid[l + 1])
        X[i][0] = s0
        for l in range(L):
            cn = coarse.advance(X[i][l], t_grid[l + 1])
            f = fine_state[l + 1]
            if variant == "classic":
                theta = 1.0
            else:
                theta = _oracle_weight(f, cn, variant)
            merged = theta * cn.values + f.values - theta * coarse_state[i - 1][l + 1].values
            X[i][l + 1] = f.with_values(merged, time=f.time)
            coarse_state[i][l + 1] = cn

    return [[X[i][l].values.copy() for l in range(L + 1)] for i in range(iterations + 1)]


class PerWindow:
    """A fine propagator's ``step`` and ``advance`` alone, without ``advance_many``.

    The engine runs such a propagator's windows one by one, on as many
    worker threads as the config names.
    """

    def __init__(self, inner):
        self.inner = inner
        self.step = inner.step

    def advance(self, state, t_end):
        return self.inner.advance(state, t_end)


def _oracle_weight(fine_state, coarse_state, variant):
    weights = []
    for name, (off, length) in fine_state.layout.items():
        f = fine_state.values[off:off + length]
        c = coarse_state.values[off:off + length]
        cc = float(np.dot(c, c))
        if cc <= 1e-28:
            weights.append(1.0)
            continue
        if variant == "least_squares":
            weights.append(float(np.dot(f, c)) / cc)
        else:
            ff = float(np.dot(f, f))
            denom = cc * ff
            weights.append(float(np.dot(f, c)) / denom if denom > 1e-56 else 1.0)
    w = sum(weights) / len(weights)
    return min(max(w, 0.0), 1.0)


def fd_jacobian(f, x):
    """Columnwise forward-difference Jacobian of ``f`` at ``x``.

    Column ``j`` uses the increment ``1e-7 * (1 + |x_j|)``.
    """
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x), dtype=np.float64)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (np.asarray(f(xp), dtype=np.float64) - f0) / h
    return jac


def linear_theta_window(problem, k, theta, values, t, n):
    """``n`` theta steps of the linear ``problem`` from ``values`` at time ``t``, in closed form.

    Step ``j`` solves ``(I - k*theta*A) (y1 - y0) = k*f(y0)``, the theta
    step of ``f(y) = A y + b``, as ``y1 = y0 + inverse @ (k*f(y0))`` with
    the frozen inverse of ``I - k*theta*A``. Returns ``(values, steps,
    failure)`` in the shape of :func:`newton_theta_window`, one Newton
    iteration per step: ``failure`` is None, or ``(j, text)`` for the
    first step with a non-finite value, ``text`` naming its end time and
    the step size, with ``values`` and the count of the steps before it.
    """
    inverse = frozen_inverse(problem, k, theta)
    for j in range(n):
        f = problem.rhs(values, t)
        t = t + k
        step = values + inverse @ (k * f)
        if not np.all(np.isfinite(step)):
            return values, j, (j, f"t_n={t!r}, k={k!r}: non-finite values")
        values = step
    return values, n, None


def newton_theta_window(problem, k, theta, values, t, n):
    """``n`` theta steps of the nonlinear ``problem`` from ``values`` at time ``t``, one ``newton_solve`` call each.

    Step ``j`` solves ``y - base - k*theta*f(y, t1) = 0`` with ``base = y0 +
    k*(1-theta)*f(y0, t0)`` from ``np.linalg.inv`` of ``I - k*theta*J`` at
    ``(y0, t1)``, formed here per step. A trial iterate that collapses the
    piston's mesh has an infinite residual. Returns ``(values, Newton
    iterations, failure)``: ``failure`` is None, or ``(j, text)`` for the
    first step that fails, ``text`` naming its end time, the step size and
    the error, with ``values`` and the iterations of the steps before it.
    """
    iterations = 0
    for j in range(n):
        t1 = t + k
        try:
            f = problem.rhs(values, t)
            base = values + (k * (1.0 - theta)) * f

            def residual(y, base=base, t1=t1):
                try:
                    return y - base - (k * theta) * problem.rhs(y, t1)
                except MeshDegenerate:
                    return np.full_like(y, np.inf)

            try:
                inverse = np.linalg.inv(np.eye(values.size) - (k * theta) * problem.jacobian(values, t1))
            except np.linalg.LinAlgError:
                return values, iterations, (j, f"t_n={t1!r}, k={k!r}: singular iteration matrix at k={k!r}")
            values, it = newton_solve(residual, values, jacobian_inverse=inverse)
        except (MeshDegenerate, NumericBreakdown, MaxItersExceeded) as exc:
            return values, iterations, (j, f"t_n={t1!r}, k={k!r}: {exc}")
        iterations += it
        t = t1
    return values, iterations, None


def simulate_makespan(tasks, durations, workers):
    """List-schedule the task graph and return the simulated makespan.

    ``durations`` maps task kind to seconds. Ready tasks are started in
    key order whenever a worker is free, mirroring the runtime's
    priority rule; with ``workers`` at least the width of the graph this
    equals the critical-path length.
    """
    indegree = {t.key: len(t.depends) for t in tasks}
    dependents = {}
    earliest = {t.key: 0.0 for t in tasks}
    task_by_key = {t.key: t for t in tasks}
    for t in tasks:
        for dep in t.depends:
            dependents.setdefault(dep, []).append(t.key)

    ready = [key for key, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    running = []  # (finish_time, key)
    free_at = [0.0] * workers
    heapq.heapify(free_at)
    finish = 0.0

    while ready or running:
        while ready:
            key = heapq.heappop(ready)
            worker_free = heapq.heappop(free_at)
            start = max(worker_free, earliest[key])
            end = start + durations[task_by_key[key].kind]
            heapq.heappush(free_at, end)
            heapq.heappush(running, (end, key))
            finish = max(finish, end)
        end, key = heapq.heappop(running)
        for dep_key in dependents.get(key, ()):
            indegree[dep_key] -= 1
            earliest[dep_key] = max(earliest[dep_key], end)
            if indegree[dep_key] == 0:
                heapq.heappush(ready, dep_key)
    return finish
