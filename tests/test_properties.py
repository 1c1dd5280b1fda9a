"""Properties of the task executor over random run shapes.

Each example runs the same Parareal problem at one worker and at ``k``
workers, then once more with a failure injected into one fine task.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pintbench.integrators import ThetaSettings, make_propagator  # noqa: E402
from pintbench.parareal import VARIANTS, PararealConfig, PararealError, run_parareal  # noqa: E402
from pintbench.problems import dahlquist, initial_state  # noqa: E402

WINDOW = 0.25
PROBLEM = dahlquist(lam=-1.0)


def _fine():
    return make_propagator(PROBLEM, ThetaSettings(step=WINDOW / 4))


def _run(L, iterations, workers, variant, fine):
    coarse = make_propagator(PROBLEM, ThetaSettings(step=WINDOW))
    cfg = PararealConfig(intervals=L, max_iters=iterations, tol=1e-30, variant=variant,
                         scheduler="pipelined", workers=workers)
    return run_parareal(coarse, fine, initial_state(PROBLEM), L * WINDOW, cfg)[1]


class _FailOnInput:
    """Fine propagator that raises when it is handed one given boundary state."""

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

    one = _run(L, iterations, 1, variant, _fine())
    many = _run(L, iterations, workers, variant, _fine())
    assert _bytes(many) == _bytes(one)
    assert many.fine_propagations == one.fine_propagations

    # fine task (i, l) advances boundary l of iterate i-1; a converged
    # boundary repeats across iterates, so inject only at an input that no
    # other fine task of the run receives
    last = min(one.iterations_run + 1, iterations)
    inputs = {(i, l): one.iterate_values[i - 1][l].tobytes() for i in range(1, last + 1) for l in range(L)}
    unique = [
        (i, l) for (i, l), b in inputs.items()
        if sum(b == other for (_, m), other in inputs.items() if m == l) == 1
    ]
    assume(unique)
    i, l = data.draw(st.sampled_from(unique), label="failing task")
    failing = _FailOnInput(_fine(), L * WINDOW * l / L, inputs[(i, l)])
    with pytest.raises(PararealError, match=rf"^fine failed at iteration {i}, interval {l}:"):
        _run(L, iterations, workers, variant, failing)
