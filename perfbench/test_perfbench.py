"""Tests of the benchmark's own helpers: the schedule model and the tracer."""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from listsched import critical_path, list_schedule  # noqa: E402
from pintbench.parareal import pipelined_schedule  # noqa: E402
from spans import Tracer, TracedPropagator, check_trace_events, patched, write_trace_events  # noqa: E402

DURATIONS = [
    {"coarse_init": 1.0, "fine": 50.0, "correct": 1.0},
    {"coarse_init": 1.0, "fine": 1.0, "correct": 1.0},
    {"coarse_init": 5.0, "fine": 1.0, "correct": 7.0},
]


@pytest.mark.parametrize("intervals,iterations", [(2, 1), (4, 2), (20, 3)])
@pytest.mark.parametrize("durations", DURATIONS)
def test_model_is_critical_path_with_a_worker_per_task(intervals, iterations, durations):
    tasks = pipelined_schedule(intervals, iterations)
    finish = list_schedule(tasks, durations, workers=len(tasks))
    assert max(finish.values()) == pytest.approx(critical_path(tasks, durations))


@pytest.mark.parametrize("durations", DURATIONS)
def test_model_with_one_worker_is_the_serial_sum(durations):
    tasks = pipelined_schedule(5, 3)
    finish = list_schedule(tasks, durations, workers=1)
    assert max(finish.values()) == pytest.approx(sum(durations[t.kind] for t in tasks))


def test_model_by_hand_one_worker_per_window_misses_the_critical_path():
    d = {"coarse_init": 1.0, "fine": 50.0, "correct": 1.0}
    tasks = pipelined_schedule(2, 1)
    # fine(0) needs nothing and runs 0-50 beside the coarse sweep 0-1, 1-2;
    # fine(1) waits for a free worker until 2 and ends at 52, so the
    # correctors end at 51 and 53. With a third worker fine(1) starts at 1.
    finish = list_schedule(tasks, d, workers=2)
    assert finish[(1, 1, 0)] == 51.0
    assert finish[(1, 1, 1)] == 53.0
    assert critical_path(tasks, d) == 52.0
    assert max(list_schedule(tasks, d, workers=3).values()) == 52.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def costs(self, seconds, then=()):
        def fn():
            self.now += seconds
            for call in then:
                call()
        return fn


def test_inner_calls_aggregate_by_path_and_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer("run", clock=clock)
    rhs = tracer.inner("rhs_values", clock.costs(2.0))
    solve = tracer.inner("solve", clock.costs(1.0))
    newton = tracer.inner("newton_solve", clock.costs(0.5, then=(rhs, solve, rhs)))
    with tracer.span("fine.advance") as span:
        clock.now += 0.25
        rhs()
        newton()
    assert span.seconds == 7.75
    assert span.inner_count("rhs_values") == 1
    assert span.inner_count("newton_solve/rhs_values") == 2
    assert span.inner_seconds("newton_solve/rhs_values") == 4.0
    assert span.inner_seconds("newton_solve") == 5.5
    assert span.self_seconds("newton_solve") == 0.5
    assert span.self_seconds("newton_solve", children=("rhs_values",)) == 1.5
    assert span.self_seconds("rhs_values") == 2.0
    assert span.inner_count("newton_solve/rhs_values/solve") == 0


def test_spans_on_worker_threads_hang_off_the_root():
    tracer = Tracer("run")
    weight = tracer.inner("theta_weight", lambda: None)

    def worker():
        with tracer.span("fine.advance"):
            pass
        weight()

    with tracer.span("run_parareal") as root:
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    children = [s for s in tracer.spans if s is not root]
    assert sorted(s.name for s in children) == ["fine.advance", "theta_weight"]
    assert all(s.parent_id == root.span_id for s in children)
    assert tracer.root is None


def test_errors_are_counted_and_patches_restored():
    module = types.SimpleNamespace(step=lambda: 1 / 0)
    original = module.step
    tracer = Tracer("run")
    with pytest.raises(ZeroDivisionError):
        with patched(tracer, [(module, "step", "step")]):
            with tracer.span("fine.advance") as span:
                module.step()
    assert module.step is original
    assert span.errors == {"ZeroDivisionError": 1}


def test_trace_file_is_trace_event_format(tmp_path):
    tracer = Tracer("run-7")
    inner = types.SimpleNamespace(step=0.1, cost_hint=0.0,
                                  advance=lambda state, t_end: state)
    prop = TracedPropagator(inner, "coarse", tracer)
    state = types.SimpleNamespace(time=0.0)
    with tracer.span("run_parareal"):
        assert prop.advance(state, 0.1) is state
    path = tmp_path / "trace.json"
    count = write_trace_events(tracer, path, {"workload": "test"})
    assert check_trace_events(path) == count
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"run_parareal", "coarse.advance"}
    assert all(e["args"]["run_id"] == "run-7" for e in spans)
