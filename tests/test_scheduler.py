import signal
import sys
import threading
import time

import numpy as np
import pytest

from pintbench import parareal
from pintbench.integrators import SleepPropagator, ThetaSettings, make_propagator
from pintbench.parareal import (
    PararealConfig,
    PararealError,
    Task,
    _execute,
    pipelined_schedule,
    run_parareal,
)
from pintbench.problems import SineMode, heat1d, initial_state
from pintbench.state import State

from oracles import simulate_makespan


class TestSchedulePlan:
    def test_task_counts(self):
        # iteration i has a fine task and a corrector for windows i-1..L-1 only
        tasks = pipelined_schedule(5, 3)
        assert len(tasks) == 5 + 2 * (5 + 4 + 3)
        assert sum(1 for t in tasks if t.kind == "coarse_init") == 5
        assert sum(1 for t in tasks if t.kind == "fine") == 12
        assert sum(1 for t in tasks if t.kind == "correct") == 12
        tasks = pipelined_schedule(20, 4)
        assert sum(1 for t in tasks if t.kind == "fine") == sum(1 for t in tasks if t.kind == "correct") == 74

    def test_no_task_beyond_intervals_iterations(self):
        # after L iterations every boundary is final
        for L in range(1, 7):
            assert pipelined_schedule(L, L + 2) == pipelined_schedule(L, L)

    def test_keys_unique_and_deps_resolvable(self):
        # every shape the executor property test draws
        for L in range(1, 7):
            for iterations in range(5):
                tasks = pipelined_schedule(L, iterations)
                keys = {t.key for t in tasks}
                assert len(keys) == len(tasks)
                for t in tasks:
                    for dep in t.depends:
                        assert dep in keys
                        assert dep < t.key  # key order is a topological order

    def test_cross_iteration_pipelining_dependency(self):
        # the fine task of iteration i for interval l waits only for the
        # corrector that published boundary l in iteration i-1
        tasks = {t.key: t for t in pipelined_schedule(4, 2)}
        fine = tasks[(2, 0, 3)]
        assert fine.kind == "fine"
        assert fine.depends == ((1, 1, 2),)
        assert tasks[(1, 0, 0)].depends == ()
        # boundary 1 is final after iteration 1: iteration 2 starts at window 1, whose
        # corrector has no predecessor in the sweep
        assert (2, 0, 0) not in tasks and (2, 1, 0) not in tasks
        assert tasks[(2, 0, 1)].depends == ((1, 1, 0),)
        assert tasks[(2, 1, 1)].depends == ((2, 0, 1), (1, 1, 1))
        assert tasks[(2, 1, 2)].depends == ((2, 0, 2), (1, 1, 2), (2, 1, 1))

    def test_last_corrector_depends_on_every_task_up_to_its_iteration(self):
        # _execute stops starting tasks once this corrector converges, which is the
        # serial order's stop only if every task left belongs to a later iteration
        for L in range(1, 7):
            for iterations in range(5):
                tasks = {t.key: t for t in pipelined_schedule(L, iterations)}
                for i in range(1, min(iterations, L) + 1):  # no corrector beyond L
                    last = (i, 1, L - 1)
                    ancestors, stack = set(), list(tasks[last].depends)
                    while stack:
                        key = stack.pop()
                        if key not in ancestors:
                            ancestors.add(key)
                            stack.extend(tasks[key].depends)
                    assert ancestors == {key for key in tasks if key[0] <= i} - {last}, (L, iterations, i)

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
    def test_runs_of_one_shape_check_the_graph_once(self, threaded, monkeypatch):
        # run_parareal reuses its shape's checked plan; _execute checks every graph it is given
        checks = []
        check = parareal._check_graph

        def counted(tasks):
            checks.append(len(tasks))
            return check(tasks)

        monkeypatch.setattr(parareal, "_check_graph", counted)
        parareal._pipelined_plan.cache_clear()
        if threaded:
            C, F = SleepPropagator(0.25, 0.0), SleepPropagator(0.05, 0.0)
            s0, cfg = State(np.ones(1), 0.0, {"y": (0, 1)}), PararealConfig(intervals=4, max_iters=2, workers=2)
        else:
            problem = heat1d(mesh_n=7)
            C, F = (make_propagator(problem, ThetaSettings(step=k)) for k in (0.25, 0.05))
            s0, cfg = initial_state(problem), PararealConfig(intervals=4, max_iters=2)
        runs = [run_parareal(C, F, s0, 1.0, cfg) for _ in range(2)]
        assert checks == [len(pipelined_schedule(4, 2))]
        assert runs[0][1].workers == (2 if threaded else 1)
        assert [s.values.tobytes() for s in runs[0][0]] == [s.values.tobytes() for s in runs[1][0]]
        for _ in range(2):
            _execute(pipelined_schedule(4, 2), lambda task: None, workers=1)
        assert len(checks) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            pipelined_schedule(0, 1)
        with pytest.raises(ValueError):
            pipelined_schedule(3, -1)


class _RecordingPropagator:
    """Logs every advance; coarse and fine decay at different rates, so a run takes every iteration."""

    def __init__(self, step, label, log):
        self.step = step
        self.label = label
        self.log = log

    def advance(self, state, t_end):
        self.log.append((self.label, round(state.time, 10), round(t_end, 10)))
        return state.with_values(state.values / (1.0 + self.step), time=t_end)


class _Recorder:
    """Wraps a propagator without ``advance_many`` and records the width and the thread of every call."""

    def __init__(self, inner, fail_at=None):
        self.inner = inner
        self.step = inner.step
        self.fail_at = fail_at  # the start time of a window that fails
        self.widths = []
        self.threads = []  # (thread ident, live thread count) per call
        self.lock = threading.Lock()

    def _record(self, states):
        with self.lock:
            self.widths.append(len(states))
            self.threads.append((threading.get_ident(), threading.active_count()))
        if any(s.time == self.fail_at for s in states):
            raise RuntimeError("injected failure")

    def advance(self, state, t_end):
        self._record([state])
        return self.inner.advance(state, t_end)


class _BlockRecorder(_Recorder):
    def advance_many(self, states, t_ends):
        self._record(states)
        return self.inner.advance_many(states, t_ends)


class TestSchedulerEquivalence:
    def test_single_worker_matches_serial_event_order(self):
        log = []
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30, workers=1)
        run_parareal(_RecordingPropagator(0.5, "C", log), _RecordingPropagator(0.1, "F", log), s0, 2.0, cfg)
        # the serial order is ascending key order; coarse_init and correct
        # tasks advance C over their window, fine tasks F, except that each
        # iteration's first corrector reuses the previous iteration's C value
        grid = [0.5 * l for l in range(5)]
        expected = [("F" if t.kind == "fine" else "C", grid[t.interval], grid[t.interval + 1])
                    for t in sorted(pipelined_schedule(4, 2), key=lambda t: t.key)
                    if not (t.kind == "correct" and t.interval == t.iteration - 1)]
        assert log == expected

    def test_single_worker_runs_key_order_whatever_the_task_order(self):
        # pipelined_schedule lists its tasks in key order; the executor must not rely on that
        tasks = pipelined_schedule(4, 3)
        ran = []
        _execute(tasks[::-1], lambda task: ran.append(task.key), workers=1)
        assert ran == sorted(t.key for t in tasks)

    def test_fine_propagation_count_matches_serial(self):
        problem = heat1d(mesh_n=7, nu=0.1)
        C = make_propagator(problem, ThetaSettings(step=0.25))
        F = make_propagator(problem, ThetaSettings(step=0.05))
        s0 = initial_state(problem)
        counts = {}
        for workers in (1, 4):
            cfg = PararealConfig(intervals=4, max_iters=3, tol=1e-30, workers=workers)
            _, trace = run_parareal(C, F, s0, 2.0, cfg)
            counts[workers] = trace.fine_propagations
        assert counts[1] == counts[4] == 4 + 3 + 2  # iteration i steps windows i-1..3

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_propagator_advances_a_start_twice(self, workers):
        # coarse and fine decay at different rates, so every boundary that is not
        # yet final differs from its value in the iterate before; a task that
        # stepped a final boundary again would repeat an earlier start
        starts = []

        class Starts(_RecordingPropagator):
            def advance(self, state, t_end):
                starts.append((self.label, state.time, state.values.tobytes()))
                return super().advance(state, t_end)

        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        cfg = PararealConfig(intervals=5, max_iters=5, tol=1e-30, workers=workers)
        _, trace = run_parareal(Starts(0.5, "C", []), Starts(0.1, "F", []), s0, 2.5, cfg)
        assert trace.iterations_run == 5
        assert len(starts) == len(set(starts)) == 5 + 15 + 10  # coarse_init, fine and C-advancing correctors

    def test_single_worker_runs_on_calling_thread(self):
        seen = []

        class Probe:

            def __init__(self, step):
                self.step = step

            def advance(self, state, t_end):
                seen.append((threading.get_ident(), threading.active_count()))
                return state.with_values(state.values * 0.5, time=t_end)

        caller, threads_before = threading.get_ident(), threading.active_count()
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30, workers=1)
        run_parareal(Probe(0.5), Probe(0.1), s0, 2.0, cfg)
        assert seen and set(seen) == {(caller, threads_before)}

    # a bare ThetaPropagator batches and runs inline at any worker count; the
    # wrapper without advance_many runs its windows one by one on the worker threads
    @pytest.mark.parametrize("wrap", [None, _Recorder], ids=["block", "per_window"])
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_pipelined_bitwise_equals_serial(self, workers, wrap):
        problem = heat1d(mesh_n=15, nu=0.1, init=SineMode(1))
        C = make_propagator(problem, ThetaSettings(step=0.1))
        F = make_propagator(problem, ThetaSettings(step=0.02))
        s0 = initial_state(problem)
        (serial_states, serial_trace), (pipe_states, pipe_trace) = (
            run_parareal(C, fine, s0, 2.0, PararealConfig(intervals=5, max_iters=4, tol=1e-30, workers=w))
            for fine, w in ((F, 1), (wrap(F) if wrap else F, workers))
        )
        assert pipe_trace.workers == (workers if wrap else 1)
        for a, b in zip(serial_states, pipe_states):
            assert a.values.tobytes() == b.values.tobytes()
        for row_a, row_b in zip(serial_trace.iterate_values, pipe_trace.iterate_values):
            for va, vb in zip(row_a, row_b):
                assert va.tobytes() == vb.tobytes()
        assert np.array_equal(serial_trace.theta_values, pipe_trace.theta_values)

    def test_sleep_fine_tasks_run_on_the_fine_threads(self):
        # sleeps release the interpreter lock, so a fine propagator without
        # advance_many keeps its worker threads
        fine = _Recorder(SleepPropagator(step=0.05, cost_per_step=0.001))
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30, workers=2)
        _, trace = run_parareal(SleepPropagator(step=0.5, cost_per_step=0.001), fine, s0, 2.0, cfg)
        threads = {ident for ident, _ in fine.threads}
        assert trace.workers == 2
        assert len(threads) == 2 and threading.get_ident() not in threads

    def test_sleep_propagators_identical_output_across_worker_counts(self):
        def run(workers):
            C = SleepPropagator(step=0.5, cost_per_step=0.001)
            F = SleepPropagator(step=0.05, cost_per_step=0.001)
            s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
            cfg = PararealConfig(intervals=4, max_iters=2, tol=1e-30, workers=workers)
            states, _ = run_parareal(C, F, s0, 2.0, cfg)
            return [s.values.tobytes() for s in states]

        assert run(2) == run(8)


class TestSchedulerPerformance:
    def test_makespan_within_bound_of_critical_path(self):
        L, iterations = 8, 2
        cost = 0.005
        window = 1.0
        C = SleepPropagator(step=window, cost_per_step=cost)
        F = SleepPropagator(step=window / 10.0, cost_per_step=cost)
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        cfg = PararealConfig(intervals=L, max_iters=iterations, tol=1e-30, workers=L)
        t0 = time.perf_counter()
        run_parareal(C, F, s0, L * window, cfg)
        measured = time.perf_counter() - t0
        durations = {"coarse_init": cost, "fine": 10 * cost, "correct": cost}
        bound = simulate_makespan(pipelined_schedule(L, iterations), durations, workers=L)
        assert measured <= 1.5 * bound

    def test_pipelined_overlaps_iterations(self):
        # the pipelined makespan of two iterations must beat the serial one,
        # which pays the full fine cost twice
        L = 6
        cost = 0.004
        C = SleepPropagator(step=1.0, cost_per_step=cost)
        F = SleepPropagator(step=0.1, cost_per_step=cost)
        s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
        times = {}
        for workers in (1, L):
            cfg = PararealConfig(intervals=L, max_iters=2, tol=1e-30, workers=workers)
            t0 = time.perf_counter()
            run_parareal(C, F, s0, float(L), cfg)
            times[workers] = time.perf_counter() - t0
        assert times[L] < 0.6 * times[1]


class TestCoalescing:
    L = 6

    def _run(self, fine, workers):
        problem = heat1d(mesh_n=15, nu=0.1, init=SineMode(1))
        C = make_propagator(problem, ThetaSettings(step=0.1))
        cfg = PararealConfig(intervals=self.L, max_iters=3, tol=1e-30, workers=workers)
        return run_parareal(C, fine, initial_state(problem), 1.2, cfg)

    @staticmethod
    def _fine(cls=_BlockRecorder, fail_at=None):
        problem = heat1d(mesh_n=15, nu=0.1, init=SineMode(1))
        return cls(make_propagator(problem, ThetaSettings(step=0.02)), fail_at)

    def test_one_worker_steps_each_iteration_as_one_block(self):
        fine = self._fine()
        _, trace = self._run(fine, workers=1)
        assert fine.widths == [self.L, self.L - 1, self.L - 2]  # iteration i steps windows i-1..L-1
        assert trace.fine_propagations == 3 * self.L - 3

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_blocks_change_nothing_across_worker_counts(self, workers):
        # a batching fine propagator takes the one-worker path: one block per
        # iteration, on the calling thread, with no thread started
        plain, one, many = self._fine(_Recorder), self._fine(), self._fine()
        expected = [row.tobytes() for row in self._run(plain, workers=1)[1].iterate_values]
        assert [row.tobytes() for row in self._run(one, workers=1)[1].iterate_values] == expected
        caller, threads_before = threading.get_ident(), threading.active_count()
        _, trace = self._run(many, workers=workers)
        assert [row.tobytes() for row in trace.iterate_values] == expected
        assert many.widths == [self.L, self.L - 1, self.L - 2]
        assert set(many.threads) == {(caller, threads_before)}
        assert trace.workers == 1
        assert plain.widths == [1] * (3 * self.L - 3)  # no advance_many, no block

    def test_windows_under_frequent_thread_switches(self):
        # 8 workers switching every microsecond on numeric windows: each window
        # is stepped once, so a lost update of the ready heap or of the
        # propagator's counters shows here
        expected = [row.tobytes() for row in self._run(self._fine(), workers=1)[1].iterate_values]
        fine, result = self._fine(_Recorder), {}
        runner = threading.Thread(target=lambda: result.update(run=self._run(fine, workers=8)))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not runner.is_alive()
        _, trace = result["run"]
        assert [row.tobytes() for row in trace.iterate_values] == expected
        assert fine.widths == [1] * trace.fine_propagations
        assert trace.fine_propagations == 3 * self.L - 3
        assert fine.inner.steps_taken == (3 * self.L - 3) * 10

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_failing_column_named_as_without_blocks(self, workers):
        # the window starting at 0.6 fails in every iteration; the block that
        # holds it is rerun task by task, so the first failing task is named
        def message(fine, w):
            with pytest.raises(PararealError) as info:
                self._run(fine, workers=w)
            return str(info.value)

        expected = message(self._fine(_Recorder, fail_at=0.6), 1)
        assert expected == "fine failed at iteration 1, interval 3: injected failure"
        fine = self._fine(fail_at=0.6)
        assert message(fine, workers) == expected
        assert fine.widths[0] == self.L  # the failing window was stepped in a block first


class _InterruptedBlock(_Recorder):
    """Its block is interrupted, as by Ctrl-C."""

    def advance_many(self, states, t_ends):
        self._record(states)
        raise KeyboardInterrupt


class _InterruptedWindow(_Recorder):
    """Each of its windows is interrupted, as by Ctrl-C."""

    def advance(self, state, t_end):
        self._record([state])
        raise KeyboardInterrupt


class TestInterrupt:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_interrupted_block_propagates_and_is_not_rerun(self, workers):
        fine = TestCoalescing._fine(_InterruptedBlock)
        with pytest.raises(KeyboardInterrupt):  # itself, not wrapped in a PararealError
            TestCoalescing()._run(fine, workers)
        assert fine.widths == [TestCoalescing.L]  # one block call and no advance

    def test_interrupted_window_on_a_pool_thread_propagates(self):
        # without advance_many each window steps alone, on a pool thread
        fine = TestCoalescing._fine(_InterruptedWindow)
        threads_before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):  # itself, not wrapped in a PararealError
            TestCoalescing()._run(fine, workers=4)
        assert threading.active_count() == threads_before
        assert fine.widths and threading.get_ident() not in {ident for ident, _ in fine.threads}

    def test_interrupted_calling_thread_cancels_the_queued_fine_tasks(self):
        # the last link of the init sweep interrupts the calling thread, as Ctrl-C
        # would, while all six iteration-1 fine tasks are queued on two fine threads
        caller, threads_before = threading.get_ident(), threading.active_count()
        ran = []

        def run_task(task):
            ran.append(task.key)
            if task.key == (0, 1, 5):
                signal.pthread_kill(caller, signal.SIGINT)
            if task.kind == "fine":
                time.sleep(0.05)

        with pytest.raises(KeyboardInterrupt):
            _execute(pipelined_schedule(6, 3), run_task, workers=2)
        assert threading.active_count() == threads_before
        assert sum(key[1] == 0 for key in ran) <= 2  # only the fine tasks already in flight
        assert max(ran) < (2, 0, 0)


class TestChainLane:
    """At ``workers > 1`` the coarse init sweep and the correctors run on one thread of their own."""

    def test_chain_never_waits_for_a_fine_slot(self):
        # fine tasks of windows 2 and up wait for corrector (1, 1, 1); were the
        # chain to share the two fine slots, fine (1, 0, 2) and (1, 0, 3) would
        # hold both and the corrector could start only once their waits timed out
        released, waits = threading.Event(), []

        def run_task(task):
            if task.kind == "fine" and task.iteration == 1 and task.interval >= 2:
                waits.append(released.wait(timeout=5.0))
            elif task.key == (1, 1, 1):
                released.set()

        _execute(pipelined_schedule(6, 2), run_task, workers=2)
        assert len(waits) == 4 and all(waits)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_chain_runs_on_its_own_thread(self, workers):
        tasks = pipelined_schedule(6, 2)
        caller, threads_before = threading.get_ident(), threading.active_count()
        ran = {}  # task key -> thread ident

        def run_task(task):
            ran[task.key] = threading.get_ident()
            if task.kind == "fine":
                time.sleep(0.002)

        _execute(tasks, run_task, workers)
        assert len(ran) == len(tasks)
        chain = {ran[t.key] for t in tasks if t.kind in ("coarse_init", "correct")}
        fine = {ran[t.key] for t in tasks if t.kind == "fine"}
        assert len(chain) == 1 and chain.isdisjoint(fine | {caller})
        assert caller not in fine and len(fine) <= workers
        assert threading.active_count() == threads_before


class TestExecutorDefense:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cycle_rejected_before_any_task_runs(self, workers):
        # (1, 1, 1) does not sort before (1, 0, 0)
        a = Task("fine", 1, 0, depends=((1, 1, 1),))
        b = Task("correct", 1, 1, depends=((1, 0, 0),))
        ran = []
        with pytest.raises(ValueError, match=r"task \(1, 0, 0\) depends on \(1, 1, 1\)"):
            _execute([a, b], lambda task: ran.append(task.key), workers=workers)
        assert ran == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_dependency_rejected(self, workers):
        first = Task("coarse_init", 0, 0, depends=())
        orphan = Task("fine", 1, 0, depends=((0, 9, 9),))
        ran = []
        with pytest.raises(ValueError, match=r"task \(1, 0, 0\) depends on \(0, 9, 9\)"):
            _execute([first, orphan], lambda task: ran.append(task.key), workers=workers)
        assert ran == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fine_task_depending_on_a_fine_task_rejected(self, workers):
        # a fine task is released by the link of the chain it waits for last
        first = Task("fine", 1, 0, depends=())
        second = Task("fine", 1, 1, depends=((1, 0, 0),))
        ran = []
        with pytest.raises(ValueError, match=r"fine task \(1, 0, 1\) depends on fine task \(1, 0, 0\)"):
            _execute([first, second], lambda task: ran.append(task.key), workers=workers)
        assert ran == []


class TestFailureLocation:
    def test_failure_named_as_with_one_worker(self):
        # every fine task fails after the same delay, so with a worker per
        # window the order in which the failures land is a matter of timing
        class SlowFailure:
            step = 0.05

            def advance(self, state, t_end):
                time.sleep(0.01)
                raise RuntimeError("injected failure")

        def message(workers):
            s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
            cfg = PararealConfig(intervals=4, max_iters=1, tol=1e-30, workers=workers)
            with pytest.raises(PararealError) as info:
                run_parareal(SleepPropagator(step=0.5, cost_per_step=0.0), SlowFailure(), s0, 2.0, cfg)
            return str(info.value)

        expected = message(1)
        assert expected.startswith("fine failed at iteration 1, interval 0:")
        assert [message(4) for _ in range(20)] == [expected] * 20

    def test_failure_after_convergence_is_dropped(self):
        # the corrector that detects convergence at iteration 1 is slow, so the
        # second worker starts the iteration-2 fine task of window 1, which the
        # serial order never runs; its failure must not fail the run
        class FailsOnSecondStartAtOne:
            step = 0.1

            def __init__(self):
                self.inner = SleepPropagator(step=0.1, cost_per_step=0.0)
                self.starts = []

            def advance(self, state, t_end):
                if state.time == 1.0:
                    self.starts.append(state.time)
                    if len(self.starts) > 1:
                        raise RuntimeError("injected failure")
                return self.inner.advance(state, t_end)

        def run(workers):
            C = SleepPropagator(step=0.5, cost_per_step=0.02)
            s0 = State(np.array([1.0]), 0.0, {"y": (0, 1)})
            cfg = PararealConfig(intervals=2, max_iters=2, tol=1.0, workers=workers)
            return run_parareal(C, FailsOnSecondStartAtOne(), s0, 2.0, cfg)[1]

        one, two = run(1), run(2)
        assert one.iterations_run == two.iterations_run == 1
        assert [v.tobytes() for v in two.iterate_values[-1]] == [v.tobytes() for v in one.iterate_values[-1]]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fine_failure_before_a_failing_link_is_raised(self, workers):
        # corrector (1, 1, 0) fails at once, while fine (1, 0, 3), whose key is
        # smaller, fails only 50 ms later: the fine failure is the one raised
        class Failure(Exception):
            pass

        def run_task(task):
            if task.key == (1, 1, 0):
                raise Failure(task.key)
            if task.key == (1, 0, 3):
                time.sleep(0.05)
                raise Failure(task.key)

        with pytest.raises(Failure) as info:
            _execute(pipelined_schedule(6, 2), run_task, workers)
        assert info.value.args == ((1, 0, 3),)
