"""Worker-aware list-schedule model of the Parareal task graph.

The pipelined executor hands every free worker the ready task with the
smallest key. :func:`list_schedule` replays that rule on a simulated
clock with fixed durations per task kind, so the model uses the worker
count actually run instead of assuming one worker per window (Aubanel,
*Scheduling of tasks in the parareal algorithm*, Parallel Computing 37,
2011; Elwasif et al., *A dependency-driven formulation of parareal*,
MTAGS 2011). :func:`critical_path` is the same graph with unlimited
workers.

Tasks are any objects with ``key``, ``kind`` and ``depends`` (the keys
of their predecessors), as built by ``pintbench.parareal.pipelined_schedule``.
"""

from __future__ import annotations

import heapq


def _graph(tasks):
    by_key = {t.key: t for t in tasks}
    dependents = {key: [] for key in by_key}
    for t in tasks:
        for dep in t.depends:
            if dep not in by_key:
                raise ValueError(f"task {t.key} depends on unknown task {dep}")
            dependents[dep].append(t.key)
    return by_key, dependents


def list_schedule(tasks, durations, workers):
    """Simulate ``workers`` workers taking ready tasks in key order.

    ``durations`` maps task kind to seconds. Returns ``{key: finish_time}``.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    by_key, dependents = _graph(tasks)
    indegree = {key: len(t.depends) for key, t in by_key.items()}
    ready = [key for key, n in indegree.items() if n == 0]
    heapq.heapify(ready)
    running = []  # (finish_time, key)
    finish = {}
    now = 0.0
    while ready or running:
        while ready and len(running) < workers:
            key = heapq.heappop(ready)
            heapq.heappush(running, (now + durations[by_key[key].kind], key))
        now = running[0][0]
        # release every task ending now before any worker picks again,
        # so a simultaneous completion cannot lose its priority
        while running and running[0][0] == now:
            _, key = heapq.heappop(running)
            finish[key] = now
            for dep in dependents[key]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    heapq.heappush(ready, dep)
    if len(finish) != len(by_key):
        raise RuntimeError("task graph has a cycle")
    return finish


def critical_path(tasks, durations):
    """Length of the longest dependency chain, in seconds."""
    by_key, _ = _graph(tasks)
    finish = {}
    # keys sort topologically for the Parareal graph; check it anyway
    for key in sorted(by_key):
        task = by_key[key]
        start = 0.0
        for dep in task.depends:
            if dep not in finish:
                raise ValueError(f"task {key} sorts before its dependency {dep}")
            start = max(start, finish[dep])
        finish[key] = start + durations[task.kind]
    return max(finish.values())
