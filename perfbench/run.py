"""pint-bench benchmark: time to a solution of stated accuracy.

Runs one workload through the public library API, the calls
``pintbench.cli.run_experiment`` makes: ``sequential_solve`` with the fine
propagator, then ``run_parareal`` with the sequential states as oracle.
Every sample is checked for correctness; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a separate traced sample with ``--trace 1``).

    python3 perfbench/run.py --workload heat_linear --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--workload all`` runs every workload in its own process, so peak memory
stays per workload, and prints one table. Full results with provenance,
and the trace of a ``--trace 1`` run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("heat_linear", "piston_nonlinear", "sched_sleep")
SETUP_REPEATS = 3
# a fine solve this far from the refined reference is not a usable floor
FLOOR_LIMIT = 1e-3
# the exactness frontier matches sequential fine to the Newton abs_tol
FRONTIER_RTOL = 1e-10

E2E_UNITS = {"setup_s": "s", "t_seq_s": "s", "t_par_s": "s", "parareal_wall_s": "s",
             "iters_to_floor": "count", "peak_rss_mb": "MB"}
# printed and recorded but left out of the result line: a single 1-2 s
# sequential solve spreads more from run to run on a shared 2-core host than
# any bound worth gating on; the traced run reports it as parareal.t_seq_s
REPORTED_ONLY = ("t_seq_s",)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, pintbench; print(time.perf_counter() - t)")


class CheckFailed(RuntimeError):
    """A sample's output failed a correctness check."""


def import_program():
    """Import the checkout's pintbench; returns (seconds, module)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pintbench
    import pintbench.integrators
    import pintbench.parareal
    import pintbench.problems
    seconds = time.perf_counter() - t0
    if not Path(pintbench.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"pintbench was imported from {pintbench.__file__}, not from {SRC}")
    return seconds, pintbench


def git_rev() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# one sample


def run_sample(api, inst, tracer=None):
    """Sequential fine solve, then Parareal against it; times both."""
    from spans import TracedPropagator

    def wrap(prop, kind):
        return prop if tracer is None else TracedPropagator(prop, kind, tracer)

    def span(name, **args):
        return contextlib.nullcontext() if tracer is None else tracer.span(name, **args)

    fine_seq, fine_par, coarse = inst.fine(), inst.fine(), inst.coarse()
    gc.collect()
    t0 = time.perf_counter()
    with span("sequential_solve"):
        seq = api.sequential_solve(wrap(fine_seq, "fine"), inst.s0, inst.t_grid)
    t_seq = time.perf_counter() - t0
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with span("run_parareal", workers=inst.pcfg.workers):
        states, trace = api.run_parareal(wrap(coarse, "coarse"), wrap(fine_par, "fine"),
                                         inst.s0, inst.horizon, inst.pcfg, oracle=seq)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {"seq": seq, "states": states, "trace": trace, "t_seq_s": t_seq,
            "parareal_wall_s": wall, "cpu_s": cpu, "fine_seq": fine_seq, "coarse": coarse}


def check_sample(inst, sample, floor, first_seq):
    """Raise CheckFailed unless the sample is correct; returns (q, t_par)."""
    from workloads import rel_err

    seq, trace = sample["seq"], sample["trace"]
    problem = inst.check_sequential(seq)
    if problem:
        raise CheckFailed(problem)
    if first_seq and any(not np.array_equal(a.values, b.values) for a, b in zip(seq, first_seq)):
        raise CheckFailed("sequential solve is not bit-identical across samples")
    iterates = trace.iterate_values
    last = iterates[trace.iterations_run]
    if any(not np.array_equal(s.values, v) for s, v in zip(sample["states"], last)):
        raise CheckFailed("returned states differ from the last recorded iterate")
    L = inst.pcfg.intervals
    for i in range(1, trace.iterations_run + 1):
        for l in range(1, i + 1):
            err = rel_err(iterates[i][l], seq[l].values)
            if err > FRONTIER_RTOL:
                raise CheckFailed(f"exactness frontier broken at iteration {i}, boundary {l}: {err:.3e}")
    if floor is None:
        q = trace.iterations_run
    else:
        finals = [rel_err(iterates[i][L], seq[L].values) for i in range(1, trace.iterations_run + 1)]
        q = next((i + 1 for i, e in enumerate(finals) if e <= floor), None)
        if q is None:
            raise CheckFailed(f"no iteration reached the floor {floor:.3e}: {finals}")
    return q, trace.iteration_seconds[q - 1]


def check_determinism(api, inst, iterates, q):
    """Iterates 0..q of a 1-worker run must equal the 2-worker ones bit for bit."""
    cfg = dataclasses.replace(inst.pcfg, workers=1, max_iters=q)
    _, trace = api.run_parareal(inst.coarse(), inst.fine(), inst.s0, inst.horizon, cfg)
    for i in range(q + 1):
        for a, b in zip(trace.iterate_values[i], iterates[i]):
            if not np.array_equal(a, b):
                raise CheckFailed(f"1 and 2 workers differ at iteration {i}")


# --------------------------------------------------------------------------
# per-layer metrics from the traced sample


def _leaf_total(spans, leaf, index):
    return sum(v[index] for s in spans for p, v in s.inner.items() if p.split("/")[-1] == leaf)


def _per_call_us(spans, leaf):
    """Median over spans of the mean time per ``leaf`` call, in microseconds."""
    rates = []
    for s in spans:
        calls = _leaf_total([s], leaf, 0)
        if calls:
            rates.append(_leaf_total([s], leaf, 1) / calls * 1e6)
    return statistics.median(rates) if rates else 0.0


def _corrector_seconds(spans):
    """Weight plus update time per corrector, paired in order per thread."""
    by_thread = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.name in ("theta_weight", "parareal_update"):
            by_thread.setdefault(s.tid, {}).setdefault(s.name, []).append(s.seconds)
    out = []
    for calls in by_thread.values():
        weights, updates = calls.get("theta_weight", []), calls.get("parareal_update", [])
        if len(weights) != len(updates):
            raise CheckFailed("unpaired corrector spans")
        out.extend(w + u for w, u in zip(weights, updates))
    return out


def layer_metrics(api, inst, tracer, traced, untraced, q, coarse_sweep_s):
    from listsched import list_schedule

    spans = tracer.spans
    seq_root = next(s for s in spans if s.name == "sequential_solve")
    par_root = next(s for s in spans if s.name == "run_parareal")
    seq_fine = [s for s in spans if s.parent_id == seq_root.span_id and s.name == "fine.advance"]
    par_fine = [s for s in spans if s.parent_id == par_root.span_id and s.name == "fine.advance"]
    par_coarse = [s for s in spans if s.parent_id == par_root.span_id and s.name == "coarse.advance"]
    L, workers = inst.pcfg.intervals, inst.pcfg.workers
    steps = round(inst.horizon / traced["fine_seq"].step)
    fine_seq, coarse = traced["fine_seq"], traced["coarse"]

    def newton_per_step(prop):
        taken = getattr(prop, "steps_taken", 0)
        return prop.newton_iterations / taken if taken else 0.0

    t_seq = statistics.median(s["t_seq_s"] for s in untraced)
    t_par = statistics.median(s["t_par_s"] for s in untraced)
    wall = statistics.median(s["parareal_wall_s"] for s in untraced)
    correctors = _corrector_seconds(spans)
    corrector_s = statistics.median(correctors)
    durations = {"fine": t_seq / L, "coarse_init": coarse_sweep_s / L}
    durations["correct"] = durations["coarse_init"] + corrector_s
    iters = traced["trace"].iterations_run
    finish = list_schedule(api.pipelined_schedule(L, iters), durations, workers)
    fine_tasks = traced["trace"].fine_propagations
    # a failed step raises NumericBreakdown in Newton and TimeStepError out of
    # the advance, both counted on the advance span: count it once
    failures = sum(1 for s in spans if s.errors.keys() & {"TimeStepError", "NumericBreakdown"})
    # the dense solve and the Jacobian assembly belong to linalg; rhs does not
    newton_self = sum(s.self_seconds("newton_solve", children=("rhs_values",)) for s in seq_fine)
    metrics = {
        "problems.rhs_calls_per_step": (_leaf_total(seq_fine, "rhs_values", 0) / steps, "count"),
        "problems.rhs_us": (_per_call_us(seq_fine, "rhs_values"), "us"),
        "linalg.newton_iters_per_step.fine": (newton_per_step(fine_seq), "count"),
        "linalg.newton_iters_per_step.coarse": (newton_per_step(coarse), "count"),
        "linalg.newton_self_us_per_step": (newton_self / steps * 1e6, "us"),
        "linalg.solve_calls": (_leaf_total(par_fine + par_coarse, "solve", 0), "count"),
        "linalg.solve_us": (_per_call_us(seq_fine, "solve"), "us"),
        "linalg.step_failures": (failures, "count"),
        "integrators.fine_advance_ms": (statistics.median(s.seconds for s in par_fine) * 1e3, "ms"),
        "integrators.fine_advance_ms.p90": (
            statistics.quantiles([s.seconds for s in par_fine], n=10)[-1] * 1e3, "ms"),
        "integrators.fine_step_us": (t_seq / steps * 1e6, "us"),
        "integrators.coarse_advance_ms": (statistics.median(s.seconds for s in par_coarse) * 1e3, "ms"),
        "parareal.fine_tasks": (fine_tasks, "count"),
        "parareal.wasted_fine_ratio": ((fine_tasks - q * L) / fine_tasks, "ratio"),
        "parareal.corrector_us": (corrector_s * 1e6, "us"),
        "parareal.init_s": (statistics.median(s["trace"].init_seconds for s in untraced), "s"),
        "parareal.worker_busy_frac": (
            sum(s.seconds for s in par_fine + par_coarse) / (workers * par_root.seconds), "ratio"),
        "parareal.cpu_util": (
            statistics.median(s["cpu_s"] / (workers * s["parareal_wall_s"]) for s in untraced), "ratio"),
        "parareal.model_makespan_ratio": (wall / max(finish.values()), "ratio"),
        "parareal.speedup_meas": (t_seq / t_par, "x"),
        "parareal.speedup_model": (t_seq / finish[(q, 1, L - 1)], "x"),
        "parareal.t_seq_s": (t_seq, "s"),
        "parareal.t_par_s": (t_par, "s"),
        "parareal.t_par_s.traced": (traced["t_par_s"], "s"),
        "parareal.trace_overhead_ratio": (traced["t_par_s"] / t_par - 1.0, "ratio"),
    }
    model = {"durations_s": durations, "workers": workers, "iterations": iters,
             "makespan_s": max(finish.values()), "time_to_q_s": finish[(q, 1, L - 1)]}
    return metrics, model


# --------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    load_start = os.getloadavg()
    try:
        import_s, pintbench = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    from pintbench import parareal as api
    from spans import Tracer, check_trace_events, patched, write_trace_events
    import workloads

    build, params = workloads.WORKLOADS[args.workload]

    # set-up: import in a fresh interpreter, construction, seeded inputs
    # and the refined reference solve
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setup_times = []
    for _ in range(repeats):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        gc.collect()
        t0 = time.perf_counter() - float(probe.stdout)
        inst = build(args.seed)
        ref = None
        if inst.reference is not None:
            ref = api.sequential_solve(inst.reference(), inst.s0, inst.t_grid)
        setup_times.append(time.perf_counter() - t0)

    samples, errors, failed = [], [], 0
    first_seq, floor, iterates = None, None, None
    deadline = time.perf_counter() + args.seconds
    while True:
        try:
            sample = run_sample(api, inst)
            if ref is not None and floor is None:
                floor = workloads.rel_err(sample["seq"][-1].values, ref[-1].values)
                if not floor <= FLOOR_LIMIT:
                    raise CheckFailed(f"fine solve is {floor:.3e} from the refined reference")
            q, t_par = check_sample(inst, sample, floor, first_seq)
        except Exception as exc:  # any failure of a sample is counted, not fatal
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            sample.update(q=q, t_par_s=t_par)
            first_seq = first_seq or sample["seq"]
            iterates = iterates or sample["trace"].iterate_values
            samples.append(sample)
        if time.perf_counter() >= deadline:
            break

    deterministic = None
    if samples:
        try:
            check_determinism(api, inst, iterates, samples[0]["q"])
            deterministic = True
        except Exception as exc:
            deterministic = False
            errors.append(f"determinism: {type(exc).__name__}: {exc}")

    attempted = len(samples) + failed
    reported, extra = {}, {}
    if samples and args.trace == 0:
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": statistics.median(setup_times),
            "t_seq_s": statistics.median(s["t_seq_s"] for s in samples),
            "t_par_s": statistics.median(s["t_par_s"] for s in samples),
            "parareal_wall_s": statistics.median(s["parareal_wall_s"] for s in samples),
            "iters_to_floor": statistics.median(s["q"] for s in samples),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        reported = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        extra["sample_times_s"] = {
            k: [s[k] for s in samples] for k in ("t_seq_s", "t_par_s", "parareal_wall_s")
        }
    elif samples:
        q = samples[0]["q"]
        gc.collect()
        t0 = time.perf_counter()
        api.sequential_solve(inst.coarse(), inst.s0, inst.t_grid)
        coarse_sweep_s = time.perf_counter() - t0
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        targets = [
            (pintbench.problems, "rhs_values", "rhs_values"),
            (pintbench.integrators, "newton_solve", "newton_solve"),
            (np.linalg, "solve", "solve"),
            (api, "theta_weight", "theta_weight"),
            (api, "parareal_update", "parareal_update"),
        ]
        attempted += 1
        try:
            with patched(tracer, targets):
                traced = run_sample(api, inst, tracer)
            q_traced, traced["t_par_s"] = check_sample(inst, traced, floor, first_seq)
            if q_traced != q:
                raise CheckFailed(f"traced run qualified at iteration {q_traced}, untraced at {q}")
            reported, extra["model"] = layer_metrics(api, inst, tracer, traced, samples, q, coarse_sweep_s)
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            write_trace_events(tracer, trace_path, {"run_id": tracer.run_id, "workload": args.workload,
                                                    "seed": args.seed})
            extra["trace_file"] = str(trace_path.relative_to(ROOT))
            extra["trace_events"] = check_trace_events(trace_path)
        except Exception as exc:
            failed += 1
            reported = {}
            errors.append(f"traced: {type(exc).__name__}: {exc}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items() if k not in REPORTED_ONLY}
    correct = bool(samples) and failed == 0 and deterministic is True and bool(metrics)
    reported["failed_ratio"] = (failed / max(attempted, 1), "ratio")
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "params": params, "inputs": inst.inputs, "floor": floor,
        "cores": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "pintbench": pintbench.__version__, "git_rev": git_rev(), "loadavg_start": load_start,
        "machine": platform.machine(), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "samples": len(samples), "setup_times_s": setup_times, "import_s": import_s,
        "deterministic_1_vs_2_workers": deterministic, "errors": errors,
    }
    report = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"# {args.workload} seed={args.seed} samples={len(samples)} trace={args.trace}")
    for k, (v, u) in reported.items():
        base = f" ({failed} of {attempted} samples)" if k == "failed_ratio" else ""
        print(f"{k:40s} {v:14.6g} {u}{base}")
    for err in errors:
        print(f"error: {err}")
    print(json.dumps({"provenance": provenance, **extra}))
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance, **extra, **report,
              "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    with open(result_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(report))
    return 0 if correct else 1


def result_path(workload, seed, trace) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        path = result_path(name, args.seed, args.trace)
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(path.read_text()) if path.exists() else None
    names = list(dict.fromkeys(m for r in results.values() if r for m in r["reported"]))
    print("\n" + "metric".ljust(40) + "".join(n.rjust(18) for n in WORKLOAD_NAMES) + "  unit")
    for m in names:
        cells, unit = [], ""
        for n in WORKLOAD_NAMES:
            entry = (results[n] or {}).get("reported", {}).get(m)
            cells.append("-" if entry is None else f"{entry['value']:.6g}")
            unit = entry["unit"] if entry else unit
        print(m.ljust(40) + "".join(c.rjust(18) for c in cells) + "  " + unit)
    print("correct".ljust(40) + "".join(str(bool(r and r["correct"])).rjust(18) for r in results.values()))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; at least one sample always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
