"""Benchmark harness: experiment configs, timed runs, CSV/JSON emission.

Experiments are described by INI-style config files (one section per
problem kind plus an ``[experiment]`` section); every key can be
overridden on the command line with ``--key=value`` or
``--section.key=value``. A key in ``[experiment]`` or in the chosen
problem's section that the harness does not know is a config error, so
a misspelled override never runs with the defaults. The harness times
the sequential fine solve, runs the parallel-in-time iteration per
coarse step and variant, and emits one row per (iteration, boundary),
per-boundary discretization error rows (against a refined reference),
and one summary row per (coarse step, variant) with measured and
modelled speedup.

Exit codes: 0 success, 2 config error, 3 numerical failure (a partial
results file is written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .integrators import NonDivisibleWindow, ThetaSettings, TimeStepError, _split_window, make_propagator
from .linalg import MaxItersExceeded, NumericBreakdown
from .parareal import (
    PararealConfig,
    PararealError,
    SCHEDULERS,
    SpeedupModel,
    boundary_error,
    run_parareal,
    sequential_solve,
    theoretical_speedup,
    VARIANTS,
)
from .problems import (
    PROBLEMS,
    GaussianBump,
    MeshDegenerate,
    Problem,
    SineMode,
    Zero,
    initial_state,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ENV_WORKERS = "PINT_BENCH_WORKERS"

CSV_COLUMNS = (
    "problem", "K", "k", "variant", "iter", "boundary", "rel_err", "theta",
    "t_seq_s", "t_par_s", "speedup_meas", "speedup_theory",
)

# rows carrying the dashed reference line use this sentinel variant
DISCRETIZATION_VARIANT = "discretization"

_NUMERIC_FAILURES = (NumericBreakdown, MaxItersExceeded, TimeStepError, PararealError, MeshDegenerate)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ResultRow:
    problem: str
    K: float
    k: float
    variant: str
    iteration: int
    boundary: Optional[int]
    rel_err: float
    theta: Optional[float]
    t_seq_s: Optional[float] = None
    t_par_s: Optional[float] = None
    speedup_meas: Optional[float] = None
    speedup_theory: Optional[float] = None

    def __post_init__(self):
        if self.rel_err < 0.0:
            raise ValueError("errors cannot be negative")
        if self.speedup_meas is not None and self.speedup_meas <= 0.0:
            raise ValueError("measured speedup must be positive")

    def as_tuple(self):
        return (
            self.problem, self.K, self.k, self.variant, self.iteration, self.boundary,
            self.rel_err, self.theta, self.t_seq_s, self.t_par_s,
            self.speedup_meas, self.speedup_theory,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Problem
    horizon: float
    intervals: int
    coarse_steps: tuple
    fine_step: float
    variants: tuple = ("classic",)
    workers: int = 1
    reference_fine_factor: int = 4
    output_path: str = "results.csv"
    theta0: float = 0.0
    max_iters: int = 0            # 0 picks min(8, intervals)
    tol: float = 1e-12
    scheduler: str = "pipelined"

    def effective_max_iters(self) -> int:
        return self.max_iters if self.max_iters > 0 else min(8, self.intervals)

    def validate(self) -> None:
        numbers = [("horizon", self.horizon), ("fine step", self.fine_step), ("theta0", self.theta0),
                   ("tol", self.tol)] + [("coarse step", K) for K in self.coarse_steps]
        for name, value in numbers:
            if not math.isfinite(value):
                raise ConfigError(f"{name} {value} must be finite")
        if self.horizon <= 0.0:
            raise ConfigError("horizon must be positive")
        if self.intervals < 2:
            raise ConfigError("need at least 2 intervals")
        window = self.horizon / self.intervals
        if not self.coarse_steps:
            raise ConfigError("need at least one coarse step")
        for name, step in [("coarse", K) for K in self.coarse_steps] + [("fine", self.fine_step)]:
            if step <= 0.0:
                raise ConfigError(f"{name} step {step} must be positive")
            try:
                _split_window(window, step)
            except NonDivisibleWindow as exc:
                raise ConfigError(f"{name} step {step} does not divide the window {window}") from exc
        if self.fine_step >= min(self.coarse_steps):
            raise ConfigError("fine step must be smaller than every coarse step")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")
        if not self.variants:
            raise ConfigError("need at least one variant")
        if self.reference_fine_factor < 2:
            raise ConfigError("reference_fine_factor must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.max_iters < 0 or self.effective_max_iters() > self.intervals:
            raise ConfigError("max_iters must lie in [1, intervals]")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        # the run would reject these only on reaching each step, some after the sequential solve
        for step in (*self.coarse_steps, self.fine_step, self.fine_step / self.reference_fine_factor):
            try:
                ThetaSettings(step=step, theta0=self.theta0)
            except ValueError as exc:
                raise ConfigError(f"theta0 {self.theta0} at step {step}: {exc}") from exc


# --------------------------------------------------------------------------
# config parsing


def _parse_init(text: str):
    parts = text.strip().lower().split(":")
    if parts[0] in ("zero", "rest"):
        return Zero()
    if parts[0] == "sine":
        return SineMode(int(parts[1]) if len(parts) > 1 else 1)
    if parts[0] == "gaussian":
        center = float(parts[1]) if len(parts) > 1 else 0.5
        width = float(parts[2]) if len(parts) > 2 else 0.1
        return GaussianBump(center, width)
    raise ConfigError(f"unknown initial data {text!r}")


def _coerce(name: str, text: str):
    if name == "init":
        return _parse_init(text)
    if name == "periodic":
        return text.strip().lower() in ("1", "true", "yes", "on")
    if name == "mesh_n":
        return int(text)
    return float(text)


def _reject_unknown_keys(section_name: str, section, valid) -> None:
    unknown = sorted(set(section) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(unknown)} in [{section_name}]; valid keys: {', '.join(sorted(valid))}"
        )


def _build_problem(kind: str, section) -> Problem:
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    cls = PROBLEMS[kind]
    names = [f.name for f in dataclasses.fields(cls)]
    _reject_unknown_keys(kind, section, [name.lower() for name in names])
    try:
        # configparser lowercases keys, so AlePiston.L0 is read from l0; the defaults live in problems.py
        kwargs = {name: _coerce(name, section[name.lower()]) for name in names if name.lower() in section}
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad parameter for problem {kind!r}: {exc}") from exc


def _split_list(text: str) -> list:
    return [item.strip() for item in text.replace(";", ",").split(",") if item.strip()]


EXPERIMENT_KEYS = (
    "problem", "horizon", "intervals", "coarse_steps", "fine_step", "variants", "workers",
    "reference_fine_factor", "output", "theta0", "max_iters", "tol", "scheduler",
)


def parse_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    if not parser.has_section("experiment"):
        raise ConfigError("config must contain an [experiment] section")
    exp = parser["experiment"]
    _reject_unknown_keys("experiment", exp, EXPERIMENT_KEYS)
    kind = exp.get("problem", "").strip().lower()
    if not kind:
        raise ConfigError("experiment section must name a problem")
    section = parser[kind] if parser.has_section(kind) else {}
    problem = _build_problem(kind, section)
    try:
        cfg = ExperimentConfig(
            problem=problem,
            horizon=float(exp.get("horizon", 8.0)),
            intervals=int(exp.get("intervals", 20)),
            coarse_steps=tuple(float(v) for v in _split_list(exp.get("coarse_steps", "0.05"))),
            fine_step=float(exp.get("fine_step", 0.005)),
            variants=tuple(_split_list(exp.get("variants", "classic"))),
            workers=int(exp.get("workers", os.environ.get(ENV_WORKERS, "1"))),
            reference_fine_factor=int(exp.get("reference_fine_factor", 4)),
            output_path=exp.get("output", "results.csv"),
            theta0=float(exp.get("theta0", 0.0)),
            max_iters=int(exp.get("max_iters", 0)),
            tol=float(exp.get("tol", 1e-12)),
            scheduler=exp.get("scheduler", "pipelined").strip().lower(),
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad experiment key: {exc}") from exc
    cfg.validate()
    return cfg


_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.\-]+)=(.*)$")


def load_config(path: str, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read an experiment config file and apply ``--key=value`` overrides."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    for item in overrides:
        match = _OVERRIDE_RE.match(item)
        if match is None:
            raise ConfigError(f"unrecognized argument {item!r} (expected --key=value)")
        dotted, value = match.groups()
        section, _, key = dotted.rpartition(".")
        section = section or "experiment"
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    return parse_config(parser)


# --------------------------------------------------------------------------
# experiment driver


def run_experiment(cfg: ExperimentConfig, verbose: bool = False, collect: Optional[list] = None) -> list:
    """Run the full (coarse step x variant) matrix and return result rows.

    ``collect`` (when given) receives rows incrementally so callers can
    write partial results if a later stage fails numerically.
    """
    cfg.validate()
    rows = collect if collect is not None else []
    problem = cfg.problem
    L = cfg.intervals
    k = cfg.fine_step
    s0 = initial_state(problem)
    t_grid = [cfg.horizon * l / L for l in range(L + 1)]
    t_grid[-1] = cfg.horizon

    fine = make_propagator(problem, ThetaSettings(step=k, theta0=cfg.theta0))
    if verbose:
        print(f"[pint-bench] sequential fine solve (step {k:g}) ...", flush=True)
    t0 = time.perf_counter()
    seq = sequential_solve(fine, s0, t_grid)
    t_seq = time.perf_counter() - t0
    if verbose:
        per_newton = t_seq / max(fine.newton_iterations, 1)
        print(
            f"[pint-bench]   {t_seq:.3f} s, {fine.newton_iterations} Newton iterations "
            f"({per_newton * 1e3:.3f} ms each)"
        )

    ref_prop = make_propagator(
        problem, ThetaSettings(step=k / cfg.reference_fine_factor, theta0=cfg.theta0)
    )
    reference = sequential_solve(ref_prop, s0, t_grid)
    disc = boundary_error(seq, reference)
    disc_final = disc[L].value
    for l in range(1, L + 1):
        rows.append(ResultRow(problem.kind, 0.0, k, DISCRETIZATION_VARIANT, 0, l, disc[l].value, None))

    for K in cfg.coarse_steps:
        for variant in cfg.variants:
            coarse = make_propagator(problem, ThetaSettings(step=K, theta0=cfg.theta0))
            fine_run = make_propagator(problem, ThetaSettings(step=k, theta0=cfg.theta0))
            pcfg = PararealConfig(
                intervals=L,
                max_iters=cfg.effective_max_iters(),
                tol=cfg.tol,
                variant=variant,
                scheduler=cfg.scheduler,
                workers=cfg.workers,
            )
            if verbose:
                print(f"[pint-bench] parareal K={K:g} variant={variant} ...", flush=True)
            _, trace = run_parareal(coarse, fine_run, s0, cfg.horizon, pcfg, oracle=seq)
            for i in range(1, trace.iterations_run + 1):
                errs = trace.boundary_errors[i - 1]
                thetas = trace.theta_values[i - 1]
                for l in range(1, L + 1):
                    rows.append(
                        ResultRow(problem.kind, K, k, variant, i, l, errs[l - 1], thetas[l - 1])
                    )
            qualifying = trace.iterations_run
            for i in range(1, trace.iterations_run + 1):
                if trace.boundary_errors[i - 1][L - 1] <= disc_final:
                    qualifying = i
                    break
            t_par = trace.iteration_seconds[qualifying - 1]
            model = SpeedupModel(r=k / K, iters=qualifying, intervals=L)
            rows.append(
                ResultRow(
                    problem.kind, K, k, variant, qualifying, None,
                    trace.boundary_errors[qualifying - 1][L - 1], None,
                    t_seq_s=t_seq, t_par_s=t_par,
                    speedup_meas=t_seq / t_par,
                    speedup_theory=theoretical_speedup(model),
                )
            )
            if verbose:
                print(
                    f"[pint-bench]   {trace.iterations_run} iterations, "
                    f"coarse Newton {coarse.newton_iterations}, fine Newton {fine_run.newton_iterations}, "
                    f"t_par(to iter {qualifying}) {t_par:.3f} s"
                )
    return rows


# --------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.as_tuple()) + "\n")


def emit_json(rows: Sequence[ResultRow], path: str, metadata: Optional[dict] = None) -> None:
    payload = {
        "metadata": metadata or {},
        "rows": [dict(zip(CSV_COLUMNS, row.as_tuple())) for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _row_from_record(record: dict) -> ResultRow:
    def opt(name, cast):
        value = record.get(name)
        if value in (None, ""):
            return None
        return cast(value)

    return ResultRow(
        problem=str(record["problem"]),
        K=float(record["K"]),
        k=float(record["k"]),
        variant=str(record["variant"]),
        iteration=int(record["iter"]),
        boundary=opt("boundary", int),
        rel_err=float(record["rel_err"]),
        theta=opt("theta", float),
        t_seq_s=opt("t_seq_s", float),
        t_par_s=opt("t_par_s", float),
        speedup_meas=opt("speedup_meas", float),
        speedup_theory=opt("speedup_theory", float),
    )


def load_rows(path: str) -> list:
    """Parse rows back from a CSV or JSON results file."""
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        return [_row_from_record(rec) for rec in payload["rows"]]
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ConfigError(f"unexpected CSV header in {path!r}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            rows.append(_row_from_record(dict(zip(CSV_COLUMNS, line.split(",")))))
    return rows


def speedup_report(rows: Sequence[ResultRow]) -> str:
    """Per-(K, variant) speedup summary with a best-K recommendation."""
    disc_final = None
    for row in rows:
        if row.variant == DISCRETIZATION_VARIANT:
            if disc_final is None or (row.boundary or 0) > disc_final[0]:
                disc_final = ((row.boundary or 0), row.rel_err)
    summaries = [r for r in rows if r.speedup_meas is not None]
    if not summaries:
        return "no summary rows with timing data\n"
    lines = []
    best = None
    for row in summaries:
        efficiency = row.speedup_meas / row.speedup_theory if row.speedup_theory else float("nan")
        accurate = disc_final is not None and row.rel_err <= disc_final[1]
        marker = "accurate" if accurate else "above discretization error"
        lines.append(
            f"K={row.K:g} variant={row.variant}: iterations={row.iteration} "
            f"measured={row.speedup_meas:.3f} theoretical={row.speedup_theory:.3f} "
            f"efficiency={efficiency:.3f} [{marker}]"
        )
        if accurate or disc_final is None:
            if best is None or row.speedup_meas > best.speedup_meas:
                best = row
    if best is None:
        best = max(summaries, key=lambda r: r.speedup_meas)
        lines.append(
            f"best K: {best.K:g} ({best.variant}) with speedup {best.speedup_meas:.3f} "
            f"(no run reached the discretization error)"
        )
    else:
        lines.append(f"best K: {best.K:g} ({best.variant}) with speedup {best.speedup_meas:.3f}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# entry point


def _metadata(cfg: ExperimentConfig) -> dict:
    from .linalg import NewtonSettings

    newton = NewtonSettings()
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workers": cfg.workers,
        "newton": {
            "abs_tol": newton.abs_tol,
            "max_iters": newton.max_iters,
            # the integrator differentiates each problem's rhs analytically; a
            # linear problem's step reuses one frozen inverse of I - k*theta*J
            "jacobian": "analytic",
            "frozen": cfg.problem.linear,
        },
        "config": {
            "problem": cfg.problem.kind,
            "horizon": cfg.horizon,
            "intervals": cfg.intervals,
            "coarse_steps": list(cfg.coarse_steps),
            "fine_step": cfg.fine_step,
            "variants": list(cfg.variants),
            "reference_fine_factor": cfg.reference_fine_factor,
            "theta0": cfg.theta0,
            "max_iters": cfg.effective_max_iters(),
            "tol": cfg.tol,
            "scheduler": cfg.scheduler,
        },
    }


def _cmd_run(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
        if args.workers is not None:
            cfg = dataclasses.replace(cfg, workers=args.workers)
        if args.output is not None:
            cfg = dataclasses.replace(cfg, output_path=args.output)
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fmt = args.format or ("json" if cfg.output_path.endswith(".json") else "csv")
    partial: list = []
    try:
        rows = run_experiment(cfg, verbose=args.verbose, collect=partial)
    except _NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        try:
            path = cfg.output_path + ".partial"
            if fmt == "json":
                emit_json(partial, path, _metadata(cfg))
            else:
                emit_csv(partial, path)
            print(f"partial results written to {path}", file=sys.stderr)
        except OSError as io_exc:
            print(f"could not write partial results: {io_exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        if fmt == "json":
            emit_json(rows, cfg.output_path, _metadata(cfg))
        else:
            emit_csv(rows, cfg.output_path)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.verbose:
        print(f"[pint-bench] wrote {len(rows)} rows to {cfg.output_path}")
    print(speedup_report(rows), end="")
    return EXIT_OK


def _cmd_speedup(args) -> int:
    try:
        rows = load_rows(args.results)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot parse results: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(speedup_report(rows), end="")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pint-bench",
        description="parallel-in-time integration benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to the INI experiment config")
    run_p.add_argument("--workers", type=int, default=None)
    run_p.add_argument("--output", default=None)
    run_p.add_argument("--format", choices=("csv", "json"), default=None)
    run_p.add_argument("--verbose", action="store_true")

    speed_p = sub.add_parser("speedup", help="summarize a results file")
    speed_p.add_argument("results", help="path to a CSV or JSON results file")

    args, unknown = parser.parse_known_args(argv)
    if args.command == "run":
        return _cmd_run(args, unknown)
    if unknown:
        print(f"unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    return _cmd_speedup(args)


if __name__ == "__main__":
    sys.exit(main())
