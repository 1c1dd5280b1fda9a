"""Benchmark harness: experiment configs, timed runs, CSV/JSON emission.

Experiments are described by INI-style config files: an ``[experiment]``
section whose keys are the fields of ``ExperimentConfig``, and a
``[<kind>]`` section whose keys are the fields of the chosen problem
class. Every key can be overridden on the command line with
``--key=value`` or ``--section.key=value``. The dataclasses are the one
schema: a value is converted by its field's declared type, a key left
out keeps the field's default, and a key that names no field, or a
section other than these two, is a config error, so a misspelled
override never runs with the defaults.
Results go to the ``output`` path, as JSON when it ends in ``.json``
and as CSV otherwise. The harness times the sequential fine solve, runs
the parallel-in-time iteration per coarse step and variant, and emits
one row per (iteration, boundary), per-boundary discretization error
rows (against a reference refined ``REFERENCE_REFINEMENT`` times), and
one summary row per (coarse step, variant) with measured and modelled
speedup.

Exit codes: 0 success, 2 config error or malformed results file, 3
numerical failure (a partial results file is written), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import errno
import json
import os
import re
import sys
import time
import typing
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .integrators import ThetaSettings, TimeStepError, _split_window, make_propagator
from .linalg import MAX_ITERS, TOL, NumericBreakdown
from .parareal import (
    VARIANTS,
    PararealConfig,
    PararealError,
    boundary_error,
    run_parareal,
    sequential_solve,
    theoretical_speedup,
)
from .problems import (
    PROBLEMS,
    GaussianBump,
    Problem,
    SineMode,
    Zero,
    initial_state,
)
from .state import _require_fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# the discretization floor is measured against a sequential solve at
# fine_step / REFERENCE_REFINEMENT on the same mesh
REFERENCE_REFINEMENT = 4

# the most steps one solve of a run may take; the longest is the refined
# reference, horizon * REFERENCE_REFINEMENT / fine_step, and the shipped
# configs take 3200-6400, so a config past this would not finish
MAX_STEPS = 10**6

# rows carrying the dashed reference line use this sentinel variant
DISCRETIZATION_VARIANT = "discretization"

# what a run raises on numerical failure: a step reports a non-finite linear step, or wraps a Newton or
# mesh failure, in TimeStepError, the engine wraps a propagator's in PararealError, and make_propagator
# raises NumericBreakdown for a step map whose iteration matrix is singular
_NUMERIC_FAILURES = (NumericBreakdown, TimeStepError, PararealError)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ResultRow:
    """One results row: the fields, in order, are the CSV columns and the JSON keys.

    A summary row carries all four timing fields, every other row none.
    ``problem`` is a problem kind and ``variant`` a Parareal variant or
    ``DISCRETIZATION_VARIANT``, so both write to CSV unquoted. Every number
    field that is set follows the number rule of ``state._require_fields``
    (a count is an integer and a float finite, bools excluded) and lies in
    range: a discretization row has ``K = 0`` and ``iter = 0``.
    """

    problem: str
    K: float
    k: float
    variant: str
    iter: int
    boundary: Optional[int]
    rel_err: float
    theta: Optional[float]
    t_seq_s: Optional[float] = None
    t_par_s: Optional[float] = None
    speedup_meas: Optional[float] = None
    speedup_theory: Optional[float] = None

    def __post_init__(self):
        _require_fields(self)
        in_range = {"problem": self.problem in PROBLEMS, "variant": self.variant in (*VARIANTS, DISCRETIZATION_VARIANT),
                    "K": self.K >= 0.0, "k": self.k > 0.0, "iter": self.iter >= 0, "rel_err": self.rel_err >= 0.0,
                    "boundary": self.boundary is None or self.boundary >= 1,
                    "theta": self.theta is None or 0.0 <= self.theta <= 1.0}
        for name, ok in in_range.items():
            if not ok:
                raise ValueError(f"{name} out of range, got {getattr(self, name)!r}")
        timing = [self.t_seq_s, self.t_par_s, self.speedup_meas, self.speedup_theory]
        if timing.count(None) not in (0, len(timing)):
            raise ValueError("a summary row needs all of t_seq_s, t_par_s, speedup_meas and speedup_theory")
        if any(value is not None and value <= 0.0 for value in timing):
            raise ValueError("timings and speedups must be positive")


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))
_ROW_TYPES = typing.get_type_hints(ResultRow)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the fields are the ``[experiment]`` keys and carry their only defaults.

    Construction validates the config by building the library objects a
    run uses (``parareal`` and ``theta_settings``, and the window split of
    every step), so an invalid config raises ``ConfigError`` before any
    solve starts, and so does one whose refined reference would take more
    than ``MAX_STEPS`` steps. ``max_iters = 0`` picks ``min(8, intervals)``.
    """

    problem: Problem
    horizon: float = 8.0
    intervals: int = 20
    coarse_steps: tuple[float, ...] = (0.05,)
    fine_step: float = 0.005
    variants: tuple[str, ...] = ("classic",)
    output: str = "results.csv"
    theta0: float = 0.0
    max_iters: int = 0
    tol: float = 1e-12

    def __post_init__(self):
        # the steps, theta0 and tol are checked in range by the library objects built below
        try:
            _require_fields(self)
            if self.horizon <= 0.0:
                raise ValueError(f"horizon must be positive, got {self.horizon!r}")
            if not self.coarse_steps or not self.variants:
                raise ValueError("need at least one coarse step and one variant")
            for variant in self.variants:
                self.parareal(variant)
            # every step a run takes, the refined reference's too
            for step in (*self.coarse_steps, self.fine_step, self.fine_step / REFERENCE_REFINEMENT):
                self.theta_settings(step)
            for step in (*self.coarse_steps, self.fine_step):
                _split_window(self.horizon / self.intervals, step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        steps = self.horizon * REFERENCE_REFINEMENT / self.fine_step
        if steps > MAX_STEPS:
            raise ConfigError(f"the reference solve would take {steps:.3g} steps, more than {MAX_STEPS}; "
                              "raise fine_step or lower horizon")
        if self.fine_step >= min(self.coarse_steps):
            raise ConfigError("fine_step must be smaller than every coarse step")

    def parareal(self, variant: str) -> PararealConfig:
        return PararealConfig(
            intervals=self.intervals,
            max_iters=self.max_iters or min(8, self.intervals),
            tol=self.tol,
            variant=variant,
        )

    def theta_settings(self, step: float) -> ThetaSettings:
        return ThetaSettings(step=step, theta0=self.theta0)


# --------------------------------------------------------------------------
# config parsing

_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
_INITIAL_DATA = {"zero": Zero, "rest": Zero, "sine": SineMode, "gaussian": GaussianBump}


def _initial_data(text: str, allowed: tuple):
    """``<name>[:<field>...]`` naming one of the ``allowed`` descriptors, the fields in declaration order."""
    names = [name for name, cls in _INITIAL_DATA.items() if cls in allowed]
    name, *values = text.lower().split(":")
    if name not in names:
        raise ConfigError(f"initial data {text!r} not allowed here; expected one of {', '.join(names)}")
    cls = _INITIAL_DATA[name]
    params = dataclasses.fields(cls)
    if len(values) > len(params):
        raise ConfigError(f"initial data {text!r}: {name} takes at most {len(params)} field(s)")
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _coerce(hints[f.name], value) for f, value in zip(params, values)})


def _coerce(hint, value):
    """Convert a config value, or a results value from CSV text or JSON, to a field's declared type.

    An ``Optional`` field reads empty text or a JSON null as None. A JSON
    number is read from its text, so ``2.7`` is no int.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        if value is None or (isinstance(value, str) and not value.strip()):
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    if not isinstance(value, str):
        if hint is str or type(value) not in (int, float):
            raise ValueError(f"{value!r} is not a {hint.__name__}")
        value = repr(value)
    text = value.strip()
    if hint is bool:
        if text.lower() not in _BOOLEANS:
            raise ConfigError(f"{text!r} is not a boolean; expected one of {', '.join(_BOOLEANS)}")
        return _BOOLEANS[text.lower()]
    if hint in (int, float, str):
        return hint(text)
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(item(v.strip()) for v in text.replace(";", ",").split(",") if v.strip())
    # an initial-data field declares the descriptors it accepts, one class or a Union of them
    return _initial_data(text, typing.get_args(hint) or (hint,))


def _build(cls, section_name: str, section, **given):
    """Instantiate the dataclass ``cls`` from an INI section, plus the ready-made fields ``given``.

    configparser lowercases keys, so a key matches the field whose
    lowercased name it is; a key that names no field is rejected, a field
    the section leaves out keeps its dataclass default.
    """
    names = {f.name.lower(): f.name for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(section) - set(names))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(unknown)} in [{section_name}]; valid keys: {', '.join(sorted(names))}"
        )
    hints = typing.get_type_hints(cls)
    try:
        kwargs = {names[key]: _coerce(hints[names[key]], section[key]) for key in section if names[key] not in given}
        return cls(**kwargs, **given)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value in [{section_name}]: {exc}") from exc


_OVERRIDE_RE = re.compile(r"^--([A-Za-z0-9_.\-]+)=(.*)$")


def load_config(path: str, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read an experiment config file and apply ``--key=value`` overrides."""
    # no config interpolates, so a % in a value (an output path, say) is literal; no header
    # can name the section "", so [DEFAULT] is a plain section that the stray check names
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
    if not parser.has_section("experiment"):
        raise ConfigError("config must contain an [experiment] section")
    experiment = parser["experiment"]
    kind = experiment.get("problem", "").strip().lower()
    if kind not in PROBLEMS:
        raise ConfigError(f"[experiment] problem must be one of {', '.join(PROBLEMS)}, got {kind!r}")
    stray = [name for name in parser.sections() if name not in ("experiment", kind)]
    if stray:
        raise ConfigError(f"unknown section(s) {', '.join(f'[{name}]' for name in stray)}; "
                          f"valid sections: [experiment], [{kind}]")
    problem = _build(PROBLEMS[kind], kind, parser[kind] if parser.has_section(kind) else {})
    return _build(ExperimentConfig, "experiment", experiment, problem=problem)


# --------------------------------------------------------------------------
# experiment driver


def run_experiment(cfg: ExperimentConfig, verbose: bool = False, collect: Optional[list] = None) -> list:
    """Run the full (coarse step x variant) matrix and return result rows.

    ``collect`` (when given) receives rows incrementally so callers can
    write partial results if a later stage fails numerically.
    """
    rows = collect if collect is not None else []
    problem = cfg.problem
    L = cfg.intervals
    k = cfg.fine_step
    s0 = initial_state(problem)
    t_grid = [cfg.horizon * l / L for l in range(L + 1)]
    t_grid[-1] = cfg.horizon

    fine = make_propagator(problem, cfg.theta_settings(k))
    if verbose:
        print(f"[pint-bench] sequential fine solve (step {k:g}) ...", flush=True)
    t0 = time.perf_counter()
    seq = sequential_solve(fine, s0, t_grid)
    t_seq = time.perf_counter() - t0
    if verbose:
        per_step = t_seq / max(fine.steps_taken, 1)
        # a linear step solves no Newton system, so a linear run counts its steps alone
        newton = "" if problem.linear else f", {fine.newton_iterations} Newton iterations"
        print(f"[pint-bench]   {t_seq:.3f} s, {fine.steps_taken} steps ({per_step * 1e6:.2f} us each){newton}")

    ref_prop = make_propagator(problem, cfg.theta_settings(k / REFERENCE_REFINEMENT))
    reference = sequential_solve(ref_prop, s0, t_grid)
    disc = boundary_error(seq, reference)
    disc_final = disc[L]
    for l in range(1, L + 1):
        rows.append(ResultRow(problem.kind, 0.0, k, DISCRETIZATION_VARIANT, 0, l, disc[l], None))

    for K in cfg.coarse_steps:
        for variant in cfg.variants:
            coarse = make_propagator(problem, cfg.theta_settings(K))
            fine_run = make_propagator(problem, cfg.theta_settings(k))
            if verbose:
                print(f"[pint-bench] parareal K={K:g} variant={variant} ...", flush=True)
            _, trace = run_parareal(coarse, fine_run, s0, cfg.horizon, cfg.parareal(variant), oracle=seq)
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
            rows.append(
                ResultRow(
                    problem.kind, K, k, variant, qualifying, None,
                    trace.boundary_errors[qualifying - 1][L - 1], None,
                    t_seq_s=t_seq, t_par_s=t_par,
                    speedup_meas=t_seq / t_par,
                    speedup_theory=theoretical_speedup(k / K, qualifying, L),
                )
            )
            if verbose:
                if problem.linear:
                    work = f"coarse steps {coarse.steps_taken}, fine steps {fine_run.steps_taken}"
                else:
                    work = f"coarse Newton {coarse.newton_iterations}, fine Newton {fine_run.newton_iterations}"
                print(
                    f"[pint-bench]   {trace.iterations_run} iterations, {work}, "
                    f"t_par(to iter {qualifying}) {t_par:.3f} s, "
                    f"{trace.workers} thread(s)"
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
            fh.write(",".join(_fmt(v) for v in dataclasses.astuple(row)) + "\n")


def emit_json(rows: Sequence[ResultRow], path: str, metadata: Optional[dict] = None) -> None:
    payload = {
        "metadata": metadata or {},
        "rows": [dataclasses.asdict(row) for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _row_from_record(record: dict) -> ResultRow:
    """Build a row from its values keyed by column, each read by its field's type."""
    if not isinstance(record, dict):
        raise TypeError(f"{record!r} is not an object keyed by column")
    unknown = sorted(set(record) - set(CSV_COLUMNS))
    if unknown:
        raise ValueError(f"unknown column(s) {', '.join(unknown)}")
    return ResultRow(**{name: _coerce(_ROW_TYPES[name], value) for name, value in record.items()})


def load_rows(path: str) -> list:
    """Parse rows back from a CSV or JSON results file; a row with an unknown or missing
    column, a value its field cannot take, or a CSV field count not the header's raises
    ``ConfigError`` naming its line or row."""
    with open(path) as fh:
        if path.endswith(".json"):
            records = [(f"row {n}", record) for n, record in enumerate(json.load(fh)["rows"], 1)]
        else:
            if tuple(fh.readline().strip().split(",")) != CSV_COLUMNS:
                raise ConfigError(f"unexpected CSV header in {path!r}")
            records = []
            for n, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                values = line.split(",")
                if len(values) != len(CSV_COLUMNS):
                    raise ConfigError(f"{path!r} line {n}: {len(values)} fields, the header has {len(CSV_COLUMNS)}")
                records.append((f"line {n}", dict(zip(CSV_COLUMNS, values))))
    rows = []
    for where, record in records:
        try:
            rows.append(_row_from_record(record))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path!r} {where}: {exc}") from exc
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
        efficiency = row.speedup_meas / row.speedup_theory
        accurate = disc_final is not None and row.rel_err <= disc_final[1]
        marker = "accurate" if accurate else "above discretization error"
        lines.append(
            f"K={row.K:g} variant={row.variant}: iterations={row.iter} "
            f"measured={row.speedup_meas:.3f} model(one worker per window)={row.speedup_theory:.3f} "
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


def _config_text(value) -> str:
    """A problem field's value as the text its config key takes, so ``load_config`` reads it back."""
    if isinstance(value, bool):
        return str(value).lower()
    if dataclasses.is_dataclass(value):  # initial data, ``<name>[:<field>...]``
        name = next(name for name, cls in _INITIAL_DATA.items() if cls is type(value))
        return ":".join([name, *(_config_text(getattr(value, f.name)) for f in dataclasses.fields(value))])
    return str(value)


def _metadata(cfg: ExperimentConfig) -> dict:
    # the experiment fields, less the output path, with the problem by kind and max_iters as run
    config = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "output"}
    config.update(problem=cfg.problem.kind, coarse_steps=list(cfg.coarse_steps), variants=list(cfg.variants),
                  max_iters=cfg.parareal(cfg.variants[0]).max_iters)
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "reference_refinement": REFERENCE_REFINEMENT,
        "newton": {
            # nonlinear steps only: a linear step is the scheme's closed form and tests no residual
            "abs_tol": TOL,
            "max_iters": MAX_ITERS,
            # the integrator differentiates each problem's rhs analytically, and
            # every step uses one inverse of I - k*theta*J, formed once per run
            # for a linear problem, inside its step map, and at each step's start otherwise
            "jacobian": "analytic",
            "frozen": "run" if cfg.problem.linear else "step",
        },
        "config": config,
        # the [<kind>] section that rebuilds the run's problem
        "problem": {f.name.lower(): _config_text(getattr(cfg.problem, f.name))
                    for f in dataclasses.fields(cfg.problem)},
    }


def _check_writable(path: str) -> None:
    """Raise ``OSError`` unless a file could be written at ``path``; creates nothing."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty output path")
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", parent)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, "output path is not writable", path)


def _cmd_run(args, overrides) -> int:
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # fail before the solves, not after them
        _check_writable(cfg.output)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    def emit(rows, path):
        # the .json extension of the output selects JSON, for the partial file too
        if cfg.output.endswith(".json"):
            emit_json(rows, path, _metadata(cfg))
        else:
            emit_csv(rows, path)

    partial: list = []
    try:
        rows = run_experiment(cfg, verbose=args.verbose, collect=partial)
    except _NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        try:
            path = cfg.output + ".partial"
            emit(partial, path)
            print(f"partial results written to {path}", file=sys.stderr)
        except OSError as io_exc:
            print(f"could not write partial results: {io_exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        emit(rows, cfg.output)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.verbose:
        print(f"[pint-bench] wrote {len(rows)} rows to {cfg.output}")
    print(speedup_report(rows), end="")
    return EXIT_OK


def _cmd_speedup(args) -> int:
    try:
        rows = load_rows(args.results)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        # a malformed row arrives as ConfigError; the rest is a JSON file without a rows list
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
