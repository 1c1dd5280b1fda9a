import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from pintbench.cli import (
    CSV_COLUMNS,
    ConfigError,
    DISCRETIZATION_VARIANT,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    REFERENCE_REFINEMENT,
    ExperimentConfig,
    ResultRow,
    _metadata,
    emit_csv,
    emit_json,
    load_config,
    load_rows,
    main,
    run_experiment,
    speedup_report,
)
from pintbench.parareal import theoretical_speedup
from pintbench.problems import PROBLEMS, GaussianBump, SineMode, Zero, dahlquist

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))
CSV_HEADER = "problem,K,k,variant,iter,boundary,rel_err,theta,t_seq_s,t_par_s,speedup_meas,speedup_theory"


def write_config(path, body):
    path.write_text(body)
    return str(path)


# no problem section, so a --problem override may switch the kind
EXPERIMENT_INI = """
[experiment]
problem = dahlquist
horizon = 2.0
intervals = 4
coarse_steps = 0.1
fine_step = 0.01
variants = classic
max_iters = 2
output = {out}
"""

SMOKE_INI = EXPERIMENT_INI + """
[dahlquist]
lam = -1.0
y0 = 1.0
"""


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv")))
        assert cfg.problem.kind == "dahlquist"
        assert cfg.intervals == 4
        assert cfg.coarse_steps == (0.1,)

    def test_overrides_bare_and_dotted(self, tmp_path):
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv"))
        cfg = load_config(path, ["--dahlquist.lam=-2.5", "--intervals=5"])
        assert cfg.intervals == 5
        assert cfg.problem.lam == -2.5

    def test_malformed_override_rejected(self, tmp_path):
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv"))
        with pytest.raises(ConfigError):
            load_config(path, ["--workers"])

    @pytest.mark.parametrize("kind", list(PROBLEMS))
    def test_problem_section_defaults(self, tmp_path, kind):
        body = f"""
[experiment]
problem = {kind}
horizon = 2.0
intervals = 4
coarse_steps = 0.1
fine_step = 0.01
"""
        path = write_config(tmp_path / "h.ini", body)
        cls = PROBLEMS[kind]
        assert load_config(path).problem == cls()

        # one valid non-default value per field, given as --<kind>.<field>
        expected, overrides = {}, []
        for field in dataclasses.fields(cls):
            default = getattr(cls(), field.name)
            if isinstance(default, bool):
                value, text = not default, str(not default).lower()
            elif isinstance(default, (int, float)):
                value = text = default + 2
            else:
                value, text = SineMode(2), "sine:2"
            expected[field.name] = value
            overrides.append(f"--{kind}.{field.name}={text}")
        assert load_config(path, overrides).problem == cls(**expected)

    def test_problem_keys_fill_params_fields(self, tmp_path):
        path = write_config(tmp_path / "a.ini", EXPERIMENT_INI.format(out=tmp_path / "r.csv"))
        cfg = load_config(path, ["--problem=ale_piston", "--ale_piston.L0=2.0", "--ale_piston.mesh_n=15"])
        assert cfg.problem.L0 == 2.0
        assert cfg.problem.mesh_n == 15

    def test_unknown_problem_rejected(self, tmp_path):
        body = "[experiment]\nproblem = pendulum\n"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "p.ini", body))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_nondividing_coarse_step_rejected(self, tmp_path):
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv"))
        with pytest.raises(ConfigError):
            load_config(path, ["--coarse_steps=0.3"])

    def test_fine_step_must_undercut_coarse(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                problem=dahlquist(), horizon=2.0, intervals=4,
                coarse_steps=(0.1,), fine_step=0.1,
            )

    def test_experiment_section_defaults(self, tmp_path):
        path = write_config(tmp_path / "e.ini", "[experiment]\nproblem = dahlquist\n")
        assert load_config(path) == ExperimentConfig(problem=dahlquist())

        # one valid non-default value per field, given as --<field>
        cases = {
            "horizon": ("4.0", 4.0),
            "intervals": ("10", 10),
            "coarse_steps": ("0.1;0.2", (0.1, 0.2)),
            "fine_step": ("0.01", 0.01),
            "variants": ("least_squares, angle_penalized", ("least_squares", "angle_penalized")),
            "output": ("out.json", "out.json"),
            "theta0": ("1.0", 1.0),
            "max_iters": ("3", 3),
            "tol": ("1e-6", 1e-6),
        }
        assert set(cases) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"problem"}
        cfg = load_config(path, [f"--{name}={text}" for name, (text, _) in cases.items()])
        for name, (_, value) in cases.items():
            assert getattr(cfg, name) == value, name

    @pytest.mark.parametrize("text, expected", [
        ("1", True), ("yes", True), ("TRUE", True), ("On", True),
        ("0", False), ("No", False), ("false", False), ("OFF", False),
    ])
    def test_boolean_words(self, tmp_path, text, expected):
        path = write_config(tmp_path / "a.ini", "[experiment]\nproblem = advection1d\n")
        assert load_config(path, [f"--advection1d.periodic={text}"]).problem.periodic is expected

    @pytest.mark.parametrize("problem, text, expected", [
        ("heat1d", "zero", Zero()), ("heat1d", "rest", Zero()), ("heat1d", "sine", SineMode(1)),
        ("heat1d", "Sine:3", SineMode(3)), ("advection1d", "sine:2", SineMode(2)),
        ("advection1d", "gaussian", GaussianBump()), ("advection1d", "gaussian:0.3", GaussianBump(0.3)),
        ("advection1d", "gaussian:0.3:0.2", GaussianBump(0.3, 0.2)),
    ])
    def test_initial_data_descriptors(self, tmp_path, problem, text, expected):
        path = write_config(tmp_path / "a.ini", f"[experiment]\nproblem = {problem}\n")
        assert load_config(path, [f"--{problem}.init={text}"]).problem.init == expected

    @pytest.mark.parametrize("problem, text, allowed", [
        ("heat1d", "gaussian:0.3", "zero, rest, sine"), ("heat1d", "cosine", "zero, rest, sine"),
        ("advection1d", "zero", "sine, gaussian"),
    ])
    def test_initial_data_outside_the_declared_type(self, tmp_path, problem, text, allowed):
        path = write_config(tmp_path / "a.ini", f"[experiment]\nproblem = {problem}\n")
        with pytest.raises(ConfigError, match=f"expected one of {allowed}$"):
            load_config(path, [f"--{problem}.init={text}"])

    def test_readme_example_loads(self, tmp_path):
        # the README's INI example must stay a config the schema accepts
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        cfg = load_config(write_config(tmp_path / "readme.ini", block))
        assert cfg.problem.kind == "heat1d"

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_loads(self, path):
        # the README states that the refined reference of a shipped config takes 3200-6400 steps
        cfg = load_config(str(path))
        assert 3200 <= cfg.horizon * REFERENCE_REFINEMENT / cfg.fine_step <= 6400

    def test_readme_library_example_runs(self):
        # the README's Python example must run as written and converge within its budget
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        namespace = {}
        exec(block, namespace)
        assert namespace["trace"].iterations_run <= 4


class TestRunExperiment:
    def smoke_config(self, tmp_path):
        return load_config(write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv")))

    def test_row_counts_and_exactness(self, tmp_path):
        rows = run_experiment(self.smoke_config(tmp_path))
        disc = [r for r in rows if r.variant == DISCRETIZATION_VARIANT]
        boundary = [r for r in rows if r.variant == "classic" and r.boundary is not None]
        summary = [r for r in rows if r.speedup_meas is not None]
        assert len(disc) == 4
        assert len(boundary) == 8  # 2 iterations x 4 boundaries
        assert len(summary) == 1
        for row in boundary:
            if row.boundary <= row.iter:
                assert row.rel_err <= 1e-12

    def test_summary_speedup_theory_consistent(self, tmp_path):
        rows = run_experiment(self.smoke_config(tmp_path))
        summary = [r for r in rows if r.speedup_meas is not None][0]
        assert abs(summary.speedup_theory - theoretical_speedup(0.01 / 0.1, summary.iter, 4)) <= 1e-12
        assert summary.speedup_meas > 0

    def test_reproducible_numerical_columns(self, tmp_path):
        cfg = self.smoke_config(tmp_path)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        numeric = lambda rows: [
            (r.problem, r.K, r.k, r.variant, r.iter, r.boundary, r.rel_err, r.theta)
            for r in rows
        ]
        assert numeric(first) == numeric(second)


class TestEmission:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_golden_row_byte_exact(self, tmp_path):
        # frozen by hand from the row definition and the 17-significant-digit
        # float rendering
        row = ResultRow("heat1d", 0.05, 0.005, "classic", 2, 7, 0.001953125, 0.75)
        path = tmp_path / "one.csv"
        emit_csv([row], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == (
            "heat1d,0.050000000000000003,0.0050000000000000001,classic,2,7,0.001953125,0.75,,,,"
        )

    def test_csv_round_trip(self, tmp_path):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 2, 7, 0.001953125, 0.75),
            ResultRow("heat1d", 0.05, 0.005, "classic", 3, None, 1e-9, None,
                      t_seq_s=10.0, t_par_s=5.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        path = tmp_path / "rt.csv"
        emit_csv(rows, str(path))
        assert load_rows(str(path)) == rows

    def test_json_round_trip_with_metadata(self, tmp_path):
        rows = [
            ResultRow("dahlquist", 0.1, 0.01, "least_squares", 1, 3, 0.25, 1.0),
            ResultRow("dahlquist", 0.1, 0.01, "least_squares", 2, None, 0.125, None,
                      t_seq_s=1.5, t_par_s=0.5, speedup_meas=3.0, speedup_theory=3.5),
        ]
        path = tmp_path / "rt.json"
        emit_json(rows, str(path), {"version": "0.1.0", "workers": 4})
        payload = json.loads(path.read_text())
        assert payload["metadata"]["workers"] == 4
        assert load_rows(str(path)) == rows

    def test_every_csv_line_has_column_count(self, tmp_path):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 1, 1, 0.5, 1.0),
            ResultRow("heat1d", 0.05, 0.005, "classic", 1, None, 0.5, None,
                      t_seq_s=1.0, t_par_s=1.0, speedup_meas=1.0, speedup_theory=2.0),
        ]
        path = tmp_path / "cols.csv"
        emit_csv(rows, str(path))
        for line in path.read_text().splitlines():
            assert len(line.split(",")) == 12

    def test_readme_csv_columns(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"CSV columns:\s*```\n(.*?)\n```", readme, flags=re.DOTALL)
        assert block == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("timing", [
        dict(t_seq_s=4.0, t_par_s=2.0, speedup_meas=2.0),
        dict(t_seq_s=4.0, t_par_s=2.0, speedup_theory=5.0),
        dict(speedup_theory=5.0),
    ])
    def test_summary_row_carries_all_timing_columns_or_none(self, timing):
        with pytest.raises(ValueError, match="summary row needs all of"):
            ResultRow("heat1d", 0.05, 0.005, "classic", 2, None, 1e-8, None, **timing)


class TestSpeedupReport:
    def test_synthetic_speedup_two(self):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 3, None, 1e-9, None,
                      t_seq_s=10.0, t_par_s=5.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        text = speedup_report(rows)
        assert "measured=2.000" in text
        assert "model(one worker per window)=4.000" in text
        assert "efficiency=0.500" in text

    def test_single_iteration_best_k(self):
        rows = [
            ResultRow("heat1d", 0.0, 0.005, DISCRETIZATION_VARIANT, 0, 20, 1e-6, None),
            ResultRow("heat1d", 0.05, 0.005, "classic", 1, None, 1e-8, None,
                      t_seq_s=4.0, t_par_s=2.0, speedup_meas=2.0, speedup_theory=5.0),
        ]
        text = speedup_report(rows)
        assert "efficiency=" in text
        assert "best K: 0.05" in text

    def test_accuracy_gate_in_recommendation(self):
        rows = [
            ResultRow("heat1d", 0.0, 0.005, DISCRETIZATION_VARIANT, 0, 20, 1e-6, None),
            ResultRow("heat1d", 0.1, 0.005, "classic", 1, None, 1e-3, None,
                      t_seq_s=4.0, t_par_s=1.0, speedup_meas=4.0, speedup_theory=6.0),
            ResultRow("heat1d", 0.05, 0.005, "classic", 2, None, 1e-8, None,
                      t_seq_s=4.0, t_par_s=2.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        text = speedup_report(rows)
        # the faster run misses the accuracy gate, the slower accurate one wins
        assert "best K: 0.05" in text

    def test_no_summaries(self):
        assert "no summary rows" in speedup_report([])


class TestMainEntryPoint:
    def test_run_writes_output(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path]) == EXIT_OK
        assert out.exists()
        assert "best K" in capsys.readouterr().out

    def test_run_json_format(self, tmp_path):
        out = tmp_path / "res.json"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["metadata"]["config"]["problem"] == "dahlquist"

    def test_json_metadata_records_the_config_without_a_worker_count(self, tmp_path):
        out = tmp_path / "res.json"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path]) == EXIT_OK
        metadata = json.loads(out.read_text())["metadata"]
        # the engine decides the thread count, so the metadata predicts none
        assert set(metadata) == {"version", "timestamp", "reference_refinement", "newton", "config", "problem"}
        assert metadata["reference_refinement"] == REFERENCE_REFINEMENT == 4
        # the refinement is no experiment field, so the config records none
        assert set(metadata["config"]) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"output"}

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_json_metadata_problem_section_rebuilds_the_problem(self, tmp_path, path):
        cfg = load_config(str(path))
        metadata = json.loads(json.dumps(_metadata(cfg)))
        kind = metadata["config"]["problem"]
        # every field, defaults too, so the section alone rebuilds the problem
        assert set(metadata["problem"]) == {f.name.lower() for f in dataclasses.fields(PROBLEMS[kind])}
        section = "".join(f"{key} = {value}\n" for key, value in metadata["problem"].items())
        body = f"[experiment]\nproblem = {kind}\n[{kind}]\n{section}"
        rebuilt = load_config(write_config(tmp_path / "rebuilt.ini", body))
        assert rebuilt.problem == cfg.problem
        # where the step's inverse of I - k*theta*J is formed
        assert metadata["newton"]["frozen"] == {"heat1d": "run", "advection1d": "run", "ale_piston": "step"}[kind]

    def test_percent_in_output_path_is_written(self, tmp_path):
        # no config interpolates, so a % in a value, in the file or an override, is the character itself
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "a%b.csv"))
        for override, out in (([], "a%b.csv"), ([f"--output={tmp_path / '100%.csv'}"], "100%.csv")):
            assert main(["run", path, *override]) == EXIT_OK
            assert (tmp_path / out).read_text().startswith(CSV_HEADER + "\n")

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(SMOKE_INI.format(out=tmp_path / "r.csv").encode("utf-8") + b"# caf\xe9\n")
        assert main(["run", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: cannot read config" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "r.csv").exists()

    def test_invalid_config_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", EXPERIMENT_INI.format(out=out))
        # checked first: a config past the step ceiling that loaded would start a run that never ends
        with pytest.raises(ConfigError, match=r"would take 4e\+15 steps, more than 1000000;"):
            load_config(path, ["--horizon=1e6", "--fine_step=1e-9", "--coarse_steps=1e-8"])
        bad = ["--coarse_steps=0.3", "--fine_step=nan", "--horizon=inf", "--tol=nan",
               "--theta0=20", "--theta0=-1", "--dahlquist.lam=nan", "--dahlquist.y0=inf",
               "--problem=heat1d --heat1d.init=gaussian:0.3",
               "--horizon=1e300 --fine_step=1e-300 --coarse_steps=1e-299",
               "--horizon=1e6 --fine_step=1e-9 --coarse_steps=1e-8"]
        for override in bad:
            assert main(["run", path, *override.split()]) == EXIT_CONFIG, override
            assert not out.exists()
            captured = capsys.readouterr()
            assert "config error" in captured.err, override
            assert captured.out == ""

    def test_non_numeric_problem_value_exits_two(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path, "--dahlquist.lam=abc"]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_unknown_keys_exit_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        body = """
[experiment]
problem = heat1d
horizon = 2.0
intervals = 4
coarse_steps = 0.1
fine_step = 0.01
output = {out}

[heat1d]
mesh_n = 15
""".format(out=out)
        path = write_config(tmp_path / "h.ini", body)
        # the reference refinement is the constant REFERENCE_REFINEMENT, not a key, and the engine,
        # not the config, decides the thread count
        for override, unknown, valid in (("--heat1d.nuu=5", "nuu", "nu"), ("--horizn=1.0", "horizn", "horizon"),
                                         ("--reference_fine_factor=4", "reference_fine_factor", "horizon"),
                                         ("--workers=2", "workers", "horizon")):
            assert main(["run", path, override]) == EXIT_CONFIG, override
            assert not out.exists()
            captured = capsys.readouterr()
            message, _, listed = captured.err.partition("valid keys: ")
            assert "config error" in message and unknown in message
            assert valid in listed.split(", ")
            assert captured.out == ""

    @pytest.mark.parametrize("override, stray", [
        ("--heatld.mesh_n=7", "[heatld]"),
        ("--Heat1D.mesh_n=7", "[Heat1D]"),  # section names are case-sensitive
        ("--advection1d.periodic=false", "[advection1d]"),  # another problem's section
    ])
    def test_unknown_section_exits_two(self, capsys, override, stray):
        heat = next(path for path in CONFIGS if path.name == "heat1d.ini")
        with pytest.raises(ConfigError, match=re.escape(f"unknown section(s) {stray}; "
                                                        "valid sections: [experiment], [heat1d]")):
            load_config(str(heat), [override])
        assert main(["run", str(heat), override]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error" in captured.err and stray in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("entry", ["mesh_n = 7", "variants = classic"])
    def test_default_section_in_file_named(self, tmp_path, entry):
        # configparser would copy its keys into every section and blame one of those
        heat = next(path for path in CONFIGS if path.name == "heat1d.ini")
        path = write_config(tmp_path / "d.ini", f"[DEFAULT]\n{entry}\n\n" + heat.read_text())
        with pytest.raises(ConfigError, match=re.escape("unknown section(s) [DEFAULT]; "
                                                        "valid sections: [experiment], [heat1d]")):
            load_config(path)

    def test_default_section_override_exits_two(self, capsys):
        heat = next(path for path in CONFIGS if path.name == "heat1d.ini")
        assert main(["run", str(heat), "--DEFAULT.mesh_n=7"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: unknown section(s) [DEFAULT]" in captured.err
        assert captured.out == ""

    def test_unknown_section_in_file_rejected(self, tmp_path):
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv") + "[dahlquist2]\nlam = -2.0\n")
        with pytest.raises(ConfigError, match=r"unknown section\(s\) \[dahlquist2\]"):
            load_config(path)

    @pytest.mark.parametrize("overrides", [
        ["--problem=advection1d", "--advection1d.periodic=ture"],
        ["--problem=heat1d", "--heat1d.init=sine:2:junk"],
        ["--problem=heat1d", "--heat1d.init=zero:7"],
        ["--problem=heat1d", "--heat1d.init=gaussian:0.3:0.2:1"],
        ["--problem=heat1d", "--heat1d.init=cosine:1"],
        ["--workers=2"],  # no experiment key: every theta run takes one thread
    ])
    def test_bad_value_exits_two_without_output(self, tmp_path, capsys, overrides):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", EXPERIMENT_INI.format(out=out))
        assert main(["run", path, *overrides]) == EXIT_CONFIG
        assert not out.exists()
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_verbose_prints_step_counters_of_a_linear_run(self, tmp_path, capsys):
        # a linear step solves no Newton system, so the lines count steps
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path, "--verbose"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "Newton" not in text, text
        sequential = re.search(r"s, (\d+) steps \([\d.]+ us each\)$", text, flags=re.MULTILINE)
        parareal = re.search(r"2 iterations, coarse steps (\d+), fine steps (\d+), t_par\(to iter \d\)", text)
        assert re.search(r"t_par\(to iter \d\) [\d.]+ s, 1 thread\(s\)$", text, flags=re.MULTILINE), text
        assert sequential and parareal, text
        assert all(int(n) > 0 for n in sequential.groups() + parareal.groups())
        assert f"wrote 13 rows to {out}" in text

    def test_verbose_prints_newton_counters_of_a_nonlinear_run(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        body = EXPERIMENT_INI.format(out=out) + "[ale_piston]\nmesh_n = 7\n"
        path = write_config(tmp_path / "a.ini", body)
        assert main(["run", path, "--problem=ale_piston", "--horizon=0.4", "--coarse_steps=0.1", "--fine_step=0.05",
                     "--verbose"]) == EXIT_OK
        text = capsys.readouterr().out
        sequential = re.search(r"s, (\d+) steps \([\d.]+ us each\), (\d+) Newton iterations$", text, flags=re.MULTILINE)
        parareal = re.search(r"\d iterations, coarse Newton (\d+), fine Newton (\d+), t_par\(to iter \d\)", text)
        assert sequential and parareal, text
        assert all(int(n) > 0 for n in sequential.groups() + parareal.groups())

    def test_missing_config_exits_two(self, capsys):
        assert main(["run", "/no/such/config.ini"]) == EXIT_CONFIG

    def test_numerical_failure_exits_three_with_partial_file(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        body = """
[experiment]
problem = ale_piston
horizon = 2.0
intervals = 4
coarse_steps = 0.25
fine_step = 0.05
max_iters = 2
output = {out}

[ale_piston]
mesh_n = 7
m_s = 0.01
kappa = 1.0
v_in = 5.0
adv = 5.0
""".format(out=out)
        path = write_config(tmp_path / "fail.ini", body)
        assert main(["run", path]) == EXIT_NUMERIC
        assert not out.exists()
        assert (tmp_path / "res.csv.partial").exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_large_boundary_value_runs_to_completion(self, tmp_path):
        # states near 1e6 leave a residual above linalg.TOL from rounding
        # alone; a linear step takes the scheme's closed form and tests none
        out = tmp_path / "res.csv"
        body = """
[experiment]
problem = heat1d
horizon = 0.4
intervals = 4
coarse_steps = 0.1
fine_step = 0.005
output = {out}

[heat1d]
mesh_n = 63
left_bc = 1e6
""".format(out=out)
        assert main(["run", write_config(tmp_path / "large.ini", body)]) == EXIT_OK
        assert load_rows(str(out))[-1].t_par_s is not None
        assert not (tmp_path / "res.csv.partial").exists()

    def test_singular_operator_exits_three_with_header_only_partial_file(self, tmp_path, capsys):
        # 1 - k*theta*lam vanishes at k = 0.01, theta = 1/2, so building the fine propagator fails
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", EXPERIMENT_INI.format(out=out) + "[dahlquist]\nlam = 200\n")
        assert main(["run", path]) == EXIT_NUMERIC
        assert not out.exists()
        assert (tmp_path / "res.csv.partial").read_text() == CSV_HEADER + "\n"
        err = capsys.readouterr().err
        assert "numerical failure" in err and "singular iteration matrix at k=0.01" in err

    def test_speedup_subcommand(self, tmp_path, capsys):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 3, None, 1e-9, None,
                      t_seq_s=10.0, t_par_s=5.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        assert main(["speedup", str(path)]) == EXIT_OK
        assert "measured=2.000" in capsys.readouterr().out

    # each edit spoils one row of a good file: (suffix, row index, edit, where the message points)
    @pytest.mark.parametrize("suffix, index, edit, where", [
        (".csv", 1, lambda line: line + ",1", "line 3"),
        (".csv", 2, lambda line: line.rsplit(",", 2)[0], "line 4"),
        (".csv", 2, lambda line: line.rsplit(",", 1)[0] + ",", "line 4"),
        (".json", 2, lambda rec: {("speedup_measured" if key == "speedup_theory" else key): value
                                  for key, value in rec.items()}, "row 3"),
        (".json", 1, lambda rec: {**rec, "iter": 2.7}, "row 2"),
        (".json", 0, lambda rec: list(rec.values()), "row 1"),
        (".csv", 2, lambda line: ",".join(
            {6: "nan", 10: "nan", 11: "inf"}.get(i, v) for i, v in enumerate(line.split(","))), "line 4"),
        (".csv", 1, lambda line: ",".join("-inf" if i == 7 else v for i, v in enumerate(line.split(","))),
         "line 3"),
        (".json", 0, lambda rec: {**rec, "K": math.inf}, "row 1"),
        (".json", 1, lambda rec: {**rec, "k": math.nan}, "row 2"),
        (".json", 2, lambda rec: {**rec, "t_seq_s": math.nan}, "row 3"),
        (".json", 2, lambda rec: {**rec, "t_par_s": -math.inf}, "row 3"),
        (".csv", 2, lambda line: ",".join(
            {1: "-0.1", 2: "-0.005", 4: "-2", 11: "-4"}.get(i, v) for i, v in enumerate(line.split(","))), "line 4"),
        (".json", 0, lambda rec: {**rec, "k": 0.0}, "row 1"),
        (".json", 1, lambda rec: {**rec, "iter": -1}, "row 2"),
        (".json", 0, lambda rec: {**rec, "boundary": 0}, "row 1"),
        (".json", 1, lambda rec: {**rec, "theta": 7.5}, "row 2"),
        (".json", 2, lambda rec: {**rec, "t_seq_s": 0.0}, "row 3"),
        (".json", 2, lambda rec: {**rec, "t_par_s": -2.0}, "row 3"),
        (".json", 2, lambda rec: {**rec, "speedup_theory": 0.0}, "row 3"),
    ], ids=["extra_field", "summary_missing_two_fields", "summary_empty_speedup_theory",
            "misspelled_key", "fractional_iter", "row_not_an_object", "summary_nan_inf",
            "theta_minus_inf", "K_inf", "k_nan", "t_seq_s_nan", "t_par_s_minus_inf", "summary_negative_K",
            "k_zero", "iter_negative", "boundary_zero", "theta_7_5", "t_seq_s_zero", "t_par_s_negative",
            "speedup_theory_zero"])
    def test_malformed_results_exit_two(self, tmp_path, capsys, suffix, index, edit, where):
        rows = [
            ResultRow("heat1d", 0.0, 0.005, DISCRETIZATION_VARIANT, 0, 4, 1e-6, None),
            ResultRow("heat1d", 0.1, 0.005, "classic", 2, 4, 1e-8, 1.0),
            ResultRow("heat1d", 0.1, 0.005, "classic", 2, None, 1e-8, None,
                      t_seq_s=4.0, t_par_s=2.0, speedup_meas=2.0, speedup_theory=5.0),
        ]
        path = tmp_path / f"rows{suffix}"
        if suffix == ".csv":
            emit_csv(rows, str(path))
            lines = path.read_text().splitlines()
            lines[index + 1] = edit(lines[index + 1])
            path.write_text("\n".join(lines) + "\n")
        else:
            emit_json(rows, str(path))
            payload = json.loads(path.read_text())
            payload["rows"][index] = edit(payload["rows"][index])
            path.write_text(json.dumps(payload))
        assert main(["speedup", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot parse results" in captured.err and where in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("payload", [[], {"metadata": {}}, {"rows": 3}])
    def test_json_without_rows_list_exits_two(self, tmp_path, capsys, payload):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps(payload))
        assert main(["speedup", str(path)]) == EXIT_CONFIG
        assert "cannot parse results" in capsys.readouterr().err

    def test_unknown_arguments_rejected(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.csv"
        emit_csv([], str(rows_path))
        assert main(["speedup", str(rows_path), "--bogus=1"]) == EXIT_CONFIG

    def test_unwritable_output_exits_four(self, tmp_path, capsys, monkeypatch):
        # the output path is checked before any solve runs
        from pintbench import cli
        from pintbench.cli import EXIT_IO

        solves = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: solves.append(1))
        out = tmp_path / "missing_dir" / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        for override in ([], ["--output="], [f"--output={tmp_path}"]):
            assert main(["run", path, *override]) == EXIT_IO, override
            assert "I/O error" in capsys.readouterr().err
        assert solves == []
        assert list(tmp_path.iterdir()) == [tmp_path / "a.ini"]
