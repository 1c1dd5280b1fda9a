import dataclasses
import json
import re
from pathlib import Path

import pytest

from pintbench.cli import (
    ConfigError,
    DISCRETIZATION_VARIANT,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ExperimentConfig,
    ResultRow,
    emit_csv,
    emit_json,
    load_config,
    load_rows,
    main,
    run_experiment,
    speedup_report,
)
from pintbench.parareal import SpeedupModel, theoretical_speedup
from pintbench.problems import PROBLEMS, GaussianBump, SineMode, Zero, dahlquist

CSV_HEADER = "problem,K,k,variant,iter,boundary,rel_err,theta,t_seq_s,t_par_s,speedup_meas,speedup_theory"


def write_config(path, body):
    path.write_text(body)
    return str(path)


SMOKE_INI = """
[experiment]
problem = dahlquist
horizon = 2.0
intervals = 4
coarse_steps = 0.1
fine_step = 0.01
variants = classic
workers = 2
max_iters = 2
output = {out}

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
        assert cfg.workers == 2

    def test_overrides_bare_and_dotted(self, tmp_path):
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv"))
        cfg = load_config(path, ["--workers=5", "--dahlquist.lam=-2.5", "--intervals=5"])
        assert cfg.workers == 5
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
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=tmp_path / "r.csv"))
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

    def test_env_default_workers(self, tmp_path, monkeypatch):
        body = """
[experiment]
problem = dahlquist
horizon = 2.0
intervals = 4
coarse_steps = 0.1
fine_step = 0.01
"""
        monkeypatch.setenv("PINT_BENCH_WORKERS", "7")
        path = write_config(tmp_path / "a.ini", body)
        assert load_config(path).workers == 7
        assert load_config(path, ["--workers=3"]).workers == 3

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
            "workers": ("3", 3),
            "reference_fine_factor": ("2", 2),
            "output": ("out.json", "out.json"),
            "theta0": ("1.0", 1.0),
            "max_iters": ("3", 3),
            "tol": ("1e-6", 1e-6),
            "scheduler": ("Serial", "serial"),
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

    @pytest.mark.parametrize("text, expected", [
        ("zero", Zero()), ("rest", Zero()), ("sine", SineMode(1)), ("Sine:3", SineMode(3)),
        ("gaussian", GaussianBump()), ("gaussian:0.3", GaussianBump(0.3)),
        ("gaussian:0.3:0.2", GaussianBump(0.3, 0.2)),
    ])
    def test_initial_data_descriptors(self, tmp_path, text, expected):
        path = write_config(tmp_path / "a.ini", "[experiment]\nproblem = heat1d\n")
        assert load_config(path, [f"--heat1d.init={text}"]).problem.init == expected

    def test_readme_example_loads(self, tmp_path):
        # the README's INI example must stay a config the schema accepts
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        cfg = load_config(write_config(tmp_path / "readme.ini", block))
        assert cfg.problem.kind == "heat1d"


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
            if row.boundary <= row.iteration:
                assert row.rel_err <= 1e-12

    def test_summary_speedup_theory_consistent(self, tmp_path):
        rows = run_experiment(self.smoke_config(tmp_path))
        summary = [r for r in rows if r.speedup_meas is not None][0]
        model = SpeedupModel(r=0.01 / 0.1, iters=summary.iteration, intervals=4)
        assert abs(summary.speedup_theory - theoretical_speedup(model)) <= 1e-12
        assert summary.speedup_meas > 0

    def test_reproducible_numerical_columns(self, tmp_path):
        cfg = self.smoke_config(tmp_path)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        numeric = lambda rows: [
            (r.problem, r.K, r.k, r.variant, r.iteration, r.boundary, r.rel_err, r.theta)
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


class TestSpeedupReport:
    def test_synthetic_speedup_two(self):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 3, None, 1e-9, None,
                      t_seq_s=10.0, t_par_s=5.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        text = speedup_report(rows)
        assert "measured=2.000" in text
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

    def test_invalid_config_exits_two_without_output(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        bad = ["--coarse_steps=0.3", "--fine_step=nan", "--horizon=inf", "--tol=nan",
               "--theta0=20", "--theta0=-1", "--dahlquist.lam=nan", "--dahlquist.y0=inf"]
        for override in bad:
            assert main(["run", path, override]) == EXIT_CONFIG, override
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
        for override, unknown, valid in (("--heat1d.nuu=5", "nuu", "nu"), ("--horizn=1.0", "horizn", "horizon")):
            assert main(["run", path, override]) == EXIT_CONFIG, override
            assert not out.exists()
            captured = capsys.readouterr()
            message, _, listed = captured.err.partition("valid keys: ")
            assert "config error" in message and unknown in message
            assert valid in listed.split(", ")
            assert captured.out == ""

    @pytest.mark.parametrize("overrides", [
        ["--problem=advection1d", "--advection1d.periodic=ture"],
        ["--problem=heat1d", "--heat1d.init=sine:2:junk"],
        ["--problem=heat1d", "--heat1d.init=zero:7"],
        ["--problem=heat1d", "--heat1d.init=gaussian:0.3:0.2:1"],
        ["--problem=heat1d", "--heat1d.init=cosine:1"],
        ["--workers", "3"],
    ])
    def test_bad_value_exits_two_without_output(self, tmp_path, capsys, overrides):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path, *overrides]) == EXIT_CONFIG
        assert not out.exists()
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_verbose_prints_newton_counters(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path, "--verbose"]) == EXIT_OK
        text = capsys.readouterr().out
        sequential = re.search(r"s, (\d+) Newton iterations \([\d.]+ ms each\)", text)
        parareal = re.search(r"2 iterations, coarse Newton (\d+), fine Newton (\d+), t_par\(to iter \d\)", text)
        assert sequential and parareal, text
        assert all(int(n) > 0 for n in sequential.groups() + parareal.groups())
        assert f"wrote 13 rows to {out}" in text

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

    def test_speedup_subcommand(self, tmp_path, capsys):
        rows = [
            ResultRow("heat1d", 0.05, 0.005, "classic", 3, None, 1e-9, None,
                      t_seq_s=10.0, t_par_s=5.0, speedup_meas=2.0, speedup_theory=4.0),
        ]
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path))
        assert main(["speedup", str(path)]) == EXIT_OK
        assert "measured=2.000" in capsys.readouterr().out

    def test_unknown_arguments_rejected(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.csv"
        emit_csv([], str(rows_path))
        assert main(["speedup", str(rows_path), "--bogus=1"]) == EXIT_CONFIG

    def test_unwritable_output_exits_four(self, tmp_path, capsys):
        from pintbench.cli import EXIT_IO

        out = tmp_path / "missing_dir" / "res.csv"
        path = write_config(tmp_path / "a.ini", SMOKE_INI.format(out=out))
        assert main(["run", path]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err
