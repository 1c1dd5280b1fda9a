import ast
import dataclasses
import math
import typing
from pathlib import Path

import numpy as np
import pytest

import pintbench
from pintbench.cli import ConfigError, ExperimentConfig, ResultRow
from pintbench.integrators import (
    LinearThetaPropagator, NewtonThetaPropagator, SleepPropagator, ThetaSettings, make_propagator,
)
from pintbench.parareal import PararealConfig
from pintbench.problems import PROBLEMS, AlePiston, Advection1D, Dahlquist, GaussianBump, Heat1D, SineMode
from pintbench.state import State

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pintbench").glob("*.py"))

# one valid instance of every settings dataclass; its float values are exact in float32,
# so a float32 copy of any one of them builds too
SETTINGS = [
    SineMode(), GaussianBump(), Dahlquist(), Heat1D(), Advection1D(), AlePiston(),
    ThetaSettings(step=0.125), PararealConfig(intervals=4, max_iters=2),
    State(np.ones(1), 0.0, {"y": (0, 1)}),
    ResultRow("heat1d", 0.125, 0.0625, "classic", 1, 2, 0.5, 1.0, 1.0, 0.5, 2.0, 1.5),
    ExperimentConfig(Heat1D(15), horizon=8.0, intervals=4, coarse_steps=(0.5,), fine_step=0.125),
    SleepPropagator(0.125, 0.0),
]


def _number_fields():
    """``(instance, field, declared type, optional)`` for every field declared int, float or bool."""
    for obj in SETTINGS:
        hints = typing.get_type_hints(type(obj))
        for f in dataclasses.fields(obj):
            hint, optional = hints[f.name], False
            if typing.get_origin(hint) is typing.Union and type(None) in typing.get_args(hint):
                (hint,), optional = [arg for arg in typing.get_args(hint) if arg is not type(None)], True
            if hint in (int, float, bool):
                yield obj, f.name, hint, optional


NUMBER_FIELDS = list(_number_fields())


def test_every_export_resolves_once():
    names = pintbench.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(pintbench, name)] == []


def test_no_source_line_exceeds_120_characters():
    assert SOURCES
    long = [f"{path.name}:{number}" for path in SOURCES
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 120]
    assert long == []


# the package's __init__ imports to re-export; every other module uses what it imports
@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


# the modules whose products run on every step, corrector or Newton iterate
HOT_PATHS = ("integrators.py", "linalg.py", "parareal.py", "problems.py")


@pytest.mark.parametrize("name", HOT_PATHS)
def test_hot_path_products_call_dot_not_the_matmul_operator(name):
    # ``ndarray.dot`` makes the BLAS call of ``@`` without its ufunc dispatch (linalg's
    # docstring says where the bits differ); a docstring is a string, not an operator
    tree = ast.parse((SOURCES[0].parent / name).read_text())
    found = [f"{name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert found == []


@pytest.mark.parametrize("obj,name,hint,optional", NUMBER_FIELDS,
                         ids=[f"{type(obj).__name__}.{name}" for obj, name, _, _ in NUMBER_FIELDS])
def test_every_settings_field_follows_the_number_rule(obj, name, hint, optional):
    # an int or float field takes no bool, text, None (unless Optional), fraction or non-finite
    # value; a bool field only True or False; NumPy scalars of the declared kind pass and are
    # stored as the declared Python type
    bad = ["1"] + ([] if optional else [None])
    if hint is bool:
        bad += [1, np.bool_(True)]
    else:
        bad += [True]
    if hint is int:
        bad += [2.5]
    if hint is float:
        bad += [math.nan, math.inf, -math.inf]
    error = ConfigError if isinstance(obj, ExperimentConfig) else ValueError
    for value in bad:
        with pytest.raises(error, match=rf"^{name} must be "):
            dataclasses.replace(obj, **{name: value})
    value = getattr(obj, name)
    good = {int: [np.int64], float: [np.float32, np.float64], bool: []}[hint]
    for cast in good:
        stored = getattr(dataclasses.replace(obj, **{name: cast(value)}), name)
        assert type(stored) is hint and stored == hint(cast(value))


def test_every_settings_class_has_a_number_field():
    assert {type(obj) for obj, *_ in NUMBER_FIELDS} == {type(obj) for obj in SETTINGS}


PROPAGATOR_CLASSES = ("ThetaPropagator", "LinearThetaPropagator", "NewtonThetaPropagator")


def test_no_propagator_method_branches_on_the_problem_kind():
    # make_propagator picks the class from problem.linear; no method tests the kind again
    tree = ast.parse((SOURCES[0].parent / "integrators.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in PROPAGATOR_CLASSES]
    assert sorted(c.name for c in classes) == sorted(PROPAGATOR_CLASSES)
    found = []
    for cls in classes:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and node.attr == "linear":
                found.append(f"{cls.name}:{node.lineno} reads .linear")
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                names = {getattr(o, "attr", getattr(o, "id", None)) for o in operands}
                if "step_map" in names and any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                    found.append(f"{cls.name}:{node.lineno} compares step_map with None")
    assert found == []


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_make_propagator_picks_the_class_of_the_step_kind(kind):
    cls = PROBLEMS[kind]
    expected = LinearThetaPropagator if cls.linear else NewtonThetaPropagator
    assert type(make_propagator(cls(), ThetaSettings(step=0.125))) is expected
