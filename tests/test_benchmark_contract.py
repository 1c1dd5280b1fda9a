"""The benchmark's use of the library: ``heat_linear`` samples through ``perfbench/run.py``.

The benchmark imports, patches and reads library names (``make_propagator``,
``newton_iterations``, ``steps_taken``, ``cost_hint``, the ``RunTrace``
fields, the call-time lookups of ``rhs_values``, ``newton_solve``,
``theta_weight`` and ``parareal_update``); these tests run the same paths,
so a library change that breaks one of them fails here, not only when the
benchmark runs. The untraced sample is the gated path: its fine propagator
has ``advance_many``, so its fine windows step in blocks, which the traced
path's proxy never does.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched  # noqa: E402

import pintbench  # noqa: E402
from pintbench import parareal as api  # noqa: E402


def _floor(inst, sample):
    ref = api.sequential_solve(inst.reference(), inst.s0, inst.t_grid)
    floor = workloads.rel_err(sample["seq"][-1].values, ref[-1].values)
    assert floor <= run.FLOOR_LIMIT
    return floor


def test_untraced_heat_linear_sample_is_correct_and_deterministic():
    inst = workloads.heat_linear(1)
    assert hasattr(inst.fine(), "advance_many")
    sample = run.run_sample(api, inst)
    q, t_par = run.check_sample(inst, sample, _floor(inst, sample), None)  # raises CheckFailed unless correct
    assert 1 <= q <= sample["trace"].iterations_run and t_par > 0.0
    run.check_determinism(api, inst, sample["trace"].iterate_values, q)  # raises CheckFailed on any difference


def test_traced_heat_linear_sample_is_correct_and_reports_every_layer_metric():
    inst = workloads.heat_linear(1)
    t0 = time.perf_counter()
    api.sequential_solve(inst.coarse(), inst.s0, inst.t_grid)
    coarse_sweep_s = time.perf_counter() - t0

    tracer = Tracer(run_id="contract")
    # the five targets run.py patches for its traced sample
    targets = [
        (pintbench.problems, "rhs_values", "rhs_values"),
        (pintbench.integrators, "newton_solve", "newton_solve"),
        (np.linalg, "solve", "solve"),
        (api, "theta_weight", "theta_weight"),
        (api, "parareal_update", "parareal_update"),
    ]
    with patched(tracer, targets):
        sample = run.run_sample(api, inst, tracer)
    q, sample["t_par_s"] = run.check_sample(inst, sample, _floor(inst, sample), None)  # raises CheckFailed unless correct

    metrics, model = run.layer_metrics(api, inst, tracer, sample, [sample], q, coarse_sweep_s)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 25 and set(metrics) == set(declared)
    for name, (value, _unit) in metrics.items():
        assert math.isfinite(value), name
    assert model["workers"] == inst.pcfg.workers == 2
