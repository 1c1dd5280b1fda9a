"""The benchmark's workloads: seeded inputs and independent accuracy checks.

Each workload fixes one problem, one fine and one coarse propagator, one
Parareal configuration (2 workers, pipelined, L = 20 windows) and the
seeded initial state; the seed generates only that state. The parameters
are those of the shipped configs restricted to a single (K, variant).

* ``heat_linear``: linear and parabolic; the finite-difference Jacobian
  dominates each step and the run qualifies at iteration 1, so 3/4 of the
  fine work is wasted. Jacobian, Newton and step-map changes show here.
* ``piston_nonlinear``: nonlinear and time-forced; about two Newton
  iterations per step with the line search live and the per-block
  least-squares corrector. A frozen linear step map bypasses it.
* ``sched_sleep``: sleep-cost propagators that release the interpreter
  lock, so the executor is the only layer at work; numeric changes must
  not move it.

``advection1d`` runs the heat layers at 3-4x the cost and is left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from pintbench import (
    PararealConfig,
    SleepPropagator,
    State,
    ThetaSettings,
    ale_piston,
    heat1d,
    initial_state,
    make_propagator,
)

INTERVALS = 20
WORKERS = 2


@dataclass
class Instance:
    """One seeded workload, ready to run."""

    s0: State
    horizon: float
    pcfg: PararealConfig
    fine: Callable
    coarse: Callable
    # refined propagator fixing the accuracy floor; None when the
    # qualifying iteration is the fixed iteration count instead
    reference: Optional[Callable]
    # independent check of the sequential solution; returns an error or None
    check_sequential: Callable
    inputs: dict = field(default_factory=dict)

    @property
    def t_grid(self) -> list:
        grid = [self.horizon * l / INTERVALS for l in range(INTERVALS + 1)]
        grid[-1] = self.horizon
        return grid


def _pcfg(variant: str, max_iters: int, tol: float) -> PararealConfig:
    return PararealConfig(intervals=INTERVALS, max_iters=max_iters, tol=tol, variant=variant,
                          scheduler="pipelined", workers=WORKERS)


def _theta(problem, step):
    return lambda: make_propagator(problem, ThetaSettings(step=step))


def rel_err(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


HEAT = {"problem": "heat1d", "mesh_n": 63, "nu": 0.02, "horizon": 8.0, "fine_step": 0.005,
        "coarse_step": 0.1, "variant": "classic", "max_iters": 4, "tol": 1e-12, "modes": 3}


def heat_linear(seed: int) -> Instance:
    p = HEAT
    rng = np.random.default_rng(seed)
    amps = np.concatenate([rng.uniform(0.5, 1.5, 1), rng.uniform(-0.5, 0.5, p["modes"] - 1)])
    problem = heat1d(p["mesh_n"], nu=p["nu"])
    h = 1.0 / (p["mesh_n"] + 1)
    x = h * np.arange(1, p["mesh_n"] + 1)
    modes = np.arange(1, p["modes"] + 1)
    shapes = np.sin(np.pi * np.outer(modes, x))
    s0 = State(amps @ shapes, 0.0, initial_state(problem).layout)
    # sine modes are exact eigenvectors of the discrete Laplacian
    rates = -(4.0 * p["nu"] / h**2) * np.sin(np.pi * modes * h / 2.0) ** 2

    def check(seq):
        exact = (amps * np.exp(rates * p["horizon"])) @ shapes
        err = rel_err(seq[-1].values, exact)
        return None if err <= 1e-5 else f"final state off the semi-discrete solution by {err:.3e}"

    return Instance(
        s0=s0, horizon=p["horizon"], pcfg=_pcfg(p["variant"], p["max_iters"], p["tol"]),
        fine=_theta(problem, p["fine_step"]), coarse=_theta(problem, p["coarse_step"]),
        reference=_theta(problem, p["fine_step"] / 2), check_sequential=check,
        inputs={"amplitudes": amps.tolist()},
    )


PISTON = {"problem": "ale_piston", "mesh_n": 31, "rho_f": 1000.0, "nu": 0.02, "L0": 1.0,
          "adv": 0.5, "m_s": 100.0, "kappa": 400.0, "v_in": 0.5, "period": 1.0,
          "horizon": 8.0, "fine_step": 0.01, "coarse_step": 0.1, "variant": "least_squares",
          "max_iters": 4, "tol": 1e-12, "init_scale": 0.05}


def piston_nonlinear(seed: int) -> Instance:
    p = PISTON
    rng = np.random.default_rng(seed)
    problem = ale_piston(p["mesh_n"], rho_f=p["rho_f"], nu=p["nu"], L0=p["L0"], adv=p["adv"],
                         m_s=p["m_s"], kappa=p["kappa"], v_in=p["v_in"], period=p["period"])
    base = initial_state(problem)
    n = p["mesh_n"]
    xhat = np.arange(1, n + 1) / (n + 1)
    # smooth fluid velocity vanishing at both ends, oscillator at rest
    coef = p["init_scale"] * rng.uniform(-1.0, 1.0, 2)
    values = base.values.copy()
    values[:n] = coef[0] * np.sin(np.pi * xhat) + coef[1] * np.sin(2.0 * np.pi * xhat)
    s0 = base.with_values(values)

    def check(seq):
        final = seq[-1].values
        if not np.all(np.isfinite(final)) or abs(final[n]) >= 0.9 * p["L0"]:
            return "sequential piston state is not finite or collapsed the mesh"
        return None

    return Instance(
        s0=s0, horizon=p["horizon"], pcfg=_pcfg(p["variant"], p["max_iters"], p["tol"]),
        fine=_theta(problem, p["fine_step"]), coarse=_theta(problem, p["coarse_step"]),
        reference=_theta(problem, p["fine_step"] / 2), check_sequential=check,
        inputs={"velocity_sine_coefficients": coef.tolist()},
    )


SLEEP = {"problem": "sleep", "horizon": 1.0, "fine_step": 0.001, "coarse_step": 0.05,
         "cost_per_step_s": 1e-3, "decay_rate": 1.0, "variant": "classic", "max_iters": 3,
         "tol": 1e-30}


def sched_sleep(seed: int) -> Instance:
    p = SLEEP
    rng = np.random.default_rng(seed)
    y0 = float(rng.uniform(0.5, 2.0))
    s0 = State(np.array([y0]), 0.0, {"y": (0, 1)})
    steps = round(p["horizon"] / p["fine_step"])

    def check(seq):
        exact = y0 * (1.0 + p["decay_rate"] * p["fine_step"]) ** (-steps)
        err = abs(seq[-1].values[0] - exact) / exact
        return None if err <= 1e-12 else f"final state off the closed form by {err:.3e}"

    return Instance(
        s0=s0, horizon=p["horizon"], pcfg=_pcfg(p["variant"], p["max_iters"], p["tol"]),
        fine=lambda: SleepPropagator(p["fine_step"], p["cost_per_step_s"], p["decay_rate"]),
        coarse=lambda: SleepPropagator(p["coarse_step"], p["cost_per_step_s"], p["decay_rate"]),
        reference=None, check_sequential=check, inputs={"y0": y0},
    )


WORKLOADS = {
    "heat_linear": (heat_linear, HEAT),
    "piston_nonlinear": (piston_nonlinear, PISTON),
    "sched_sleep": (sched_sleep, SLEEP),
}
