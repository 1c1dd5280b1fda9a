"""Parallel-in-time integration toolkit.

A shifted Crank-Nicolson theta-scheme drives four model problems (scalar
decay, 1-d diffusion, 1-d transport, and a moving-boundary piston
surrogate); the Parareal engine composes coarse and fine propagators
over equal time windows on one dependency-driven task executor; the CLI
reproduces convergence, failure-mode, and speedup experiments at desk
scale.
"""

__version__ = "0.1.0"

from .integrators import (
    NonDivisibleWindow,
    Propagator,
    SleepPropagator,
    ThetaPropagator,
    ThetaSettings,
    TimeStepError,
    convergence_order,
    make_propagator,
)
from .linalg import (
    MaxItersExceeded,
    NumericBreakdown,
    newton_solve,
)
from .parareal import (
    PararealConfig,
    PararealError,
    RunTrace,
    Task,
    boundary_error,
    parareal_update,
    pipelined_schedule,
    run_parareal,
    sequential_solve,
    theoretical_speedup,
    theta_weight,
)
from .problems import (
    PROBLEMS,
    Advection1D,
    AlePiston,
    Dahlquist,
    GaussianBump,
    Heat1D,
    MeshDegenerate,
    Problem,
    SineMode,
    Zero,
    advection1d,
    ale_piston,
    dahlquist,
    forcing_s,
    heat1d,
    initial_state,
)
from .state import State

__all__ = [
    "__version__",
    "State",
    "newton_solve",
    "NumericBreakdown", "MaxItersExceeded",
    "ThetaSettings", "ThetaPropagator", "SleepPropagator", "Propagator",
    "make_propagator", "convergence_order",
    "NonDivisibleWindow", "TimeStepError",
    "Problem", "PROBLEMS", "Dahlquist", "Heat1D", "Advection1D", "AlePiston",
    "SineMode", "Zero", "GaussianBump", "MeshDegenerate",
    "dahlquist", "heat1d", "advection1d", "ale_piston",
    "forcing_s", "initial_state",
    "PararealConfig", "RunTrace", "Task", "PararealError",
    "run_parareal", "sequential_solve", "parareal_update", "theta_weight",
    "boundary_error", "theoretical_speedup", "pipelined_schedule",
]
