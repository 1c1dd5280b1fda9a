"""Model problems: semi-discrete right-hand sides, initial data, references.

Each problem is one frozen dataclass that owns its parameters and its
behaviour: ``layout()``, ``initial_values()``, ``rhs(values, t)`` and the
analytic ``jacobian(values, t)`` of that rhs as a dense matrix, the
interface a single implicit integrator drives. The class flag ``linear``
says the rhs is affine in the unknowns, so its Jacobian depends on
neither the values nor the time; the flag ``autonomous`` says the rhs
does not depend on the time, so ``rhs(values, t)`` gives the same bits
at every ``t`` and the integrator reuses the rhs at a step's start
values for its end time. Every float parameter must be finite; NaN or
infinity is rejected with ``ValueError`` at construction. ``PROBLEMS``
maps each class's ``kind`` to the class:

* ``dahlquist``    scalar linear test equation y' = lambda * y
* ``heat1d``       diffusion on a fixed interval, Dirichlet boundaries,
                   second-order central differences
* ``advection1d``  constant-speed transport, central differences (no
                   upwinding), optionally periodic
* ``ale_piston``   a 1-d moving-boundary surrogate: advection-diffusion
                   on an interval whose right end follows a spring-mass
                   oscillator, mapped to the fixed reference domain
                   (0, 1) by the affine stretch x = xhat * (L0 + u).
                   Velocity continuity enters through the right boundary
                   value, the viscous traction drives the oscillator.

The three PDE problems discretize space with second-order stencils on
uniform grids; their first field ``mesh_n`` counts interior nodes (for
the periodic transport grid, all nodes), ``h`` is the grid spacing and
``grid()`` the node coordinates. All rhs evaluations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Union

import numpy as np

from .state import Layout, State, validate_layout


class MeshDegenerate(RuntimeError):
    """Interface displacement large enough to collapse the fluid interval."""


def _require_finite(obj) -> None:
    """Reject a NaN or infinite float field of a dataclass instance."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


# --------------------------------------------------------------------------
# initial-data descriptors


@dataclass(frozen=True)
class SineMode:
    mode: int = 1

    def __post_init__(self):
        if self.mode < 1:
            raise ValueError("mode number must be at least 1")

    def profile(self, x: np.ndarray, length: float, periodic: bool = False) -> np.ndarray:
        # whole waves fit a periodic domain, half waves fit between two walls
        return np.sin((2.0 * np.pi if periodic else np.pi) * self.mode * x / length)


@dataclass(frozen=True)
class Zero:
    def profile(self, x: np.ndarray, length: float, periodic: bool = False) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True)
class GaussianBump:
    center: float = 0.5
    width: float = 0.1

    def __post_init__(self):
        _require_finite(self)
        if self.width <= 0.0:
            raise ValueError("bump width must be positive")

    def profile(self, x: np.ndarray, length: float, periodic: bool = False) -> np.ndarray:
        return np.exp(-(((x - self.center) / self.width) ** 2))


# --------------------------------------------------------------------------
# problems


def _tridiagonal(n: int, lower, diag, upper) -> np.ndarray:
    """Dense n x n matrix with the given sub-, main and super-diagonal."""
    out = np.zeros((n, n))
    idx = np.arange(n)
    out[idx, idx] = diag
    out[idx[1:], idx[:-1]] = lower
    out[idx[:-1], idx[1:]] = upper
    return out


@dataclass(frozen=True)
class Dahlquist:
    """Scalar linear test equation y' = lam * y."""

    kind: ClassVar[str] = "dahlquist"
    linear: ClassVar[bool] = True
    autonomous: ClassVar[bool] = True
    lam: float = -1.0
    y0: float = 1.0

    def __post_init__(self):
        _require_finite(self)

    def layout(self) -> Layout:
        return {"y": (0, 1)}

    def initial_values(self) -> np.ndarray:
        return np.array([self.y0])

    def rhs(self, values: np.ndarray, t: float) -> np.ndarray:
        return self.lam * values

    def jacobian(self, values: np.ndarray, t: float) -> np.ndarray:
        return np.array([[self.lam]])


@dataclass(frozen=True)
class _Mesh1D:
    """A problem on a uniform 1-d grid of ``mesh_n`` unknown nodes with spacing ``h``."""

    mesh_n: int = 63

    def __post_init__(self):
        _require_finite(self)
        if self.mesh_n < 3:
            raise ValueError("PDE problems need mesh_n >= 3")

    def grid(self) -> np.ndarray:
        """Node coordinates carrying the unknowns (interior, or all if periodic)."""
        return self.h * np.arange(1, self.mesh_n + 1)

    def layout(self) -> Layout:
        return {"v": (0, self.mesh_n)}


@dataclass(frozen=True)
class Heat1D(_Mesh1D):
    """Diffusion on (0, length) with Dirichlet boundary values."""

    kind: ClassVar[str] = "heat1d"
    linear: ClassVar[bool] = True
    autonomous: ClassVar[bool] = True
    nu: float = 2e-2
    length: float = 1.0
    left_bc: float = 0.0
    right_bc: float = 0.0
    init: Union[SineMode, Zero] = SineMode(1)

    def __post_init__(self):
        super().__post_init__()
        if self.nu <= 0.0:
            raise ValueError("diffusivity nu must be positive")
        if self.length <= 0.0:
            raise ValueError("length must be positive")

    @property
    def h(self) -> float:
        return self.length / (self.mesh_n + 1)

    def initial_values(self) -> np.ndarray:
        return self.init.profile(self.grid(), self.length)

    def rhs(self, values: np.ndarray, t: float) -> np.ndarray:
        n = self.mesh_n
        h = self.h
        padded = np.empty(n + 2)
        padded[0] = self.left_bc
        padded[1:-1] = values
        padded[-1] = self.right_bc
        return (self.nu / h**2) * (padded[2:] - 2.0 * padded[1:-1] + padded[:-2])

    def jacobian(self, values: np.ndarray, t: float) -> np.ndarray:
        # the boundary values only shift the rhs
        c = self.nu / self.h**2
        return _tridiagonal(self.mesh_n, c, -2.0 * c, c)


@dataclass(frozen=True)
class Advection1D(_Mesh1D):
    """Transport at constant speed on (0, length), zero values at both ends unless periodic."""

    kind: ClassVar[str] = "advection1d"
    linear: ClassVar[bool] = True
    autonomous: ClassVar[bool] = True
    mesh_n: int = 64
    speed: float = 1.0
    length: float = 1.0
    init: Union[GaussianBump, SineMode] = GaussianBump()
    periodic: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.speed == 0.0:
            raise ValueError("transport speed must be non-zero")
        if self.length <= 0.0:
            raise ValueError("length must be positive")

    @property
    def h(self) -> float:
        if self.periodic:
            return self.length / self.mesh_n
        return self.length / (self.mesh_n + 1)

    def grid(self) -> np.ndarray:
        if self.periodic:
            return self.h * np.arange(self.mesh_n)
        return super().grid()

    def initial_values(self) -> np.ndarray:
        return self.init.profile(self.grid(), self.length, self.periodic)

    def rhs(self, values: np.ndarray, t: float) -> np.ndarray:
        n = self.mesh_n
        h = self.h
        if self.periodic:
            dv = np.roll(values, -1) - np.roll(values, 1)
        else:
            padded = np.empty(n + 2)
            padded[0] = 0.0
            padded[1:-1] = values
            padded[-1] = 0.0
            dv = padded[2:] - padded[:-2]
        return -self.speed * dv / (2.0 * h)

    def jacobian(self, values: np.ndarray, t: float) -> np.ndarray:
        n = self.mesh_n
        c = self.speed / (2.0 * self.h)
        jac = _tridiagonal(n, c, 0.0, -c)
        if self.periodic:
            # the stencil wraps around: v_{-1} = v_{n-1} and v_n = v_0
            jac[0, n - 1] = c
            jac[n - 1, 0] = -c
        return jac


@dataclass(frozen=True)
class AlePiston(_Mesh1D):
    """Advection-diffusion on (0, L0 + u), right end on a spring-mass oscillator.

    The unknowns are the fluid velocity ``v`` on the reference grid, the
    interface displacement ``u`` and the piston velocity ``w``.
    """

    kind: ClassVar[str] = "ale_piston"
    linear: ClassVar[bool] = False
    autonomous: ClassVar[bool] = False
    rho_f: float = 1e3     # fluid density, kg/m^3
    nu: float = 2e-2       # kinematic viscosity, m^2/s
    L0: float = 1.0        # rest length of the fluid interval, m
    adv: float = 0.5       # background transport speed, m/s (any sign)
    m_s: float = 100.0     # oscillator mass, kg
    kappa: float = 400.0   # spring stiffness, N/m
    v_in: float = 0.5      # inflow amplitude, m/s (0 switches forcing off)
    period: float = 1.0    # forcing period, s

    def __post_init__(self):
        super().__post_init__()
        for name in ("rho_f", "nu", "L0", "m_s", "kappa", "period"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.v_in < 0.0:
            raise ValueError("v_in must be non-negative")

    @property
    def h(self) -> float:
        # the reference domain is always (0, 1)
        return 1.0 / (self.mesh_n + 1)

    def layout(self) -> Layout:
        n = self.mesh_n
        return {"v": (0, n), "u": (n, 1), "w": (n + 1, 1)}

    def initial_values(self) -> np.ndarray:
        # starts from rest, driven only by the inflow forcing
        return np.zeros(self.mesh_n + 2)

    def _fluid(self, values: np.ndarray, t: float):
        """Terms rhs and jacobian share: v, u, w, length, first and second differences, drift."""
        n = self.mesh_n
        h = self.h
        v = values[:n]
        u = float(values[n])
        w = float(values[n + 1])
        if abs(u) >= 0.9 * self.L0:
            raise MeshDegenerate(f"interface displacement {u:.3e} collapses the mesh (L0={self.L0})")
        length = self.L0 + u

        # the right boundary value is the piston velocity w (velocity continuity)
        padded = np.empty(n + 2)
        padded[0] = self.v_in * forcing_s(t, self.period)
        padded[1:-1] = v
        padded[-1] = w

        xhat = self.grid()
        first = (padded[2:] - padded[:-2]) / (2.0 * h)
        second = (padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / h**2
        drift = (self.adv - xhat * w) / length
        return v, u, w, length, first, second, drift

    def rhs(self, values: np.ndarray, t: float) -> np.ndarray:
        n = self.mesh_n
        h = self.h
        v, u, w, length, first, second, drift = self._fluid(values, t)
        dvdt = -drift * first + (self.nu / length**2) * second

        # second-order one-sided derivative at the moving end (xhat = 1)
        dv_end = (3.0 * w - 4.0 * v[-1] + v[-2]) / (2.0 * h)
        traction = self.rho_f * self.nu * dv_end / length

        out = np.empty(n + 2)
        out[:n] = dvdt
        out[n] = w
        # the viscous traction opposes the piston velocity (drag); with the
        # fluid on the left of the interface the force on the solid is the
        # negative of the outward viscous stress, which keeps the coupled
        # energy exchange anti-symmetric and the rest dynamics dissipative
        out[n + 1] = -(traction + self.kappa * u) / self.m_s
        return out

    def jacobian(self, values: np.ndarray, t: float) -> np.ndarray:
        """Tridiagonal fluid block bordered by the ``u`` and ``w`` columns and the traction row."""
        n = self.mesh_n
        h = self.h
        v, u, w, length, first, second, drift = self._fluid(values, t)
        diffusion = self.nu / length**2
        jac = np.zeros((n + 2, n + 2))
        jac[:n, :n] = _tridiagonal(n, drift[1:] / (2.0 * h) + diffusion / h**2,
                                   -2.0 * diffusion / h**2, -drift[:-1] / (2.0 * h) + diffusion / h**2)
        # u stretches the interval: drift ~ 1/length, diffusion ~ 1/length^2
        jac[:n, n] = (drift / length) * first - (2.0 * diffusion / length) * second
        # w moves the grid (the xhat * w transport) and is the right boundary value
        jac[:n, n + 1] = (self.grid() / length) * first
        jac[n - 1, n + 1] += -drift[-1] / (2.0 * h) + diffusion / h**2
        jac[n, n + 1] = 1.0
        # the one-sided traction row: -(rho_f nu dv_end / length + kappa u) / m_s
        scale = self.rho_f * self.nu / (length * self.m_s)
        dv_end = (3.0 * w - 4.0 * v[-1] + v[-2]) / (2.0 * h)
        jac[n + 1, n - 2] = -scale / (2.0 * h)
        jac[n + 1, n - 1] = scale * 2.0 / h
        jac[n + 1, n] = scale * dv_end / length - self.kappa / self.m_s
        jac[n + 1, n + 1] = -scale * 3.0 / (2.0 * h)
        return jac


Problem = Union[Dahlquist, Heat1D, Advection1D, AlePiston]
PROBLEMS = {cls.kind: cls for cls in (Dahlquist, Heat1D, Advection1D, AlePiston)}

# the lower-case names stay as constructors for library callers
dahlquist, heat1d, advection1d, ale_piston = Dahlquist, Heat1D, Advection1D, AlePiston


# --------------------------------------------------------------------------
# operations


def forcing_s(t: float, period: float = 1.0) -> float:
    """Oscillating inflow profile: 0 at t=0, 1 after half a cycle.

    ``s(t) = (1 - cos(pi * t / period)) / 2``.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    return 0.5 * (1.0 - math.cos(math.pi * t / period))


def initial_state(problem: Problem) -> State:
    """State at time zero with the problem's initial data."""
    return State(problem.initial_values(), 0.0, problem.layout())


def rhs_values(problem: Problem, values: np.ndarray, t: float) -> np.ndarray:
    """Time derivative of every unknown, on raw value vectors.

    Hot-path variant of :func:`rhs` that skips State wrapping; the
    integrator calls this once per window start and once per Newton
    residual evaluation at a new iterate (for an autonomous problem not
    at a step's start values, whose rhs it already holds).
    """
    return problem.rhs(values, t)


def rhs(problem: Problem, s: State, t: float) -> np.ndarray:
    """Time derivative of the state vector at time ``t``."""
    validate_layout(problem.layout(), s.size)
    return rhs_values(problem, s.values, t)


def reference_solution(
    problem: Problem,
    t: float,
    fine_factor: int = 4,
    base_step: float | None = None,
    theta0: float = 0.0,
) -> State:
    """Reference state at time ``t``.

    The scalar test equation has the analytic solution ``y0 * exp(lam*t)``;
    the PDE problems are integrated sequentially with ``base_step /
    fine_factor``, a Richardson-style refinement of the caller's step on
    the same mesh.
    """
    if fine_factor < 2:
        raise ValueError("fine_factor must be at least 2")
    if isinstance(problem, Dahlquist):
        return State(np.array([problem.y0 * math.exp(problem.lam * t)]), t, problem.layout())
    s0 = initial_state(problem)
    if t == 0.0:
        return s0
    if base_step is None:
        raise ValueError("PDE reference solutions need base_step")
    from .integrators import ThetaSettings, make_propagator  # deferred: integrators imports this module

    settings = ThetaSettings(step=base_step / fine_factor, theta0=theta0)
    return make_propagator(problem, settings).advance(s0, t)
