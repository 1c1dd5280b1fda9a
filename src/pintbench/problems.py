"""Model problems: semi-discrete right-hand sides and initial data.

Each problem is one frozen dataclass that owns its parameters and its
behaviour: ``layout()``, ``initial_values()``, ``rhs(values, t)`` and the
analytic ``jacobian(values, t)`` of that rhs as a dense matrix, the
interface a single implicit integrator drives. The class flag ``linear``
says the rhs is ``A.dot(values) + b`` with a constant matrix ``A`` and
vector ``b``: the linear problems build that pair once, their ``rhs``
and ``jacobian`` both read it, and the rhs does not depend on the time.
The dense product costs ``Theta(n^2)`` where a stencil costs
``Theta(n)``; at the mesh sizes used here (n <= 64) it is the cheaper
of the two. A linear step does not evaluate the rhs: it is one dense
product with the problem's exact step map, ``Theta(n^2)`` at any mesh,
so a stencil rhs would not make it cheaper. Every parameter follows
the number rule of ``state._require_fields``: a float parameter is a
finite real number and a count (``mesh_n``, a sine ``mode``) an
integer, neither a bool, and ``periodic`` is ``True`` or ``False``;
anything else is rejected with ``ValueError`` naming the field at
construction.
``PROBLEMS`` maps each class's ``kind`` to the class:

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

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .linalg import matrix_vector
from .state import Layout, State, _require_fields


class MeshDegenerate(RuntimeError):
    """Interface displacement large enough to collapse the fluid interval."""


# --------------------------------------------------------------------------
# initial-data descriptors


@dataclass(frozen=True)
class SineMode:
    mode: int = 1

    def __post_init__(self):
        _require_fields(self)
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
        _require_fields(self)
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


class _Affine:
    """A linear problem: ``rhs(values, t) = A.dot(values) + b`` with constant ``A`` and ``b``.

    Each class builds the pair once in ``_affine()``; it is cached on the
    instance as ``affine`` with both arrays read-only, so ``jacobian``
    hands every caller the same ``A`` and the integrator builds its step
    map from the same pair. ``rhs`` forms the product with the callable
    ``linalg.matrix_vector`` returns for ``A``, cached as ``_product``.
    """

    linear: ClassVar[bool] = True

    @functools.cached_property
    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        pair = self._affine()
        for array in pair:
            array.setflags(write=False)
        return pair

    @functools.cached_property
    def _product(self):
        return matrix_vector(self.affine[0])

    def rhs(self, values: np.ndarray, t: float) -> np.ndarray:
        return self._product(values) + self.affine[1]

    def jacobian(self, values: np.ndarray, t: float) -> np.ndarray:
        return self.affine[0]


@dataclass(frozen=True)
class Dahlquist(_Affine):
    """Scalar linear test equation y' = lam * y."""

    kind: ClassVar[str] = "dahlquist"
    lam: float = -1.0
    y0: float = 1.0

    def __post_init__(self):
        _require_fields(self)

    def layout(self) -> Layout:
        return {"y": (0, 1)}

    def initial_values(self) -> np.ndarray:
        return np.array([self.y0])

    def _affine(self):
        return np.array([[self.lam]]), np.zeros(1)


@dataclass(frozen=True)
class _Mesh1D:
    """A problem on a uniform 1-d grid of ``mesh_n`` unknown nodes with spacing ``h``."""

    mesh_n: int = 63

    def __post_init__(self):
        _require_fields(self)
        if self.mesh_n < 3:
            raise ValueError("PDE problems need mesh_n >= 3")

    def grid(self) -> np.ndarray:
        """Node coordinates carrying the unknowns (interior, or all if periodic)."""
        return self.h * np.arange(1, self.mesh_n + 1)

    def layout(self) -> Layout:
        return {"v": (0, self.mesh_n)}


@dataclass(frozen=True)
class Heat1D(_Affine, _Mesh1D):
    """Diffusion on (0, length) with Dirichlet boundary values."""

    kind: ClassVar[str] = "heat1d"
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

    def _affine(self):
        # the boundary values enter the first and last stencil as a shift
        c = self.nu / self.h**2
        b = np.zeros(self.mesh_n)
        b[0], b[-1] = c * self.left_bc, c * self.right_bc
        return _tridiagonal(self.mesh_n, c, -2.0 * c, c), b


@dataclass(frozen=True)
class Advection1D(_Affine, _Mesh1D):
    """Transport at constant speed on (0, length), zero values at both ends unless periodic."""

    kind: ClassVar[str] = "advection1d"
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

    def _affine(self):
        n = self.mesh_n
        c = self.speed / (2.0 * self.h)
        a = _tridiagonal(n, c, 0.0, -c)
        if self.periodic:
            # the stencil wraps around: v_{-1} = v_{n-1} and v_n = v_0
            a[0, n - 1] = c
            a[n - 1, 0] = -c
        return a, np.zeros(n)


@dataclass(frozen=True)
class AlePiston(_Mesh1D):
    """Advection-diffusion on (0, L0 + u), right end on a spring-mass oscillator.

    The unknowns are the fluid velocity ``v`` on the reference grid, the
    interface displacement ``u`` and the piston velocity ``w``.
    """

    kind: ClassVar[str] = "ale_piston"
    linear: ClassVar[bool] = False
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

    The integrator's one path to ``problem.rhs`` on one window's vector:
    a nonlinear window calls it once at its start and once per Newton
    residual evaluation at a new iterate. A linear step does not call it;
    it steps through its exact step map.
    """
    return problem.rhs(values, t)

