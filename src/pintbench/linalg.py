"""Dense nonlinear solve.

A damped Newton iteration. The caller supplies the linearization as an
analytic Jacobian callable, evaluated afresh at every iterate, or as a
fixed inverse, which turns each direction into a matrix-vector product
(simplified Newton with a frozen Jacobian). Without either, the
Jacobian is formed by forward differences; the integrator never takes
that path, and the tests use it as an oracle for the analytic
Jacobians. Everything here operates on plain 1-d float64 numpy arrays
and is free of shared mutable state, so all functions are safe to call
concurrently.

Finiteness comes from the dot products behind the norms: ``v @ v`` is a
sum of squares, so it is finite exactly when every entry is finite and
the norm does not overflow, and ``math.sqrt(v @ v)`` equals
``np.linalg.norm(v)`` bit for bit. The entrywise scan runs only when that
sum is not finite, to tell an overflowing norm of a finite vector from a
NaN or Inf entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class NumericBreakdown(ArithmeticError):
    """NaN/Inf contamination or a singular / zero-pivot linearization."""


class MaxItersExceeded(RuntimeError):
    """Newton iteration budget exhausted before reaching tolerance."""


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a non-empty finite 1-d float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not math.isfinite(arr @ arr) and not np.all(np.isfinite(arr)):
        raise NumericBreakdown(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class NewtonSettings:
    """Tolerances and safeguards for the damped Newton iteration."""

    abs_tol: float = 1e-10
    rel_tol: float = 0.0
    max_iters: int = 25
    damping_min: float = 1.0 / 64.0
    fd_epsilon: float = 1e-7

    def __post_init__(self):
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.damping_min <= 1.0:
            raise ValueError("damping_min must lie in (0, 1]")
        if self.fd_epsilon <= 0.0:
            raise ValueError("fd_epsilon must be positive")


def _fd_jacobian(residual: Callable, x: np.ndarray, r0: np.ndarray, eps: float) -> np.ndarray:
    """Columnwise forward-difference Jacobian of ``residual`` at ``x``."""
    n = x.size
    jac = np.empty((r0.size, n))
    for j in range(n):
        h = eps * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        rp = np.asarray(residual(xp), dtype=np.float64)
        if not np.all(np.isfinite(rp)):
            raise NumericBreakdown(f"residual not finite while differencing column {j}")
        jac[:, j] = (rp - r0) / h
    return jac


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    x0,
    settings: Optional[NewtonSettings] = None,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    history: Optional[list] = None,
    jacobian_inverse: Optional[np.ndarray] = None,
):
    """Solve ``residual(x) = 0`` by damped Newton iteration.

    The direction is ``-jacobian_inverse @ r`` when a fixed inverse is
    supplied, else the solution of ``J dx = -r`` with ``J`` from the
    ``jacobian`` callable, or formed columnwise by forward differences
    with increment ``fd_epsilon * (1 + |x_j|)`` when neither is given.
    The residual test, the line search and the breakdown checks are the
    same on every path. Each step is halved until the residual norm
    decreases or the damping factor reaches ``damping_min``, at which
    point the damped step is taken anyway.

    Parameters
    ----------
    residual : callable
        Maps a 1-d array to the residual array of the same length.
    x0 : array_like
        Starting guess; the residual must be finite here. It is never
        written, and it is not copied: a float64 vector whose residual
        already meets the tolerance is returned as the object itself.
    settings : NewtonSettings, optional
    jacobian : callable, optional
        Maps x to the dense Jacobian matrix at x.
    history : list, optional
        If given, the residual norm after each accepted step is appended.
    jacobian_inverse : ndarray, optional
        A fixed inverse of the Jacobian, used at every iterate; exact for
        an affine residual, a frozen approximation otherwise.

    Returns
    -------
    (x, iterations)
        Solution with ``||residual(x)||_2 <= abs_tol + rel_tol * ||residual(x0)||_2``
        and the number of accepted Newton steps. ``x`` is the last
        argument ``residual`` was called with, so a caller can keep what
        it computed there (the integrator keeps the rhs).

    Raises
    ------
    MaxItersExceeded
        No convergence within ``max_iters`` steps.
    NumericBreakdown
        NaN/Inf encountered or the linearization is singular.
    """
    cfg = settings if settings is not None else NewtonSettings()
    x = as_vector(x0, "x0")
    r = np.asarray(residual(x), dtype=np.float64)
    rr = r @ r
    if not math.isfinite(rr) and not np.all(np.isfinite(r)):
        raise NumericBreakdown("residual not finite at starting point")
    if r.size != x.size:
        raise ValueError(f"residual length {r.size} does not match unknowns {x.size}")
    rnorm = math.sqrt(rr)
    # without a relative part the target stays abs_tol when the start norm overflows (0 * inf is NaN)
    target = cfg.abs_tol + (cfg.rel_tol * rnorm if cfg.rel_tol else 0.0)

    for it in range(cfg.max_iters):
        if rnorm <= target:
            return x, it
        if jacobian_inverse is not None:
            dx = -(jacobian_inverse @ r)
        else:
            jac = np.asarray(jacobian(x), dtype=np.float64) if jacobian is not None else _fd_jacobian(residual, x, r, cfg.fd_epsilon)
            if not np.all(np.isfinite(jac)):
                raise NumericBreakdown("Jacobian contains NaN or Inf entries")
            try:
                dx = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError as exc:
                raise NumericBreakdown("singular linearization in Newton step") from exc
        if not math.isfinite(dx @ dx) and not np.all(np.isfinite(dx)):
            raise NumericBreakdown("non-finite Newton direction")

        lam = 1.0
        while True:
            x_trial = x + lam * dx
            r_trial = np.asarray(residual(x_trial), dtype=np.float64)
            rr = r_trial @ r_trial
            # a non-finite entry and an overflowing norm both read as infinite
            trial_norm = math.sqrt(rr) if math.isfinite(rr) else math.inf
            if trial_norm < rnorm or lam <= cfg.damping_min:
                break
            lam = max(lam / 2.0, cfg.damping_min)
        if trial_norm == math.inf:
            raise NumericBreakdown(f"residual not finite after damping to {lam}")
        x, r, rnorm = x_trial, r_trial, trial_norm
        if history is not None:
            history.append(rnorm)

    if rnorm <= target:
        return x, cfg.max_iters
    raise MaxItersExceeded(
        f"no convergence in {cfg.max_iters} iterations (||r|| = {rnorm:.3e}, target {target:.3e})"
    )
