"""Dense nonlinear solve.

A damped Newton iteration. The caller supplies the linearization as a
fixed inverse of the Jacobian, so each direction is one matrix-vector
product (simplified Newton with a frozen Jacobian, the inverse at the
caller's chosen point). Its callers are the nonlinear steps: a linear
step is one product with its exact step map, which
``integrators._linear``'s step loop takes itself, never calling here,
and ``TOL`` applies to nonlinear steps only. Everything here operates
on plain 1-d float64 numpy arrays and is free of shared mutable state,
so all functions are safe to call concurrently.

A vector whose finiteness alone is in question is tested by
:func:`finite_test`, one product with a zero vector, which no finite
entry can overflow. ``integrators.LinearThetaPropagator`` tests a
window's buffer with it once, after the last step, not after every
step: a NaN or Inf entering a product makes every entry of every later
product non-finite (IEEE arithmetic; Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., section 2.5). Newton's residual norms
are ``math.sqrt(r.dot(r))``, bit for bit ``np.linalg.norm(r)``: a sum of
squares is finite exactly when every entry is finite and the norm does
not overflow, and the entrywise scan runs only when it is not, to tell
an overflowing norm of a finite vector from a NaN or Inf entry. The sum
of squares is taken by ``np.vdot``, the same product without numpy's
overflow warning, so a finite residual above about 1e154 reads an
infinite norm without a warning.

The package's hot paths call ``ndarray.dot``, not the ``@`` operator:
the method skips the ufunc dispatch of ``np.matmul`` and makes the same
BLAS call, so it returns the same bits, ``v.dot(v)`` those of ``v @ v``
and ``A.dot(x)`` those of ``A @ x``, at a third less call cost on a
vector of 63 entries. The one exception is a 1 x 1 matrix, which
``dot`` treats as a scalar: it returns the product ``a * x`` itself,
where gemv adds it to 0.0, so a product of -0.0 keeps its sign.
:func:`matrix_vector` gives every caller of a square matrix the bits of
``A @ x``: a linear problem's rhs and Newton's directions.
``integrators._linear``'s step loop does not call it. Its
step map is the augmented ``n x (n + 1)`` matrix ``[M | c]``, which has
two columns even for a scalar problem, so ``dot`` makes a gemv at every
size, and ``dahlquist(lam=5.0, y0=0.0)`` at step size 1 steps to
``+0.0``, as ``M @ y + c`` gives. One window steps through
``[M | c].dot`` with ``out=``; a stack of windows keeps ``np.matmul``,
which makes one gemv per column of an ``(m, n + 1, 1)`` stack, the gemv
of one window. ``dot`` takes a stack as one tensor, whose product has
shape ``(n, m, 1)``, and one ``A @ Y`` over a block is a gemm, whose
columns change bits with the block's width.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# the residual tolerance, the iteration budget and the smallest damping
# factor, which no caller varies
TOL = 1e-10
MAX_ITERS = 25
DAMPING_MIN = 1.0 / 64.0


class NumericBreakdown(ArithmeticError):
    """NaN/Inf contamination or a singular / zero-pivot linearization."""


class MaxItersExceeded(RuntimeError):
    """Newton iteration budget exhausted before reaching tolerance."""


def matrix_vector(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The product ``x -> matrix @ x`` with a square float64 ``matrix``, bit for bit.

    It is ``matrix.dot`` from two rows on, and ``np.matmul`` with a 1 x 1
    matrix, whose ``dot`` would keep the sign of a -0.0 product.
    """
    return matrix.dot if matrix.shape[0] > 1 else functools.partial(np.matmul, matrix)


@functools.lru_cache(maxsize=64)
def finite_test(size: int) -> Callable[[np.ndarray], bool]:
    """The test whether every entry of a float64 vector of ``size`` entries is finite.

    It is ``zero.dot(v) == 0.0`` with a read-only zero vector: a finite
    entry times zero is a signed zero, and an Inf or NaN entry makes the
    sum NaN. No finite entry can overflow it, so a finite vector of any
    size passes without a warning, where ``v.dot(v)`` overflows from
    entries near 1e154 on; an Inf entry sets numpy's "invalid" flag. It
    costs what ``v.dot(v)`` costs, and the cache serves one test per size.
    """
    zero = np.zeros(size)
    zero.setflags(write=False)
    return lambda v: zero.dot(v) == 0.0


def _squared_norm(r: np.ndarray) -> float:
    """``r.dot(r)``, bit for bit, which reads Inf without a warning when a finite ``r``'s sum of squares overflows.

    ``np.vdot`` makes the same BLAS ``ddot`` call as ``r.dot(r)`` but
    does not raise numpy's overflow warning afterwards. It costs about
    0.2 us more than ``dot`` on 63 entries, where an ``np.errstate``
    block around ``dot`` costs about 1.2 us.
    """
    return np.vdot(r, r)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a non-empty finite 1-d float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not finite_test(arr.size)(arr):
        raise NumericBreakdown(f"{name} contains NaN or Inf entries")
    return arr


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    x0,
    *,
    jacobian_inverse: np.ndarray,
):
    """Solve ``residual(x) = 0`` by damped Newton iteration.

    The direction at every iterate is ``-jacobian_inverse @ r``, taken by
    :func:`matrix_vector`. The iteration stops once the residual's
    Euclidean norm is at most ``TOL``. Each step is halved until the
    residual norm decreases or the damping factor reaches
    ``DAMPING_MIN``, at which point the damped step is taken anyway.

    Parameters
    ----------
    residual : callable
        Maps a 1-d array to the residual array of the same length.
    x0 : array_like
        Starting guess; the residual must be finite here. It is never
        written, and it is not copied: a float64 vector whose residual
        already meets the tolerance is returned as the object itself.
    jacobian_inverse : ndarray
        A fixed inverse of the Jacobian, used for the direction at every
        iterate; exact for an affine residual, a frozen approximation
        otherwise.

    Returns
    -------
    (x, iterations)
        Solution with ``||residual(x)||_2 <= TOL`` and the number of
        accepted Newton steps. ``x`` is the last argument ``residual`` was
        called with, so a caller can keep what it computed there (the
        integrator keeps the rhs).

    Raises
    ------
    MaxItersExceeded
        No convergence within ``MAX_ITERS`` steps.
    NumericBreakdown
        A NaN or Inf in the start, a residual or a direction.
    """
    x = as_vector(x0, "x0")
    direction, finite = matrix_vector(jacobian_inverse), finite_test(x.size)
    r = np.asarray(residual(x), dtype=np.float64)
    rr = _squared_norm(r)
    if not math.isfinite(rr) and not np.all(np.isfinite(r)):
        raise NumericBreakdown("residual not finite at starting point")
    if r.size != x.size:
        raise ValueError(f"residual length {r.size} does not match unknowns {x.size}")
    rnorm = math.sqrt(rr)

    for it in range(MAX_ITERS):
        if rnorm <= TOL:
            return x, it
        dx = -direction(r)
        if not finite(dx):
            raise NumericBreakdown("non-finite Newton direction")

        lam = 1.0
        while True:
            x_trial = x + lam * dx
            r_trial = np.asarray(residual(x_trial), dtype=np.float64)
            rr = _squared_norm(r_trial)
            # a non-finite entry and an overflowing norm both read as infinite
            trial_norm = math.sqrt(rr) if math.isfinite(rr) else math.inf
            if trial_norm < rnorm or lam <= DAMPING_MIN:
                break
            lam = max(lam / 2.0, DAMPING_MIN)
        if trial_norm == math.inf:
            raise NumericBreakdown(f"residual not finite after damping to {lam}")
        x, r, rnorm = x_trial, r_trial, trial_norm

    if rnorm <= TOL:
        return x, MAX_ITERS
    raise MaxItersExceeded(
        f"no convergence in {MAX_ITERS} iterations (||r|| = {rnorm:.3e}, target {TOL:.3e})"
    )
