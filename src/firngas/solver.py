"""Implicit-Euler time loop with a direct tridiagonal solve per step.

The homogenized unknown carries the interior-plus-bottom coefficients; the
Dirichlet surface value is re-attached when reconstructing the full node
vector.  The step matrix is assembled once per distinct step size and
reused across the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, assembly
from .errors import SingularMatrixError, ValidationError

__all__ = ["Trajectory", "solve_tridiagonal", "step", "run", "run_plan"]

_PIVOT_TOL = 1e-13  # relative pivot-magnitude guard for the unpivoted path
_EPS = float(np.finfo(float).eps)


def _thomas(matrix: assembly.Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Unpivoted banded elimination; raises on a small pivot."""
    m = matrix.dim
    scale = max(matrix.max_abs(), 1.0)
    c = np.empty(m - 1)
    d = np.empty(m)
    pivot = matrix.diag[0]
    if abs(pivot) <= _PIVOT_TOL * scale:
        raise SingularMatrixError(0)
    if m > 1:
        c[0] = matrix.sup[0] / pivot
    d[0] = rhs[0] / pivot
    for k in range(1, m):
        pivot = matrix.diag[k] - matrix.sub[k - 1] * c[k - 1]
        if abs(pivot) <= _PIVOT_TOL * scale:
            raise SingularMatrixError(k)
        if k < m - 1:
            c[k] = matrix.sup[k] / pivot
        d[k] = (rhs[k] - matrix.sub[k - 1] * d[k - 1]) / pivot
    x = np.empty(m)
    x[m - 1] = d[m - 1]
    for k in range(m - 2, -1, -1):
        x[k] = d[k] - c[k] * x[k + 1]
    return x


def _pivoted_banded(matrix: assembly.Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Partially pivoted elimination; fill widens the upper band to 2."""
    m = matrix.dim
    scale = max(matrix.max_abs(), 1.0)
    diag = matrix.diag.copy()
    sup1 = np.zeros(m)
    sup2 = np.zeros(m)
    sup1[: m - 1] = matrix.sup
    sub = matrix.sub.copy()
    b = np.asarray(rhs, dtype=float).copy()
    for k in range(m - 1):
        if abs(sub[k]) > abs(diag[k]):
            # swap row k with row k+1
            diag[k], sub[k] = sub[k], diag[k]
            sup1[k], diag[k + 1] = diag[k + 1], sup1[k]
            sup2[k], sup1[k + 1] = sup1[k + 1], sup2[k]
            b[k], b[k + 1] = b[k + 1], b[k]
        if abs(diag[k]) <= _PIVOT_TOL * 1e-3 * scale:
            raise SingularMatrixError(k)
        factor = sub[k] / diag[k]
        diag[k + 1] -= factor * sup1[k]
        sup1[k + 1] -= factor * sup2[k]
        b[k + 1] -= factor * b[k]
    if abs(diag[m - 1]) <= _PIVOT_TOL * 1e-3 * scale:
        raise SingularMatrixError(m - 1)
    x = np.empty(m)
    x[m - 1] = b[m - 1] / diag[m - 1]
    if m > 1:
        x[m - 2] = (b[m - 2] - sup1[m - 2] * x[m - 1]) / diag[m - 2]
    for k in range(m - 3, -1, -1):
        x[k] = (b[k] - sup1[k] * x[k + 1] - sup2[k] * x[k + 2]) / diag[k]
    return x


def solve_tridiagonal(matrix: assembly.Tridiagonal, rhs) -> np.ndarray:
    """Direct solve of a tridiagonal system.

    Tries the unpivoted banded elimination first (the admissible-step
    matrices are positive definite, keeping pivots healthy) and falls back
    to a partially pivoted variant when a pivot degenerates.
    """
    rhs = np.asarray(rhs, dtype=float)
    if len(rhs) != matrix.dim:
        raise ValidationError("right-hand-side length mismatch")
    try:
        return _thomas(matrix, rhs)
    except SingularMatrixError:
        return _pivoted_banded(matrix, rhs)


def step(system: assembly.DiscreteSystem, lam_k, atmosphere, t_k: float,
         t_k1: float) -> np.ndarray:
    """Advance the interior coefficients over one implicit step.

    The interval must match the assembled step.  On a grid ``t_k = dt * k``
    the interval carries up to about one ulp of ``t_k1`` of rounding, which
    the tolerance admits.
    """
    if abs((t_k1 - t_k) - system.dt) > 1e-12 * max(system.dt, 1e-300) + 4 * _EPS * abs(t_k1):
        raise ValidationError("step interval does not match the assembled step size")
    v1 = assembly.assemble_v1(t_k, t_k1, atmosphere, system.mesh, system.f_samples)
    v3 = assembly.assemble_v3(t_k1, atmosphere, system.mesh, system.f_samples,
                              system.d_samples, system.context)
    rhs = assembly.assemble_rhs(lam_k, v1, v3, system.Mf, system.context.T_e, system.dt)
    return solve_tridiagonal(system.V, rhs)


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution: interior coefficients plus boundary values per level."""

    times: np.ndarray           # (K+1,), t_0 = 0, t_K = 1
    interior: np.ndarray        # (K+1, n-1)
    boundary: np.ndarray        # (K+1,), atmospheric value at each level
    mesh: object

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        interior = np.asarray(self.interior, dtype=float)
        boundary = np.asarray(self.boundary, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValidationError("trajectory times must increase from 0")
        if interior.shape != (len(times), self.mesh.n - 1):
            raise ValidationError("trajectory shape mismatch")
        if np.any(interior[0] != 0.0):
            raise ValidationError("trajectory must start from the zero state")

    @property
    def n_levels(self) -> int:
        return len(self.times)

    def reconstruct_full(self, k: int) -> np.ndarray:
        """Full node vector at level ``k``: Dirichlet value then interior."""
        if not 0 <= k < self.n_levels:
            raise ValidationError(f"level index {k} out of range 0..{self.n_levels - 1}")
        return np.concatenate([[self.boundary[k]], self.interior[k]])

    def write_csv(self, path, stride: int = 1):
        """Header of node coordinates, one ``t, rho(z_1..z_n)`` row per level.

        ``stride`` down-samples the levels; the first and last level are
        always kept.
        """
        if stride < 1:
            raise ValidationError("stride must be >= 1")
        levels = list(range(0, self.n_levels, stride))
        if levels[-1] != self.n_levels - 1:
            levels.append(self.n_levels - 1)

        def _dump(handle):
            coords = ",".join(f"{z:.17g}" for z in self.mesh.nodes)
            handle.write(f"t,{coords}\n")
            for k in levels:
                row = ",".join(f"{v:.17g}" for v in self.reconstruct_full(k))
                handle.write(f"{self.times[k]:.17g},{row}\n")

        if hasattr(path, "write"):
            _dump(path)
        else:
            with open(path, "w", newline="\n") as handle:
                _dump(handle)


def run(mesh, f_profile, d_profile, context, atmosphere, dt="auto",
        force: bool = False, c_D: float = 1.0) -> Trajectory:
    """Full implicit-Euler run on the rescaled unit time interval.

    ``dt`` is either a number or ``"auto"`` (0.9 times the computed step
    bound).  Admissibility failures and steps above the bound abort unless
    ``force`` is set; see :func:`firngas.analysis.plan_run`.
    """
    return run_plan(analysis.plan_run(f_profile, d_profile, mesh, context, c_D, dt, force),
                    atmosphere)


def run_plan(plan: analysis.Plan, atmosphere) -> Trajectory:
    """Implicit-Euler loop at the step of an admissibility plan.

    The time grid is uniform; the last step is shortened to land exactly on
    t=1, reusing a step matrix assembled for its own length.
    """
    dt = plan.dt
    if not 0.0 < dt <= 1.0:
        raise ValidationError(f"time step must lie in (0, 1], got {dt}")

    n_steps = math.ceil(1.0 / dt - 1e-12)
    times = np.minimum(dt * np.arange(n_steps + 1), 1.0)
    times[-1] = 1.0
    system = plan.system(dt)
    last_dt = times[-1] - times[-2]
    last_system = plan.system(last_dt) if abs(last_dt - dt) > 1e-12 * dt else system

    interior = np.zeros((n_steps + 1, plan.mesh.n - 1))
    for k in range(n_steps):
        sys_k = last_system if k == n_steps - 1 else system
        interior[k + 1] = step(sys_k, interior[k], atmosphere, times[k], times[k + 1])
    boundary = np.asarray(atmosphere(times), dtype=float)
    return Trajectory(times=times, interior=interior, boundary=boundary, mesh=plan.mesh)
