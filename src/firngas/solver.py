"""Implicit-Euler time loop: each step matrix is factored once; a step is one substitution.

The homogenized unknown carries the interior-plus-bottom coefficients; the
Dirichlet surface value is re-attached when reconstructing the full node
vector.  A run's uniform time grid has at most two step matrices, the uniform
step and the shortened last one, each derived from one system's operators and
factored once per run.  The atmosphere enters only row 0 of the right-hand
side, so the loop, :func:`levels`, evaluates it once for every level and then
costs one ``Mf`` product and one forward/back substitution per step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, assembly
from .errors import SingularMatrixError, ValidationError

__all__ = ["Trajectory", "factor_tridiagonal", "run", "run_plan", "levels", "write_csv"]

_PIVOT_TOL = 1e-13  # pivot-magnitude guard relative to max|entry|, unpivoted path
_EPS = float(np.finfo(float).eps)
_CSV_BLOCK = 1024   # rows formatted per write: bounded memory, few calls
_MAX_STEPS = 10**7  # step count K above which no run is started, see the README


def _rhs_list(rhs, dim: int) -> list:
    rhs = np.asarray(rhs, dtype=float)
    if len(rhs) != dim:
        raise ValidationError("right-hand-side length mismatch")
    return rhs.tolist()


class _Elimination:
    """Unpivoted banded elimination: the pivots and the ``c`` multipliers.

    Raises :class:`SingularMatrixError` at the first pivot below the guard.
    The substitution divides by each stored pivot, on Python floats: the same
    IEEE double arithmetic as on NumPy scalars, so a reused factor gives
    bitwise the result of a fresh solve.
    """

    def __init__(self, matrix: assembly.Tridiagonal):
        m = matrix.dim
        guard = _PIVOT_TOL * matrix.max_abs()
        diag, sub, sup = matrix.diag.tolist(), matrix.sub.tolist(), matrix.sup.tolist()
        pivots, c = [], []
        for k in range(m):
            pivot = diag[k] - sub[k - 1] * c[k - 1] if k else diag[0]
            if abs(pivot) <= guard:
                raise SingularMatrixError(k)
            pivots.append(pivot)
            if k < m - 1:
                c.append(sup[k] / pivot)
        self.dim = m
        self._pivots = pivots
        self._sub = sub
        self._c_reversed = c[::-1]

    def solve(self, rhs) -> np.ndarray:
        r = _rhs_list(rhs, self.dim)
        d = r[0] / self._pivots[0]
        ds = [d] + [d := (r_k - s * d) / pivot
                    for r_k, s, pivot in zip(r[1:], self._sub, self._pivots[1:])]
        x = ds.pop()
        xs = [x] + [x := d_k - c_k * x for d_k, c_k in zip(reversed(ds), self._c_reversed)]
        return np.fromiter(reversed(xs), dtype=float, count=self.dim)


class _PivotedElimination:
    """Partially pivoted elimination; fill widens the upper band to 2."""

    def __init__(self, matrix: assembly.Tridiagonal):
        m = matrix.dim
        guard = _PIVOT_TOL * 1e-3 * matrix.max_abs()
        diag = matrix.diag.tolist()
        sub = matrix.sub.tolist()
        sup1 = matrix.sup.tolist() + [0.0]
        sup2 = [0.0] * m
        swaps, factors = [], []
        for k in range(m - 1):
            swap = abs(sub[k]) > abs(diag[k])
            if swap:
                # swap row k with row k+1
                diag[k], sub[k] = sub[k], diag[k]
                sup1[k], diag[k + 1] = diag[k + 1], sup1[k]
                sup2[k], sup1[k + 1] = sup1[k + 1], sup2[k]
            if abs(diag[k]) <= guard:
                raise SingularMatrixError(k)
            factor = sub[k] / diag[k]
            diag[k + 1] -= factor * sup1[k]
            sup1[k + 1] -= factor * sup2[k]
            swaps.append(swap)
            factors.append(factor)
        if abs(diag[m - 1]) <= guard:
            raise SingularMatrixError(m - 1)
        self.dim = m
        self._diag, self._sup1, self._sup2 = diag, sup1, sup2
        self._swaps, self._factors = swaps, factors

    def solve(self, rhs) -> np.ndarray:
        b = _rhs_list(rhs, self.dim)
        for k, (swap, factor) in enumerate(zip(self._swaps, self._factors)):
            if swap:
                b[k], b[k + 1] = b[k + 1], b[k]
            b[k + 1] -= factor * b[k]
        m, diag, sup1, sup2 = self.dim, self._diag, self._sup1, self._sup2
        x = [0.0] * m
        x[m - 1] = b[m - 1] / diag[m - 1]
        if m > 1:
            x[m - 2] = (b[m - 2] - sup1[m - 2] * x[m - 1]) / diag[m - 2]
        for k in range(m - 3, -1, -1):
            x[k] = (b[k] - sup1[k] * x[k + 1] - sup2[k] * x[k + 2]) / diag[k]
        return np.array(x)


def factor_tridiagonal(matrix: assembly.Tridiagonal) -> _Elimination | _PivotedElimination:
    """Factor a tridiagonal matrix once; ``.solve(rhs)`` then substitutes.

    Tries the unpivoted banded elimination first (the admissible-step
    matrices are positive definite, keeping pivots healthy) and falls back
    to a partially pivoted variant when a pivot degenerates.  Raises
    :class:`SingularMatrixError` with the failing pivot's index.
    """
    try:
        return _Elimination(matrix)
    except SingularMatrixError:
        return _PivotedElimination(matrix)


def _check_intervals(t_k, t_k1, dt):
    """Raise unless every interval ``t_k1 - t_k`` matches its assembled step ``dt``.

    On a grid ``t_k = dt * k`` the interval carries up to about one ulp of
    ``t_k1`` of rounding, which the tolerance admits.  Arrays, one entry per step.
    """
    tol = 1e-12 * np.maximum(dt, 1e-300) + 4 * _EPS * np.abs(t_k1)
    if np.any(np.abs((t_k1 - t_k) - dt) > tol):
        raise ValidationError("step interval does not match the assembled step size")


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution: interior coefficients plus boundary values per level."""

    times: np.ndarray           # (K+1,), t_0 = 0, t_K = 1
    interior: np.ndarray        # (K+1, n-1)
    boundary: np.ndarray        # (K+1,), atmospheric value at each level
    mesh: object

    def __post_init__(self):
        for name in ("times", "interior", "boundary"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("trajectory times must increase from 0")
        if (self.interior.shape != (len(self.times), self.mesh.n - 1)
                or self.boundary.shape != self.times.shape):
            raise ValidationError("trajectory shape mismatch")
        if np.any(self.interior[0] != 0.0):
            raise ValidationError("trajectory must start from the zero state")

    @property
    def n_levels(self) -> int:
        return len(self.times)

    def reconstruct_full(self, k: int) -> np.ndarray:
        """Full node vector at level ``k``: Dirichlet value then interior."""
        if not 0 <= k < self.n_levels:
            raise ValidationError(f"level index {k} out of range 0..{self.n_levels - 1}")
        return np.concatenate([[self.boundary[k]], self.interior[k]])


def run(mesh, f_profile, d_profile, context, atmosphere, dt="auto",
        force: bool = False, c_D: float = 1.0) -> Trajectory:
    """Full implicit-Euler run on the rescaled unit time interval.

    ``dt`` is either a number or ``"auto"`` (0.9 times the computed step
    bound, at most 1).  Admissibility failures and steps above the bound
    abort unless ``force`` is set; see :func:`firngas.analysis.plan_run`.
    """
    return run_plan(analysis.plan_run(f_profile, d_profile, mesh, context, c_D, dt, force),
                    atmosphere)


def _step_count(dt: float) -> int:
    """Number K of steps on the uniform grid of step ``dt``, the last one shortened.

    A K above ``_MAX_STEPS`` is refused before anything is allocated.  The
    limit is compared before rounding, so a step whose reciprocal overflows
    is refused too.
    """
    if not 0.0 < dt <= 1.0:
        raise ValidationError(f"time step must lie in (0, 1], got {dt}")
    steps = 1.0 / float(dt) - 1e-12
    if steps > _MAX_STEPS:
        raise ValidationError(f"time step {dt:.17g} needs {steps:.6g} steps, more than the "
                              f"limit of {_MAX_STEPS:,}")
    return math.ceil(steps)


def levels(system: assembly.DiscreteSystem, atmosphere, stride: int = 1):
    """Implicit-Euler loop at the step ``system.dt`` of a discrete system.

    Yields ``(t, surface value, interior)``, each interior a fresh array, at
    level 0, every ``stride``-th level and the last.  The time grid is
    uniform; the last step is shortened to land exactly on t=1, with a step
    matrix derived for its own length.  All checks and factorizations run
    before level 0.  This is the package's one implicit-Euler step: it solves
    ``V x_{k+1} = Mf x_k - v1_k - T_e dt_k v3_k`` (``assembly.assemble_rhs``)
    with only row 0 of the forcing (``surface_v1``/``surface_v3``), bitwise
    as a fresh solve of that right-hand side would.
    """
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    dt, mesh = system.dt, system.mesh
    n_steps = _step_count(dt)
    times = np.minimum(dt * np.arange(n_steps + 1), 1.0)
    times[-1] = 1.0
    last_dt = times[-1] - times[-2]
    last_system = replace(system, dt=last_dt) if abs(last_dt - dt) > 1e-12 * dt else system
    steps = np.full(n_steps, dt)
    steps[-1] = last_system.dt
    _check_intervals(times[:-1], times[1:], steps)

    boundary = np.asarray(atmosphere(times), dtype=float)
    v1 = assembly.surface_v1(boundary[:-1], boundary[1:], mesh, system.f_samples)
    v3 = assembly.surface_v3(boundary[1:], mesh, system.f_samples, system.d_samples,
                             system.context)
    v3_scaled = system.context.T_e * steps * v3  # T_e * dt_k * v3[k]
    uniform = factor_tridiagonal(system.V)
    last = uniform if last_system is system else factor_tridiagonal(last_system.V)

    Mf = system.Mf  # independent of the step length
    interior = np.zeros(mesh.n - 1)
    yield float(times[0]), float(boundary[0]), interior
    for k in range(n_steps):
        rhs = Mf.matvec(interior)
        rhs[0] = (rhs[0] - v1[k]) - v3_scaled[k]
        interior = (last if k == n_steps - 1 else uniform).solve(rhs)
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            yield float(times[k + 1]), float(boundary[k + 1]), interior


def run_plan(plan: analysis.Plan, atmosphere) -> Trajectory:
    """Every level of :func:`levels` on the plan's operators, in one preallocated trajectory."""
    system = plan.operators
    n_levels = _step_count(system.dt) + 1
    times, boundary = np.empty(n_levels), np.empty(n_levels)
    interior = np.empty((n_levels, system.mesh.n - 1))
    for k, level in enumerate(levels(system, atmosphere)):
        times[k], boundary[k], interior[k] = level
    return Trajectory(times=times, interior=interior, boundary=boundary, mesh=system.mesh)


def write_csv(handle, nodes, rows):
    """Node-coordinate header, then one ``%.17g`` line per ``(t, surface value, interior)``."""
    handle.write("t," + ",".join(f"{z:.17g}" for z in nodes) + "\n")
    row_format = ",".join(["%.17g"] * (len(nodes) + 1)) + "\n"
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_BLOCK)):
        handle.write("".join([row_format % (t, surface, *interior.tolist())
                              for t, surface, interior in block]))
