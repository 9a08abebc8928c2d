"""Implicit-Euler time loop: each step matrix is factored once; a step is one solve.

The homogenized unknown carries the interior-plus-bottom coefficients; the
Dirichlet surface value is re-attached when reconstructing the full node
vector.  A run's uniform time grid has at most two step matrices, the uniform
step and a last one of another length, each derived from one system's operators and
factored once per run by one partially pivoted elimination; an admissible
step swaps no row, so its factor is plain Thomas elimination.  A factor of
at most ``_DENSE_MAX`` rows also stores its inverse, built by that
substitution, and solves by one in-order product with it.  The atmosphere
enters only row 0 of the right-hand side, so :func:`levels` evaluates it
once for every level when it is called, with the factorizations, and the
generator it returns costs one ``Mf`` product and one solve per step.
:func:`run` and :func:`write_csv` are plain loops over it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, assembly
from .errors import SingularMatrixError, ValidationError

__all__ = ["Trajectory", "factor_tridiagonal", "run", "levels", "write_csv"]

_PIVOT_TOL = 1e-16  # pivot-magnitude guard relative to max|entry|
# Largest factor that stores its inverse (512 KB at m = 256).  The product
# beats the substitution up to m of about 500 on a 2-core x86-64 host.
_DENSE_MAX = 256


class _Factor:
    """Banded elimination with partial pivoting, each pivot row divided by its pivot.

    Column k pivots on the reduced row k unless ``|sub[k]|`` exceeds its
    entry, in which case row k+1 takes its place (LAPACK ``dgttrf``'s rule)
    and its row of the unit upper factor carries a second superdiagonal.
    Raises :class:`SingularMatrixError` at the first pivot below the guard.
    Without a swap the pivots and the ``c`` multipliers are those of plain
    Thomas elimination, and the substitution is its two list recurrences.

    A factor of dimension m <= ``_DENSE_MAX`` also stores the transposed
    inverse ``W^T``, whose row j is the substitution applied to ``e_j``, and
    refuses one with a non-finite entry; its ``solve`` is then one product
    that adds ``rhs_j W[:, j]`` in the order j = 0..m-1.  A larger factor
    substitutes on Python floats.  Either way every solve of one factor runs
    the same arithmetic, so a reused factor gives bitwise the result of a
    fresh solve.
    """

    def __init__(self, matrix: assembly.Tridiagonal):
        m = matrix.dim
        guard = _PIVOT_TOL * matrix.max_abs()
        diag, sub, sup = matrix.diag.tolist(), matrix.sub.tolist(), matrix.sup.tolist() + [0.0]
        pivots, lower, c, c2, swapped = [], [], [], [], []
        a, b = diag[0], sup[0]  # the reduced row k: columns k and k+1
        for k in range(m):
            swap = k < m - 1 and abs(sub[k]) > abs(a)
            pivot = sub[k] if swap else a
            if abs(pivot) <= guard:
                raise SingularMatrixError(k)
            pivots.append(pivot)
            if k == m - 1:
                break
            if swap:
                swapped.append(k)
                c.append(diag[k + 1] / pivot)
                c2.append(sup[k + 1] / pivot)
                lower.append(a)
                a, b = b - a * c[k], -a * c2[k]
            else:
                c.append(b / pivot)
                c2.append(0.0)
                lower.append(sub[k])
                a, b = diag[k + 1] - sub[k] * c[k], sup[k + 1]
        self.dim = m
        self._pivots, self._lower, self._c_reversed, self._c2 = pivots, lower, c[::-1], c2
        self._swapped_rows = swapped
        self._inverse_t = None
        if m <= _DENSE_MAX:
            # Row k of the identity holds component k of every e_j, so the
            # substitution run on those rows, entry by entry, gives row k of W.
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                inverse = np.array([*self._substitute(list(np.eye(m)))])
            finite = np.isfinite(inverse).all(axis=1)
            if not finite.all():
                k = int(np.argmin(finite))
                raise SingularMatrixError(k, f"singular matrix: row {k} of the inverse "
                                             f"is not finite")
            self._inverse_t = np.ascontiguousarray(inverse.T)

    def _substitute(self, r: list):
        """The m entries of x, in order, by forward and back substitution of ``r``.

        The entries of ``r`` are Python floats, or rows of equal length that
        each carry one right-hand side per column: the same IEEE double
        operations either way, one entry at a time.
        """
        if not self._swapped_rows:
            d = r[0] / self._pivots[0]
            ds = [d] + [d := (r_k - s * d) / pivot
                        for r_k, s, pivot in zip(r[1:], self._lower, self._pivots[1:])]
            x = ds.pop()
            xs = [x] + [x := d_k - c_k * x for d_k, c_k in zip(reversed(ds), self._c_reversed)]
            return reversed(xs)
        # A swapped pivot row brings in the next right-hand side; the row it
        # displaced carries its own, reduced, to the next column.
        swapped = set(self._swapped_rows)
        xs, carry = [], r[0]
        for k, (low, pivot) in enumerate(zip(self._lower, self._pivots)):
            if k in swapped:
                xs.append(r[k + 1] / pivot)
                carry = carry - low * xs[k]  # not in place: carry may be the caller's r[0]
            else:
                xs.append(carry / pivot)
                carry = r[k + 1] - low * xs[k]
        xs += [carry / self._pivots[-1], 0.0]
        for k, c_k, c2_k in zip(range(self.dim - 2, -1, -1), self._c_reversed, reversed(self._c2)):
            xs[k] -= c_k * xs[k + 1] + c2_k * xs[k + 2]
        return xs[:-1]

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.dim,):
            raise ValidationError(f"right-hand side must have shape ({self.dim},), "
                                  f"got {rhs.shape}")
        if self._inverse_t is None:
            return np.fromiter(self._substitute(rhs.tolist()), dtype=float, count=self.dim)
        # einsum's own loop adds rhs_j * W^T[j] in order of j, a multiply and
        # an add apiece.  Never ``@`` or ``np.dot``: BLAS picks its summation
        # order and its use of FMA by CPU kernel, so the bytes would follow the host.
        return np.einsum("ji,j->i", self._inverse_t, rhs)


def factor_tridiagonal(matrix: assembly.Tridiagonal) -> _Factor:
    """Factor a tridiagonal matrix once; ``.solve(rhs)`` then solves by the factor alone.

    One partially pivoted elimination serves every matrix.  No admissible
    step matrix in the tests swaps a row; forced steps where advection
    outweighs the diagonal do.  Raises :class:`SingularMatrixError` with the
    failing pivot's index, or with the first row of a stored inverse that is
    not finite.
    """
    return _Factor(matrix)


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class Trajectory:
    """Discrete solution: interior coefficients plus boundary values per level."""

    times: np.ndarray           # (K+1,), t_0 = 0, t_K = 1
    interior: np.ndarray        # (K+1, n-1)
    boundary: np.ndarray        # (K+1,), atmospheric value at each level
    mesh: object

    def __post_init__(self):
        for name in ("times", "interior", "boundary"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if (self.times.ndim != 1 or self.times.size == 0 or self.times[0] != 0.0
                or np.any(np.diff(self.times) <= 0.0)):
            raise ValidationError("trajectory times must increase from 0 in a nonempty 1-d array")
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
    """Full implicit-Euler run on the rescaled unit time interval: every level of :func:`levels`.

    ``dt`` is either a number or ``"auto"`` (0.9 times the computed step
    bound, at most 1).  Failed checks, steps above the bound and uncertified
    steps abort unless ``force`` is set; see :func:`firngas.analysis.plan_run`.
    A step count past the limit is refused before the K+1 levels are allocated.
    """
    system = analysis.plan_run(f_profile, d_profile, mesh, context, c_D, dt, force).operators
    n_levels = analysis._time_grid(system.dt)[0] + 1
    times, boundary = np.empty(n_levels), np.empty(n_levels)
    interior = np.empty((n_levels, mesh.n - 1))
    for k, level in enumerate(levels(system, atmosphere)):
        times[k], boundary[k], interior[k] = level
    return Trajectory(times=times, interior=interior, boundary=boundary, mesh=mesh)


def levels(system: assembly.DiscreteSystem, atmosphere, stride: int = 1):
    """Implicit-Euler loop at the step ``system.dt`` of a discrete system.

    Set-up runs at the call: the stride check, the time grid ``t_k = k dt``
    up to ``t_K = 1`` (``analysis._time_grid``; a last step other than ``dt``
    gets a step matrix of its own), the atmosphere at every level, the row-0
    forcings and the factorizations, so a bad stride or step, or a singular
    step matrix, raises here.  The returned generator yields ``(t, surface
    value, interior)``, each interior a fresh array, at level 0, every
    ``stride``-th level and the last.  It is the package's one implicit-Euler
    step: ``V x_{k+1} = Mf x_k - v1_k - T_e dt_k v3_k`` (``assembly.assemble_rhs``)
    with only row 0 of the forcing (``surface_v1``/``surface_v3``), bitwise as
    a fresh solve of that right-hand side.
    """
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValidationError(f"stride must be an integer >= 1, got {stride!r}")
    dt, mesh = system.dt, system.mesh
    n_steps, last_dt = analysis._time_grid(dt)
    times = np.append(np.arange(n_steps) * float(dt), 1.0)
    last_system = system if last_dt == dt else replace(system, dt=last_dt)

    boundary = np.asarray(atmosphere(times), dtype=float)
    v1 = assembly.surface_v1(boundary[:-1], boundary[1:], mesh, system.f_samples)
    v3 = assembly.surface_v3(boundary[1:], mesh, system.f_samples, system.d_samples,
                             system.context)
    v3[:-1] *= system.context.T_e * dt  # in place: T_e * dt_k * v3[k]
    v3[-1] *= system.context.T_e * last_system.dt
    uniform = factor_tridiagonal(system.V)
    last = uniform if last_system is system else factor_tridiagonal(last_system.V)

    def steps():
        Mf = system.Mf  # independent of the step length
        interior = np.zeros(mesh.n - 1)
        yield float(times[0]), float(boundary[0]), interior
        for k in range(n_steps):
            rhs = Mf.matvec(interior)
            rhs[0] = (rhs[0] - v1[k]) - v3[k]
            interior = (last if k == n_steps - 1 else uniform).solve(rhs)
            if (k + 1) % stride == 0 or k + 1 == n_steps:
                yield float(times[k + 1]), float(boundary[k + 1]), interior

    return steps()


def write_csv(handle, nodes, rows):
    """Node-coordinate header, then one ``%.17g`` line per ``(t, surface value, interior)``.

    Each row is formatted and written as it comes, so streamed rows are never held together.
    """
    handle.write("t," + ",".join(f"{z:.17g}" for z in nodes) + "\n")
    row_format = ",".join(["%.17g"] * (len(nodes) + 1)) + "\n"
    handle.writelines(row_format % (t, surface, *interior.tolist())
                      for t, surface, interior in rows)
