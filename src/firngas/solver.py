"""Implicit-Euler time loop: each step matrix is set up once; a step is one product or one solve.

The homogenized unknown carries the interior-plus-bottom coefficients; the
Dirichlet surface value is re-attached when reconstructing the full node
vector.  A run's uniform time grid has at most two step matrices, the uniform
step and a last one of another length, each derived from one system's operators and
factored once per run by one partially pivoted elimination; an admissible
step swaps no row, so its factor is plain Thomas elimination.  The
atmosphere enters only row 0 of the right-hand side, so a step is the fixed
linear map ``x -> P x - g_k w``, where ``[P | -w] = V^{-1} [Mf | -e_0]`` is
the factor's substitution of those right-hand sides.
One set-up evaluates every level's row-0 forcing ``g_k`` and builds each
step, and one loop keeps the state ``[x_k; g_k]`` and writes each level in
place: up to ``_DENSE_MAX`` rows by one in-order product with
``[P^T; -w^T]`` (NumPy's C ``einsum``), above by one ``Mf`` product and one
substitution, into the rows of :func:`run`'s trajectory, or for :func:`levels`
into an array per kept level and one scratch row for the levels its stride skips.
The loop checks no level: :func:`run` and :func:`write_csv` refuse the first
level they take that is not finite, at every size.  :func:`run` keeps its last plan.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, assembly
from .errors import SingularMatrixError, ValidationError
from .mesh import Mesh
from .model import _NotReal, _finite, _finite_array, _integer, _real

__all__ = ["Trajectory", "run", "levels", "write_csv"]

_PIVOT_TOL = 1e-16  # pivot-magnitude guard relative to max|entry|
# Largest step matrix whose step is a propagator product (514 KB at m = 256).
# The product beats the substitution up to m of about 500 on a 2-core x86-64 host.
_DENSE_MAX = 256
# The C function that np.einsum(..., optimize=False) calls, so the same bits without the
# Python wrapper and its ``__array_function__`` dispatch: about 0.5 us of a 5 us step at
# m = 100 on a 2-core x86-64 host.  The loop's operands are always plain arrays.
try:
    from numpy._core.multiarray import c_einsum as _EINSUM
except ImportError:  # another NumPy layout: the wrapper without its dispatch
    _EINSUM = getattr(np.einsum, "__wrapped__", np.einsum)


def _refuse_non_finite(values, what: str):
    """Raise :class:`SingularMatrixError` naming ``what.format(k)``, k the first non-finite row."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise SingularMatrixError(k, f"singular matrix: {what.format(k)} is not finite")


class _Factor:
    """Banded elimination with partial pivoting, each pivot row divided by its pivot.

    Column k pivots on the reduced row k unless ``|sub[k]|`` exceeds its
    entry, in which case row k+1 takes its place (LAPACK ``dgttrf``'s rule)
    and its row of the unit upper factor carries a second superdiagonal.
    No admissible step matrix in the tests swaps a row; forced steps where
    advection outweighs the diagonal do.  Without a swap the pivots and the
    ``c`` multipliers are those of plain Thomas elimination, and the
    substitution is its two list recurrences.  Raises
    :class:`SingularMatrixError` with the index of the first pivot below the
    guard.  :meth:`_substitute`, on Python floats, is its one entry point; a
    reused factor runs the same arithmetic: bitwise the result of a fresh one.
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


def _step(V, Mf):
    """The implicit-Euler step ``x -> V^{-1} (Mf x - g e_0)`` as a call ``step(s, out=row)``.

    ``s = [x; g]`` has m+1 entries.  Up to ``_DENSE_MAX`` rows the step is one
    in-order product with ``A = [P^T; -w^T]``, ``-w`` added last: ``a + (-b)``
    is ``a - b`` in IEEE arithmetic, so entry i is bitwise ``(P x)_i - g w_i``.
    ``[P | -w]`` is ``V^{-1} R`` for the step's fixed right-hand sides
    ``R = [Mf | -e_0]``: the factor's one substitution of R's rows, so row j of
    ``A`` is bitwise a fresh solve of R's column j.  A non-finite row of ``A``
    raises :class:`SingularMatrixError`.  The product is not backward stable as the
    substitution is, but its forward error is of the same order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 14).  A larger
    ``V`` steps by the ``Mf`` product and the substitution; no step refuses its level.
    """
    factor = _Factor(V)
    m = factor.dim
    if m > _DENSE_MAX:
        def substitute(s, out):
            with np.errstate(over="ignore", invalid="ignore"):  # refused where it is taken
                rhs = Mf.matvec(s[:-1])
                rhs[0] -= s[-1]
            out[:] = np.fromiter(factor._substitute(rhs.tolist()), dtype=float, count=m)
        return substitute
    # R = [Mf | -e_0]: row k holds entry k of every right-hand side, so the
    # substitution run on R's rows, entry by entry, gives row k of [P | -w].
    rhs, k = np.zeros((m, m + 1)), np.arange(m)  # no to_dense(): its m x m temporaries
    rhs[k, k], rhs[k[1:], k[:-1]], rhs[k[:-1], k[1:]] = Mf.diag, Mf.sub, Mf.sup
    rhs[0, m] = -1.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        rows = [*factor._substitute(list(rhs))]
    del rhs  # freed first: the order of allocations shows in the peak resident memory
    operator = np.stack(rows, axis=1)  # [P^T; -w^T] in C order: einsum sums in its layout
    del rows
    _refuse_non_finite(operator, "row {} of the propagator")
    return functools.partial(_EINSUM, "ji,j->i", operator)


def _set_up(system: assembly.DiscreteSystem, atmosphere):
    """Level times, surface values and ``march(rows)``, which steps into each row and yields it."""
    dt, mesh = system.dt, system.mesh
    n_steps, last_dt = analysis._time_grid(dt)
    times = np.append(np.arange(n_steps) * float(dt), 1.0)
    last_system = system if last_dt == dt else replace(system, dt=last_dt)
    try:
        boundary = _real(atmosphere(times))
    except _NotReal as error:
        raise ValidationError(f"the atmosphere must give numbers, not {error}") from None
    except (TypeError, ValueError, OverflowError):
        boundary = None  # refused below
    if boundary is None or boundary.shape != times.shape or boundary[0] != 0.0:
        raise ValidationError("the atmosphere must give one value per level time, 0 at t = 0")
    if not (np.isfinite(boundary.min()) and np.isfinite(boundary.max())):  # no K-long temporary
        t = next(t for t, value in zip(times, boundary) if not np.isfinite(value))
        raise ValidationError(f"the atmosphere is not finite at t = {t:.17g}")
    forcing = assembly.surface_v1(boundary[:-1], boundary[1:], mesh, system.f_samples)
    v3 = assembly.surface_v3(boundary[1:], mesh, system.f_samples, system.d_samples,
                             system.context)
    v3[:-1] *= system.context.T_e * dt  # in place: T_e * dt_k * v3[k]
    v3[-1] *= system.context.T_e * last_system.dt
    forcing += v3
    uniform = _step(system.V, system.Mf)  # Mf is independent of the step length
    last = uniform if last_system is system else _step(last_system.V, system.Mf)

    def march(rows):
        state = np.zeros(mesh.n)  # [x_k; g_k]
        x = state[:-1]
        steps = itertools.chain(itertools.repeat(uniform, n_steps - 1), [last])
        for row, g, step in zip(rows, forcing, steps):
            state[-1] = g
            step(state, out=row)
            x[...] = row
            yield row

    return times, boundary, march


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class Trajectory:
    """Discrete solution on a :class:`Mesh`: finite interior coefficients and boundary values."""

    times: np.ndarray           # (K+1,), t_0 = 0, t_K = 1
    interior: np.ndarray        # (K+1, n-1)
    boundary: np.ndarray        # (K+1,), atmospheric value at each level
    mesh: Mesh

    def __post_init__(self):
        for name in ("times", "interior", "boundary"):
            value = _finite_array(getattr(self, name), f"trajectory {name} must be finite")
            object.__setattr__(self, name, value)
        if not isinstance(self.mesh, Mesh):
            raise ValidationError(f"a trajectory needs a Mesh, got {self.mesh!r}")
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
        if not 0 <= _integer("level index", k) < self.n_levels:
            raise ValidationError(f"level index must be an integer in 0..{self.n_levels - 1}, "
                                  f"got {k!r}")
        return np.concatenate([[self.boundary[k]], self.interior[k]])


# The arguments of the last plan :func:`run` made and its operators, read and written
# as one tuple: concurrent callers can at worst plan again, never mix two plans.
_plan_slot = (None, None)


def run(mesh, f_profile, d_profile, context, atmosphere, dt="auto",
        force: bool = False, c_D: float = 1.0) -> Trajectory:
    """Full implicit-Euler run on the rescaled unit time interval: every level of :func:`levels`.

    ``dt`` is either a number or ``"auto"`` (0.9 times the computed step bound, at most
    1).  Failed checks, steps above the bound and uncertified steps abort unless ``force``
    is set; see :func:`firngas.analysis.plan_run`.  The plan does not depend on the
    atmosphere: a call whose plan arguments are the very objects of the last planned call
    (``is``, not ``==``: ``True == 1.0``) reuses that plan's operators; a refused plan, or
    one with a numpy array among its arguments, is never kept.  A profile is a pure
    function of depth, and a mesh and the sampled tables keep read-only copies.  A step
    count past the limit is refused before the K+1 levels are allocated; the loop of
    :func:`levels` writes each into its row.  The trajectory tests them once: a non-finite
    level is :class:`SingularMatrixError`.
    """
    global _plan_slot
    key = (mesh, f_profile, d_profile, context, c_D, dt, force)
    planned, system = _plan_slot
    if planned is None or any(a is not b for a, b in zip(key, planned)):
        system = analysis.plan_run(f_profile, d_profile, mesh, context, c_D, dt, force).operators
        if not any(isinstance(arg, np.ndarray) for arg in key):  # a 0-d c_D can change in place
            _plan_slot = key, system
    n_levels = analysis._time_grid(system.dt)[0] + 1
    interior = np.empty((n_levels, mesh.n - 1))  # before the set-up's m x m arrays:
    interior[0] = 0.0  # above their freed space it would lift the peak resident memory
    times, boundary, march = _set_up(system, atmosphere)
    for _ in march(interior[1:]):
        pass
    try:
        return Trajectory(times=times, interior=interior, boundary=boundary, mesh=mesh)
    except ValidationError:
        for t, level in zip(times, interior):
            _refuse_non_finite(level, f"entry {{}} of the level at t = {t:.17g}")
        raise


def levels(system: assembly.DiscreteSystem, atmosphere, stride: int = 1):
    """Implicit-Euler loop at the step ``system.dt`` of a discrete system.

    Set-up runs at the call: the stride check, the time grid ``t_k = k dt``
    up to ``t_K = 1`` (``analysis._time_grid``; a last step other than ``dt``
    gets a step matrix of its own), the atmosphere at every level, the row-0
    forcings ``g_k = v1_k + T_e dt_k v3_k`` (``surface_v1``/``surface_v3``)
    and each step matrix's step (:func:`_step`), so a bad stride or step, an
    atmosphere that gives no real number (``model._real``), is not finite at a level
    or is not 0 at t = 0, or a singular step matrix or propagator, raises here.  The
    returned generator yields ``(t, surface value, interior)``, each interior an array
    of its own, at level 0, every ``stride``-th level and the last; the levels in
    between are written into one scratch row.  It is the package's one implicit-Euler
    step, ``V x_{k+1} = Mf x_k - v1_k - T_e dt_k v3_k`` (``assembly.assemble_rhs``)
    with only row 0 of the forcing: bitwise a fresh propagator's step ``P x_k - g_k w``
    up to ``_DENSE_MAX`` rows, a fresh substitution above.  It checks no level.
    """
    if _integer("stride", stride) < 1:
        raise ValidationError(f"stride must be an integer >= 1, got {stride!r}")
    times, boundary, march = _set_up(system, atmosphere)
    n_steps, m = len(times) - 1, system.mesh.n - 1

    def steps():
        yield float(times[0]), float(boundary[0]), np.zeros(m)
        scratch = np.empty(m)  # every level the stride skips
        rows = (scratch if k % stride and k != n_steps else np.empty(m)
                for k in range(1, n_steps + 1))
        for k, interior in enumerate(march(rows), 1):
            if interior is not scratch:
                yield float(times[k]), float(boundary[k]), interior

    return steps()


def write_csv(handle, nodes, rows):
    """Node-coordinate header, then one ``%.17g`` line per ``(t, surface value, interior)``.

    ``nodes`` must be a finite 1-d array (``model._finite_array``).  Each row is checked
    and written as it comes, so streamed rows are never held together: a time or surface
    value that ``model._finite`` refuses, or an interior that ``model._real`` refuses or
    not of shape ``(len(nodes) - 1,)``, raises :class:`ValidationError`, and a non-finite
    interior entry :class:`SingularMatrixError`, before its line is written.
    """
    if (nodes := _finite_array(nodes, "the nodes must be a finite 1-d array")).ndim != 1:
        raise ValidationError("the nodes must be a finite 1-d array")
    handle.write("t," + ",".join(f"{z:.17g}" for z in nodes) + "\n")
    row_format = ",".join(["%.17g"] * (len(nodes) + 1)) + "\n"
    for t, surface, interior in rows:
        t, surface = _finite("a row's time", t), _finite("a row's surface value", surface)
        try:
            interior = _real(interior)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"interior at t = {t:.17g} is not numeric") from None
        if interior.shape != (len(nodes) - 1,):
            raise ValidationError(f"interior at t = {t:.17g} must have shape "
                                  f"({len(nodes) - 1},), got {interior.shape}")
        _refuse_non_finite(interior, f"entry {{}} of the level at t = {t:.17g}")
        handle.write(row_format % (t, surface, *interior.tolist()))
