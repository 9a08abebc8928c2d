"""Admissibility diagnostics and stability constants for the discrete scheme.

All constants are grid-estimated: suprema and minima are taken over dense
sample grids, integrals use composite trapezoid with a graded tail towards
the possibly singular bottom ``z = 1``.  They are indicative diagnostics,
not sharp analytic values.  Positive definiteness has one rule, exact up to
rounding: an O(n) odd-even reduction inertia test of each band matrix's
symmetric tridiagonal part less ``1e-12 * max|entry|``, with no size cap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import assembly
from .errors import AssumptionError, FirngasError, TimeStepError, ValidationError
from .mesh import Mesh
from .model import CoefficientProfile, RescaledContext, _finite

__all__ = [
    "PDVerdict",
    "StabilityReport",
    "check_pd_all",
    "build_report",
    "Plan",
    "plan_run",
]

_TRUNC = 1e-8          # truncation of singular integrands near z = 1
_DIVERGENCE_GROWTH = 0.01  # >1% growth per truncation refinement -> divergent
_DT_SAFETY = 0.9       # safety factor on the auto-selected time step
_MAX_STEPS = 10**7     # step count K above which no run is started, see the README
_EPS = float(np.finfo(float).eps)
_GRID_TOL = 4.0 * _EPS  # rounding of the level times k * dt in [0, 1]: a few ulps of 1


def _tail_grid() -> np.ndarray:
    """Uniform grid on [0, 0.9] plus a log-graded tail towards 1 - 1e-8."""
    body = np.linspace(0.0, 0.9, 20001)
    tail = 1.0 - np.logspace(-1, math.log10(_TRUNC), 5000)
    return np.concatenate([body, tail[tail > body[-1]]])


def _cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    steps = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    return np.concatenate([[0.0], np.cumsum(steps)])


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """``max(num / den)`` over positive samples; a ratio that overflows gives ``inf``."""
    with np.errstate(over="ignore"):
        return float(np.max(num / den))


def _estimate_lipschitz(profile, mesh, hi: float) -> float:
    """Max divided difference of a profile over [0, hi] on ``4 (n - 1) + 1`` points."""
    grid = np.linspace(0.0, hi, 4 * (mesh.n - 1) + 1)
    return float(np.max(np.abs(np.diff(profile(grid)) / np.diff(grid))))


def _hardy_constant(cum_inv_w: np.ndarray, grid: np.ndarray, z_F: float) -> float:
    """Weighted Poincare/Hardy constant ``z_F sup_z (1 - z)^{1/2} (int_0^z 1/w)^{1/2}``."""
    cum_v = _cumulative_trapezoid(np.ones_like(grid), grid)
    product = (cum_v[-1] - cum_v) * cum_inv_w
    coarse_mask = grid <= 1.0 - 1e-4
    sup_coarse = float(np.max(product[coarse_mask]))
    sup_full = float(np.max(product))
    if not np.isfinite(sup_full) or (sup_full > (1.0 + _DIVERGENCE_GROWTH) * sup_coarse
                                     and sup_full > 1e-12):
        raise FirngasError("condition (cond:WI) violated: weighted Poincare constant diverges")
    return z_F * math.sqrt(sup_full)


def _inverse_integral(weight, bottom: float, z_F: float) -> tuple:
    """Running trapezoid integral of ``1/weight`` along the tail grid.

    Returns the grid, the running integral on it, and the pair of
    ``z_F * int_0^1 1/weight`` and a divergence flag.  The graded grid
    stops at ``1 - 1e-8``.  When the weight's ``bottom`` value at ``z = 1``
    is positive the last sliver is integrable and enters the total, so the
    integral diverges only if it is not finite.  Otherwise it is flagged
    divergent when it is not finite or grows by more than 1% from
    ``1 - 1e-4`` to ``1 - 1e-8``.  A weight that vanishes at a grid point
    makes the integral infinite.
    """
    grid = _tail_grid()
    closed = bottom > 0.0
    points = np.append(grid, 1.0) if closed else grid
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / np.maximum(weight(points), 0.0)
    cum = _cumulative_trapezoid(inv, points)
    coarse = float(cum[:grid.size][grid <= 1.0 - 1e-4][-1])
    full = float(cum[-1])
    divergent = not np.isfinite(full) or (
        not closed and full > (1.0 + _DIVERGENCE_GROWTH) * max(coarse, 1e-300))
    return grid, cum[:grid.size], (z_F * full, divergent)


def _trace_constant(sqrt_fd: float, d_sup: float, d_bottom: float, lipschitz_L: float,
                    B0: float, integral: float) -> float:
    """Trace constant bounding the weighted bottom value; ``integral`` is ``z_F int 1/D``."""
    if d_bottom > 0.0:
        return sqrt_fd * d_sup * integral
    try:
        return sqrt_fd * lipschitz_L * B0**2
    except OverflowError:  # as in _continuity: the constant is unbounded
        return math.inf


def _check_node_samples(values: np.ndarray, cap, mesh, assumption: str):
    """Node samples of a profile: nonnegative, 0 at most at the bottom, at most ``cap``."""
    if np.any(values < 0.0):
        raise AssumptionError(assumption, f"profile negative at z={mesh.nodes[values < 0.0][0]:g}")
    if np.any(values[:-1] <= 0.0):
        bad = mesh.nodes[:-1][values[:-1] <= 0.0][0]
        raise AssumptionError(assumption, f"profile not strictly positive at z={bad:g} < 1")
    if cap is not None and np.any(values > cap * (1 + 1e-12)):
        raise AssumptionError(assumption, f"profile exceeds its upper bound {cap:g}")


def _compute_fh(f_profile, h: float) -> float:
    """Minimum of the pore fraction over [0, 1 - h]."""
    grid = np.linspace(0.0, 1.0 - h, 50001)
    value = float(np.min(f_profile(grid)))
    if value <= 0.0:
        raise AssumptionError("(5)", "pore fraction not strictly positive away from the bottom")
    return value


def _defect_constant(integral: float, divergent: bool, mcoef: float, c_D: float,
                     L_delta: float) -> float:
    """Coercivity-defect constant of the drift-diffusion quadratic form.

    A divergent ``int 1/D`` drops its term: the conservative limit for the step bound.
    """
    if divergent:
        inv_term = 0.0
    else:
        inv_term = 1.0 / (2.0 * c_D * integral)
    return inv_term - (mcoef / 2.0) * L_delta


def _compute_dt_max(h: float, context: RescaledContext, f_underbar_h: float,
                    K_G: float) -> float:
    """Sufficient time-step bound for unique solvability of each step."""
    first = h / context.fcoef if context.fcoef > 0.0 else math.inf
    denom = abs(context.z_F * context.gcoef - abs(K_G))
    second = f_underbar_h / (4.0 * denom) if denom > 0.0 else math.inf
    return (context.z_F / (6.0 * context.T_e)) * min(first, second)


@dataclass(frozen=True)
class PDVerdict:
    positive_definite: bool
    min_eigenvalue: float


def check_pd_all(matrices: dict) -> dict:
    """Positive definiteness of the symmetric part of each named :class:`Tridiagonal` of one size.

    The verdicts are :func:`_certified`'s, so an all-zero matrix is not definite;
    bisection on the same scaled symmetric parts gives ``min_eigenvalue``.
    """
    if not all(isinstance(matrix, assembly.Tridiagonal) for matrix in matrices.values()):
        raise ValidationError("check_pd_all needs Tridiagonal matrices")
    if len({matrix.dim for matrix in matrices.values()}) > 1:
        raise ValidationError("check_pd_all needs matrices of one dimension")
    if not matrices:
        return {}
    parts = _scaled_symmetric_parts(list(matrices.values()))
    definite, eigs = _certified(list(matrices.values()), parts), _min_sym_eigenvalues(*parts)
    return {name: PDVerdict(bool(ok), float(eig))
            for name, ok, eig in zip(matrices, definite, eigs)}


def _certified(matrices: list, parts: tuple | None = None) -> np.ndarray:
    """The one definiteness rule: is each ``sym(T) - 1e-12 max|T| I`` definite?

    One inertia test of all the matrices; ``parts`` are their :func:`_scaled_symmetric_parts`.
    """
    d, e, scale = _scaled_symmetric_parts(matrices) if parts is None else parts
    shift = 1e-12 * np.array([matrix.max_abs() for matrix in matrices]) / scale
    return ~_has_nonpositive_pivot(d - shift[:, None], np.square(e))


_ULPS = 4.0          # stop once the bracket is this many epsilons of its ends wide ...
_FLOOR = 1e-18       # ... or about this fraction of max|T|, far below the PD threshold
_MAX_SWEEPS = 62     # halvings that take the first bracket, under 4 wide, below the floor


def _min_sym_eigenvalues(d: np.ndarray, e: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each ``(T + T^T) / 2`` by bisection on a definiteness test.

    The symmetric part of a band matrix ``T`` is tridiagonal with diagonal
    ``d`` and off-diagonal ``e = (sub + sup) / 2``.  Its smallest
    eigenvalue lies in ``[min(d - |e_left| - |e_right|), min(d)]``
    (Gershgorin and the Rayleigh quotient) and is above ``sigma`` iff
    ``T - sigma I`` is definite.  Each step halves the bracket of every
    unfinished matrix, all tested in one :func:`_has_nonpositive_pivot` on
    the parts ``d``, ``|e|`` and ``scale`` of :func:`_scaled_symmetric_parts`.
    """
    lo = np.min(d - np.pad(e, ((0, 0), (1, 0))) - np.pad(e, ((0, 0), (0, 1))), axis=1)
    hi = np.min(d, axis=1)
    e2 = np.square(e)
    for _ in range(_MAX_SWEEPS):
        tol = np.maximum(_ULPS * _EPS * np.maximum(np.abs(lo), np.abs(hi)), _FLOOR)
        rows = np.flatnonzero(hi - lo > tol)
        if rows.size == 0:
            break
        sigma = (lo[rows] + hi[rows]) / 2.0
        at_or_above = _has_nonpositive_pivot(d[rows] - sigma[:, None], e2[rows])
        hi[rows[at_or_above]] = sigma[at_or_above]
        lo[rows[~at_or_above]] = sigma[~at_or_above]
    return (lo + hi) / 2.0 * scale


def _scaled_symmetric_parts(matrices: list) -> tuple:
    """Diagonals ``d``, off-diagonal magnitudes ``|e|`` and the scale of each of the k matrices.

    Each matrix's symmetric part is scaled by a power of two to ``max|entry|``
    in ``[1, 2)``, without rounding, so that ``e**2`` cannot overflow, and can
    underflow only where ``e`` is far below the bisection's floor.
    """
    d = np.stack([matrix.diag for matrix in matrices])
    e = np.abs(np.stack([(matrix.sub + matrix.sup) / 2.0 for matrix in matrices]))
    largest = np.maximum(np.max(np.abs(d), axis=1), np.max(e, axis=1, initial=0.0))
    scale = np.ldexp(1.0, np.frexp(largest)[1] - 1)
    return d / scale[:, None], e / scale[:, None], scale


def _has_nonpositive_pivot(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether a symmetric tridiagonal has an LDL^T pivot ``<= 0``, by odd-even reduction.

    ``a`` and ``c`` hold each matrix's diagonal and squared off-diagonal in
    a row.  By Sylvester's law of inertia the pivots may be taken in any
    order (Demmel, Applied Numerical Linear Algebra, 5.3).  Each level
    pivots on its even-indexed unknowns, which couple only to odd ones, and
    leaves the odd ones a tridiagonal Schur complement (Buzbee, Golub and
    Nielson, SIAM J. Numer. Anal. 7, 1970): ``a'_k = a_{2k+1} -
    c_{2k} / a_{2k} - c_{2k+1} / a_{2k+2}``, ``c'_k = c_{2k+1} c_{2k+2} /
    a_{2k+2}**2``.  A Schur complement of a definite matrix is definite, so
    every diagonal entry of every level is tested: an overflow to ``-inf``
    is caught before it can meet a zero, a NaN only follows a nonpositive
    entry, and ``fmin`` skips it.
    """
    lowest = np.min(a, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while a.shape[1] > 1:
            half = a.shape[1] // 2
            left = c[:, 0::2] / a[:, 0:2 * half:2]
            right = c[:, 1::2] / a[:, 2::2]
            a = a[:, 1::2] - left
            a[:, :right.shape[1]] -= right
            c = right[:, :half - 1] * left[:, 1:]
            np.fmin(lowest, np.min(a, axis=1), out=lowest)
    return lowest <= 0.0


def _continuity(f_vals: np.ndarray, d_vals: np.ndarray, sqrt_fd: float, d_sup: float,
                context: RescaledContext, B0: float, C0: float) -> dict:
    """Indicative continuity and Garding-coercivity constants of the weak form."""
    if np.any(f_vals <= 0.0):
        raise AssumptionError("(9)", "coefficient ratios unbounded on [0, 1)")
    sqrt_df = math.sqrt(_sup_ratio(d_vals, f_vals))
    if math.isinf(sqrt_fd) or math.isinf(sqrt_df):
        raise AssumptionError("(9)", "coefficient ratios overflow on [0, 1)")
    sqrt_d_sup = math.sqrt(d_sup)
    c_p = 2.0 * B0
    try:
        big_c = (1.0 + c_p * context.mcoef * sqrt_d_sup + context.gcoef * c_p**2
                 + context.fcoef * sqrt_fd + context.fcoef * C0**2)
    except OverflowError:  # float ** raises where * gives inf: the constant is unbounded
        big_c = math.inf
    small_c = context.mcoef * sqrt_df + context.fcoef * sqrt_fd
    eps = 0.5 * min(1.0 / small_c, 1.0) if small_c > 0.0 else 0.5
    c1 = 1.0 - small_c * eps / 2.0
    c2 = 1.0 + small_c / (2.0 * eps) if small_c > 0.0 else 1.0
    return {"C": big_c, "c": small_c, "C1": c1, "C2": c2, "epsilon": eps}


@dataclass(frozen=True)
class StabilityReport:
    """Flat diagnostic record; values are grid estimates, not sharp bounds."""

    lipschitz_L: float
    ratio_sup_Df: float
    ratio_sup_fD: float
    B0: float
    C0: float
    I_D: float
    I_D_divergent: bool
    f_underbar_h: float
    K_G: float
    dt_max: float
    continuity: dict = field(default_factory=dict)
    pd_verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        flat = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("continuity", "pd_verdicts")}
        for key, value in self.continuity.items():
            flat[f"continuity_{key}"] = value
        for name, verdict in self.pd_verdicts.items():
            flat[f"pd_{name}"] = verdict.positive_definite
            flat[f"min_sym_eig_{name}"] = verdict.min_eigenvalue
        return flat

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            text = str(value).lower() if isinstance(value, bool) else f"{value:.17g}"
            lines.append(f"{key}: {text}")
        return "\n".join(lines) + "\n"


def build_report(f_profile, d_profile, mesh, context: RescaledContext,
                 c_D: float = 1.0) -> StabilityReport:
    """Run the full diagnostic pipeline for one configuration.

    The ``dt = "auto"`` plan's report, so ``V`` is taken at ``min(0.9 * dt_max, 1)``.
    """
    return plan_run(f_profile, d_profile, mesh, context, c_D).report


@dataclass(eq=False)  # holds the operators: compared and hashed by identity
class Plan:
    """Everything a run derives before its first step, each quantity once.

    The ``operators`` at the run's step, the one step the plan certifies and
    reports, with their mesh and ``dt``, and the checks' ``constants`` of
    :func:`plan_run`; ``replace(plan.operators, dt=...)`` gives another step.
    A forced run past a failed check has neither constants nor report, and
    knows ``dt_max`` only if the bound came before the failure or picked the step.
    """

    operators: assembly.DiscreteSystem = field(repr=False)
    dt_max: float | None = None
    constants: dict | None = field(default=None, repr=False)

    @cached_property
    def report(self) -> StabilityReport | None:
        """The constants and the seven PD verdicts at the run's step, built on first read."""
        if self.constants is None:
            return None
        matrices = {name: getattr(self.operators, name)
                    for name in ("M", "Mf", "Kf", "A", "S", "B", "V")}
        return StabilityReport(pd_verdicts=check_pd_all(matrices), **self.constants)


def plan_run(f_profile: CoefficientProfile, d_profile: CoefficientProfile, mesh: Mesh,
             context: RescaledContext, c_D: float = 1.0, dt="auto", force: bool = False) -> Plan:
    """Admissibility plan of one run: every check, the step bound, then one assembly.

    Every caller runs every check that can refuse a config, in this order:
    assumptions (5) and (6), condition (cond:WI) through ``B0``, the trace
    constant ``C0``, the step bound, continuity (9), a step above ``dt_max``
    (:class:`TimeStepError`), and last the certificate of every step up to
    the plan's, an :class:`AssumptionError`: the report's rule :func:`_certified`
    on ``Mf`` and ``V`` at the plan's step.  ``sym V(theta dt) = (1 - theta)
    sym Mf + theta sym V(dt)``, and ``max|V(theta dt)|`` is at most the same
    blend of the two maxima, so the pair covers a shorter last step.  ``dt``
    is a number or ``"auto"``, which becomes ``min(0.9 * dt_max, 1)``.  Only
    reading :attr:`Plan.report` adds the PD verdicts, at the plan's step.
    Each profile is sampled at the nodes once, which also gives ``D(1)``.
    The integral of ``1/D`` is computed once and also gives ``B0``; ``C0``
    and the continuity constants share one sample of f and D, and its
    ``sup f/D`` and ``sup D``.  Under ``force`` a failed check drops the
    constants and the run goes on with the node samples; the step bound is
    computed after the failure only to pick an ``"auto"`` step.  An argument of another
    type than its annotation, a ``c_D`` that is not a number in (0, 2) or a ``dt`` that is
    neither ``"auto"`` nor a real number in (0, 1] of at most ``_MAX_STEPS`` steps raises
    :class:`ValidationError` first, and a non-finite profile value where it is sampled,
    ``force`` or not.
    """
    for name, value, kind in (("f_profile", f_profile, CoefficientProfile),
                              ("d_profile", d_profile, CoefficientProfile),
                              ("mesh", mesh, Mesh), ("context", context, RescaledContext)):
        if not isinstance(value, kind):
            raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")
    c_D = _finite("c_D", c_D)
    if not 0.0 < c_D < 2.0:
        raise ValidationError(f"c_D must lie in (0, 2), got {c_D}")
    auto = isinstance(dt, str) and dt == "auto"
    if not auto and (isinstance(dt, bool) or not isinstance(dt, numbers.Real)):
        raise ValidationError(f"time step must be a number or 'auto', got {dt!r}")
    if not auto:
        _time_grid(dt)
    f_nodes, d_nodes = f_profile(mesh.nodes), d_profile(mesh.nodes)
    d_bottom = float(d_nodes[-1])  # the last node is z = 1
    grid, cum_inv_d, inv_d = _inverse_integral(d_profile, d_bottom, context.z_F)
    bound = constants = None
    try:
        _check_node_samples(f_nodes, f_profile.upper_bound, mesh, "(5)")
        _check_node_samples(d_nodes, d_profile.upper_bound, mesh, "(6)")
        lipschitz = _estimate_lipschitz(d_profile, mesh, hi=1.0)
        ratios = {"ratio_sup_Df": _sup_ratio(d_nodes[:-1], f_nodes[:-1]),
                  "ratio_sup_fD": _sup_ratio(f_nodes[:-1], d_nodes[:-1])}
        if math.isinf(inv_d[0]):
            raise AssumptionError("(6)", "diffusivity vanishes inside [0, 1)")
        b0 = _hardy_constant(cum_inv_d, grid, context.z_F)
        del grid, cum_inv_d
        body = np.linspace(0.0, 1.0 - _TRUNC, 20001)  # one sample for C0 and continuity (9)
        f_vals, d_vals = f_profile(body), d_profile(body)
        if np.any(d_vals <= 0.0):
            raise AssumptionError("(6)", "diffusivity vanishes inside [0, 1)")
        sqrt_fd = math.sqrt(_sup_ratio(f_vals, d_vals))
        d_sup = max(float(np.max(d_vals)), d_bottom)
        c0 = _trace_constant(sqrt_fd, d_sup, d_bottom, lipschitz, b0, inv_d[0])
        bound = _step_bound(f_profile, d_profile, mesh, context, c_D, inv_d)
        constants = dict(
            B0=b0, C0=c0, continuity=_continuity(f_vals, d_vals, sqrt_fd, d_sup, context, b0, c0),
            lipschitz_L=lipschitz, **ratios, **bound)
    except FirngasError as error:
        if not force or isinstance(error, ValidationError):  # an argument it cannot take
            raise
    if bound is None and auto:
        bound = _step_bound(f_profile, d_profile, mesh, context, c_D, inv_d)
    dt_max = bound["dt_max"] if bound else None
    step = min(_DT_SAFETY * dt_max, 1.0) if auto else float(dt)
    if not (auto or force) and step > dt_max:
        raise TimeStepError(step, dt_max)
    operators = assembly.assemble_system(mesh, f_nodes, d_nodes, context, step)
    if not (force or _certified([operators.Mf, operators.V]).all()):
        raise AssumptionError("(PD)", "step matrix Mf + T_e dt C not certified positive "
                              f"definite for dt in (0, {step:.17g}]")
    return Plan(operators, dt_max, constants)


def _time_grid(dt: float) -> tuple[int, float]:
    """Step count K and last step of the grid ``t_k = k * dt``, ``t_K = 1``, in one rule.

    A gap within ``_GRID_TOL`` is rounding: ``K = ceil((1 - _GRID_TOL) / dt)``
    joins a shorter remainder to the last step, and a last step that close to
    ``dt`` is ``dt``.  So no step is shorter than ``_GRID_TOL``, and the levels
    of ``dt`` are bitwise the even levels of ``dt / 2``.  A ``dt`` outside (0, 1],
    or a K above ``_MAX_STEPS`` before rounding, raises :class:`ValidationError`.
    """
    if not 0.0 < dt <= 1.0:
        raise ValidationError(f"time step must lie in (0, 1], got {dt!r}")
    dt = float(dt)
    steps = (1.0 - _GRID_TOL) / dt
    if steps > _MAX_STEPS:
        raise ValidationError(f"time step {dt:.17g} needs {steps:.6g} steps, more than the "
                              f"limit of {_MAX_STEPS:,}")
    n_steps = math.ceil(steps)
    last = 1.0 - (n_steps - 1) * dt
    return n_steps, dt if abs(last - dt) <= _GRID_TOL else last


def _step_bound(f_profile, d_profile, mesh, context: RescaledContext, c_D: float,
                inv_d: tuple[float, bool]) -> dict:
    """The report's ``I_D``, ``f_underbar_h``, ``K_G`` and ``dt_max`` from the integral."""
    h = mesh.h_min
    f_underbar = _compute_fh(f_profile, h)
    l_delta = _estimate_lipschitz(d_profile, mesh, hi=1.0 - h)
    k_g = _defect_constant(*inv_d, context.mcoef, c_D, l_delta)
    dt_max = _compute_dt_max(h, context, f_underbar, k_g)
    return {"I_D": inv_d[0], "I_D_divergent": inv_d[1], "f_underbar_h": f_underbar,
            "K_G": k_g, "dt_max": dt_max}
