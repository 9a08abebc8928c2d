"""Admissibility diagnostics and stability constants for the discrete scheme.

All constants are grid-estimated: suprema and minima are taken over dense
sample grids, integrals use composite trapezoid with a graded tail towards
the possibly singular bottom ``z = 1``.  They are indicative diagnostics,
not sharp analytic values.  The positive-definiteness verdicts are exact up
to rounding: bisection on an O(n) odd-even reduction inertia test of the
symmetric tridiagonal part of each band matrix, with no size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assembly
from .errors import AssumptionError, FirngasError, TimeStepError, ValidationError
from .model import RescaledContext

__all__ = [
    "PDVerdict",
    "StabilityReport",
    "check_assumptions",
    "estimate_lipschitz",
    "compute_fh",
    "compute_dt_max",
    "check_pd_all",
    "build_report",
    "Plan",
    "plan_run",
]

_TRUNC = 1e-8          # truncation of singular integrands near z = 1
_DIVERGENCE_GROWTH = 0.01  # >1% growth per truncation refinement -> divergent
_DT_SAFETY = 0.9       # safety factor on the auto-selected time step
_EPS = float(np.finfo(float).eps)


def _tail_grid() -> np.ndarray:
    """Uniform grid on [0, 0.9] plus a log-graded tail towards 1 - 1e-8."""
    body = np.linspace(0.0, 0.9, 20001)
    tail = 1.0 - np.logspace(-1, math.log10(_TRUNC), 5000)
    return np.concatenate([body, tail[tail > body[-1]]])


def _body_samples(f_profile, d_profile) -> tuple[np.ndarray, np.ndarray]:
    """f and D on the uniform grid of [0, 1 - 1e-8] behind C0 and the continuity constants."""
    grid = np.linspace(0.0, 1.0 - _TRUNC, 20001)
    return np.asarray(f_profile(grid), dtype=float), np.asarray(d_profile(grid), dtype=float)


def _cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    steps = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    return np.concatenate([[0.0], np.cumsum(steps)])


def _sup_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """``max(num / den)`` over positive samples; a ratio that overflows gives ``inf``."""
    with np.errstate(over="ignore"):
        return float(np.max(num / den))


def check_assumptions(f_profile, d_profile, mesh) -> dict:
    """Verify node-wise admissibility of the coefficient pair.

    Returns the checked node samples, Lipschitz estimate and ratio suprema;
    raises :class:`AssumptionError` naming the failed assumption otherwise.
    """
    f_nodes = f_profile.node_samples(mesh, assumption="(5)")
    d_nodes = d_profile.node_samples(mesh, assumption="(6)")
    lipschitz = estimate_lipschitz(d_profile, hi=1.0, grid_points=4 * (mesh.n - 1) + 1)
    interior_f = f_nodes[:-1]
    interior_d = d_nodes[:-1]
    return {
        "f_nodes": f_nodes,
        "d_nodes": d_nodes,
        "lipschitz_L": lipschitz,
        "ratio_sup_Df": _sup_ratio(interior_d, interior_f),
        "ratio_sup_fD": _sup_ratio(interior_f, interior_d),
    }


def estimate_lipschitz(profile, hi: float = 1.0, grid_points: int = 4001) -> float:
    """Max divided difference of a profile over [0, hi]."""
    if not 0.0 < hi <= 1.0:
        raise ValidationError("Lipschitz window must lie in (0, 1]")
    grid = np.linspace(0.0, hi, max(grid_points, 3))
    values = np.asarray(profile(grid), dtype=float)
    return float(np.max(np.abs(np.diff(values) / np.diff(grid))))


def _hardy_constant(v_vals: np.ndarray, cum_inv_w: np.ndarray, grid: np.ndarray,
                    z_F: float) -> float:
    """Weighted Poincare/Hardy constant ``z_F sup_z (int_z^1 v)^{1/2} (int_0^z 1/w)^{1/2}``."""
    cum_v = _cumulative_trapezoid(v_vals, grid)
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
        inv = 1.0 / np.maximum(np.asarray(weight(points), dtype=float), 0.0)
    cum = _cumulative_trapezoid(inv, points)
    coarse = float(cum[:grid.size][grid <= 1.0 - 1e-4][-1])
    full = float(cum[-1])
    divergent = not np.isfinite(full) or (
        not closed and full > (1.0 + _DIVERGENCE_GROWTH) * max(coarse, 1e-300))
    return grid, cum[:grid.size], (z_F * full, divergent)


def _trace_constant(f_vals: np.ndarray, d_vals: np.ndarray, d_bottom: float,
                    lipschitz_L: float, B0: float, integral: float) -> float:
    """Trace constant bounding the weighted bottom value; ``integral`` is ``z_F int 1/D``."""
    if np.any(d_vals <= 0.0):
        raise AssumptionError("(6)", "diffusivity vanishes inside [0, 1)")
    ratio_sup = math.sqrt(_sup_ratio(f_vals, d_vals))
    if d_bottom > 0.0:
        return ratio_sup * max(float(np.max(d_vals)), d_bottom) * integral
    return ratio_sup * lipschitz_L * B0**2


def compute_fh(f_profile, h: float) -> float:
    """Minimum of the pore fraction over [0, 1 - h]."""
    if not 0.0 < h < 1.0:
        raise ValidationError("element size must lie in (0, 1)")
    grid = np.linspace(0.0, 1.0 - h, 50001)
    value = float(np.min(np.asarray(f_profile(grid), dtype=float)))
    if value <= 0.0:
        raise AssumptionError("(5)", "pore fraction not strictly positive away from the bottom")
    return value


def _defect_constant(integral: float, divergent: bool, mcoef: float, c_D: float,
                     L_delta: float) -> float:
    """Coercivity-defect constant of the drift-diffusion quadratic form.

    A divergent ``int 1/D`` drops its term: the conservative limit for the step bound.
    """
    if not 0.0 < c_D < 2.0:
        raise ValidationError(f"c_D must lie in (0, 2), got {c_D}")
    if divergent:
        inv_term = 0.0
    else:
        inv_term = 1.0 / (2.0 * c_D * integral)
    return inv_term - (mcoef / 2.0) * L_delta


def compute_dt_max(h: float, z_F: float, T_e: float, fcoef: float, gcoef: float,
                   f_underbar_h: float, K_G: float) -> float:
    """Sufficient time-step bound for unique solvability of each step."""
    for name, value in (("h", h), ("z_F", z_F), ("T_e", T_e), ("f_underbar_h", f_underbar_h)):
        if value <= 0.0:
            raise ValidationError(f"{name} must be strictly positive")
    if fcoef < 0.0 or gcoef < 0.0:
        raise ValidationError("coefficients must be nonnegative")
    first = h / fcoef if fcoef > 0.0 else math.inf
    denom = abs(z_F * gcoef - abs(K_G))
    second = f_underbar_h / (4.0 * denom) if denom > 0.0 else math.inf
    return (z_F / (6.0 * T_e)) * min(first, second)


@dataclass(frozen=True)
class PDVerdict:
    positive_definite: bool
    min_eigenvalue: float


def check_pd_all(matrices: dict) -> dict:
    """Positive definiteness of the symmetric part of each named band matrix of one dimension.

    A verdict holds when the smallest eigenvalue of the symmetric part
    exceeds ``1e-12 * max|entry|``, so an all-zero matrix is not definite.
    """
    eigs = _min_sym_eigenvalues(list(matrices.values()))
    return {name: PDVerdict(bool(eig > 1e-12 * matrix.max_abs()), float(eig))
            for (name, matrix), eig in zip(matrices.items(), eigs)}


_ULPS = 4.0          # stop once the bracket is this many epsilons of its ends wide ...
_FLOOR = 1e-18       # ... or about this fraction of max|T|, far below the PD threshold
_MAX_SWEEPS = 62     # halvings that take the first bracket, under 4 wide, below the floor


def _min_sym_eigenvalues(matrices: list) -> np.ndarray:
    """Smallest eigenvalue of each ``(T + T^T) / 2`` by bisection on a definiteness test.

    The symmetric part of a band matrix ``T`` is tridiagonal with diagonal
    ``d`` and off-diagonal ``e = (sub + sup) / 2``.  Its smallest
    eigenvalue lies in ``[min(d - |e_left| - |e_right|), min(d)]``
    (Gershgorin and the Rayleigh quotient) and is above ``sigma`` iff
    ``T - sigma I`` is definite.  Each step halves the bracket of every
    unfinished matrix, all tested in one :func:`_has_nonpositive_pivot`.
    Each matrix is first scaled by a power of two to ``max|entry|`` in
    ``[1, 2)``, without rounding, so that ``e**2`` cannot overflow, and can
    underflow only where ``e`` is far below the floor.
    """
    d = np.stack([matrix.diag for matrix in matrices])
    e = np.abs(np.stack([(matrix.sub + matrix.sup) / 2.0 for matrix in matrices]))
    largest = np.maximum(np.max(np.abs(d), axis=1), np.max(e, axis=1, initial=0.0))
    scale = np.ldexp(1.0, np.frexp(largest)[1] - 1)[:, None]
    d /= scale
    e /= scale
    lo = np.min(d - np.pad(e, ((0, 0), (1, 0))) - np.pad(e, ((0, 0), (0, 1))), axis=1)
    hi = np.min(d, axis=1)
    e2 = np.square(e, out=e)
    for _ in range(_MAX_SWEEPS):
        tol = np.maximum(_ULPS * _EPS * np.maximum(np.abs(lo), np.abs(hi)), _FLOOR)
        rows = np.flatnonzero(hi - lo > tol)
        if rows.size == 0:
            break
        sigma = (lo[rows] + hi[rows]) / 2.0
        at_or_above = _has_nonpositive_pivot(d[rows] - sigma[:, None], e2[rows])
        hi[rows[at_or_above]] = sigma[at_or_above]
        lo[rows[~at_or_above]] = sigma[~at_or_above]
    return (lo + hi) / 2.0 * scale[:, 0]


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


def _continuity(f_vals: np.ndarray, d_vals: np.ndarray, d_bottom: float,
                context: RescaledContext, B0: float, C0: float) -> dict:
    """Indicative continuity and Garding-coercivity constants of the weak form."""
    if np.any(f_vals <= 0.0) or np.any(d_vals <= 0.0):
        raise AssumptionError("(9)", "coefficient ratios unbounded on [0, 1)")
    sqrt_fd = math.sqrt(_sup_ratio(f_vals, d_vals))
    sqrt_df = math.sqrt(_sup_ratio(d_vals, f_vals))
    if math.isinf(sqrt_fd) or math.isinf(sqrt_df):
        raise AssumptionError("(9)", "coefficient ratios overflow on [0, 1)")
    sqrt_d_sup = float(np.sqrt(max(np.max(d_vals), d_bottom)))
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
            if isinstance(value, bool):
                lines.append(f"{key}: {str(value).lower()}")
            elif isinstance(value, float):
                lines.append(f"{key}: {value:.17g}")
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def build_report(f_profile, d_profile, mesh, context: RescaledContext,
                 c_D: float = 1.0) -> StabilityReport:
    """Run the full diagnostic pipeline for one configuration.

    The step-matrix verdict is taken at the auto-selected ``min(0.9 * dt_max, 1)``.
    """
    return plan_run(f_profile, d_profile, mesh, context, c_D, report=True).report


@dataclass
class Plan:
    """Everything a run derives before its first step, each quantity once.

    A record of the ``operators`` that :func:`plan_run` assembled.  A
    forced run past a failed check has no report, and knows ``dt_max``
    only if the bound was computed before the failure or picked the step.
    """

    mesh: object
    operators: assembly.DiscreteSystem = field(repr=False)
    dt: float
    dt_max: float | None = None
    report: StabilityReport | None = None

    def system(self, dt: float) -> assembly.DiscreteSystem:
        """The plan's operators with the step matrix of ``dt``; another step derives only ``V``."""
        return self.operators if dt == self.operators.dt else replace(self.operators, dt=dt)


def plan_run(f_profile, d_profile, mesh, context: RescaledContext, c_D: float = 1.0,
             dt="auto", force: bool = False, report: bool = False) -> Plan:
    """Admissibility plan of one run: every check, the step bound, then one assembly.

    Every caller runs every check that can refuse a config, in this order:
    assumptions (5) and (6), condition (cond:WI) through ``B0``, the trace
    constant ``C0``, the step bound, continuity (9), and last a step above
    ``dt_max`` (:class:`TimeStepError`).  ``dt = "auto"`` becomes
    ``min(0.9 * dt_max, 1)``.  ``report`` adds only the PD verdicts at the
    auto step and the :class:`StabilityReport` that records them with the
    checks' constants.  The integral of ``1/D`` is computed once and also
    gives ``B0``; ``C0`` and the continuity constants share one sample of
    f and D.  Under ``force`` a failed check drops the report and the run
    goes on with the node samples; the step bound is computed after the
    failure only to pick an ``"auto"`` step.
    """
    auto = dt is None or dt == "auto"
    d_bottom = float(d_profile(1.0))
    grid, cum_inv_d, inv_d = _inverse_integral(d_profile, d_bottom, context.z_F)
    nodes = bound = constants = None
    try:
        assumptions = check_assumptions(f_profile, d_profile, mesh)
        nodes = assumptions["f_nodes"], assumptions["d_nodes"]
        if math.isinf(inv_d[0]):
            raise AssumptionError("(6)", "diffusivity vanishes inside [0, 1)")
        b0 = _hardy_constant(np.ones_like(grid), cum_inv_d, grid, context.z_F)
        del grid, cum_inv_d
        f_vals, d_vals = _body_samples(f_profile, d_profile)
        c0 = _trace_constant(f_vals, d_vals, d_bottom, assumptions["lipschitz_L"], b0, inv_d[0])
        bound = _step_bound(f_profile, d_profile, mesh, context, c_D, inv_d)
        constants = dict(
            B0=b0, C0=c0, continuity=_continuity(f_vals, d_vals, d_bottom, context, b0, c0),
            **{key: assumptions[key] for key in ("lipschitz_L", "ratio_sup_Df", "ratio_sup_fD")},
            **bound)
    except FirngasError:
        if not force:
            raise
    if bound is None and auto:
        bound = _step_bound(f_profile, d_profile, mesh, context, c_D, inv_d)
    dt_max = bound["dt_max"] if bound else None
    step = _auto_step(dt_max) if auto else float(dt)
    if not (auto or force) and step > dt_max:
        raise TimeStepError(step, dt_max)
    f_nodes, d_nodes = nodes or (f_profile(mesh.nodes), d_profile(mesh.nodes))
    plan = Plan(mesh, assembly.assemble_system(mesh, f_nodes, d_nodes, context, step),
                step, dt_max)
    if report and constants:
        system = plan.system(_auto_step(dt_max))
        plan.report = StabilityReport(
            pd_verdicts=check_pd_all({name: getattr(system, name)
                                      for name in ("M", "Mf", "Kf", "A", "S", "B", "V")}),
            **constants)
    return plan


def _auto_step(dt_max: float) -> float:
    """The ``"auto"`` step: ``0.9 * dt_max``, at most the unit time interval."""
    return min(_DT_SAFETY * dt_max, 1.0)


def _step_bound(f_profile, d_profile, mesh, context: RescaledContext, c_D: float,
                inv_d: tuple[float, bool]) -> dict:
    """The report's ``I_D``, ``f_underbar_h``, ``K_G`` and ``dt_max`` from the integral."""
    h = mesh.h_min
    f_underbar = compute_fh(f_profile, h)
    l_delta = estimate_lipschitz(d_profile, hi=1.0 - h, grid_points=4 * (mesh.n - 1) + 1)
    k_g = _defect_constant(*inv_d, context.mcoef, c_D, l_delta)
    dt_max = compute_dt_max(h, context.z_F, context.T_e, context.fcoef, context.gcoef,
                            f_underbar, k_g)
    return {"I_D": inv_d[0], "I_D_divergent": inv_d[1], "f_underbar_h": f_underbar,
            "K_G": k_g, "dt_max": dt_max}
