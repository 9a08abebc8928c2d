"""Admissibility diagnostics and stability constants for the discrete scheme.

All constants are grid-estimated: suprema and minima are taken over dense
sample grids, integrals use composite trapezoid with a graded tail towards
the possibly singular bottom ``z = 1``.  They are indicative diagnostics,
not sharp analytic values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import assembly, oracle
from .errors import AssumptionError, FirngasError, TimeStepError, ValidationError
from .model import RescaledContext

__all__ = [
    "PDVerdict",
    "StabilityReport",
    "check_assumptions",
    "estimate_lipschitz",
    "compute_B0",
    "compute_hardy_B",
    "compute_C0",
    "compute_fh",
    "compute_KG",
    "compute_dt_max",
    "check_pd",
    "continuity_coercivity_constants",
    "build_report",
    "Plan",
    "plan_run",
]

_TRUNC = 1e-8          # truncation of singular integrands near z = 1
_DIVERGENCE_GROWTH = 0.01  # >1% growth per truncation refinement -> divergent
_DT_SAFETY = 0.9       # safety factor on the auto-selected time step


def _tail_grid(base_points: int = 20001) -> np.ndarray:
    """Uniform grid on [0, 0.9] plus a log-graded tail towards 1 - 1e-8."""
    body = np.linspace(0.0, 0.9, base_points)
    tail = 1.0 - np.logspace(-1, math.log10(_TRUNC), base_points // 4)
    return np.unique(np.concatenate([body, tail]))


def _cumulative_trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    steps = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    return np.concatenate([[0.0], np.cumsum(steps)])


def check_assumptions(f_profile, d_profile, mesh, grid_factor: int = 4) -> dict:
    """Verify node-wise admissibility of the coefficient pair.

    Returns the checked node samples, observed caps, Lipschitz estimate and
    ratio suprema; raises :class:`AssumptionError` naming the failed
    assumption otherwise.
    """
    f_nodes = f_profile.node_samples(mesh, assumption="(5)")
    d_nodes = d_profile.node_samples(mesh, assumption="(6)")
    lipschitz = estimate_lipschitz(d_profile, hi=1.0, grid_points=grid_factor * (mesh.n - 1) + 1)
    interior_f = f_nodes[:-1]
    interior_d = d_nodes[:-1]
    return {
        "f_nodes": f_nodes,
        "d_nodes": d_nodes,
        "f_max_observed": float(f_nodes.max()),
        "d_max_observed": float(d_nodes.max()),
        "lipschitz_L": lipschitz,
        "ratio_sup_Df": float(np.max(interior_d / interior_f)),
        "ratio_sup_fD": float(np.max(interior_f / interior_d)),
    }


def estimate_lipschitz(profile, hi: float = 1.0, grid_points: int = 4001) -> float:
    """Max divided difference of a profile over [0, hi]."""
    if not 0.0 < hi <= 1.0:
        raise ValidationError("Lipschitz window must lie in (0, 1]")
    grid = np.linspace(0.0, hi, max(grid_points, 3))
    values = np.asarray(profile(grid), dtype=float)
    return float(np.max(np.abs(np.diff(values) / np.diff(grid))))


def _hardy_product(v_integrand, w_integrand, grid: np.ndarray) -> np.ndarray:
    inv_w = w_integrand(grid)
    cum_inv_w = _cumulative_trapezoid(inv_w, grid)
    v_vals = v_integrand(grid)
    cum_v = _cumulative_trapezoid(v_vals, grid)
    tail_v = cum_v[-1] - cum_v
    return tail_v * cum_inv_w


def compute_hardy_B(v_weight, w_weight, z_F: float = 1.0,
                    grid: np.ndarray | None = None) -> float:
    """Grid estimate of the weighted Poincare/Hardy constant.

    ``B = sup_z (int_z^{z_F} v)^{1/2} (int_0^z 1/w)^{1/2}``; weights are
    callables on the rescaled depth [0, 1].  The reported constant carries
    the physical scaling through ``z_F``.
    """
    grid = _tail_grid() if grid is None else grid
    product = _hardy_product(lambda u: np.asarray(v_weight(u), dtype=float),
                             lambda u: 1.0 / np.maximum(np.asarray(w_weight(u), dtype=float), 1e-300),
                             grid)
    coarse_mask = grid <= 1.0 - 1e-4
    sup_coarse = float(np.max(product[coarse_mask]))
    sup_full = float(np.max(product))
    if not np.isfinite(sup_full) or (sup_full > (1.0 + _DIVERGENCE_GROWTH) * sup_coarse
                                     and sup_full > 1e-12):
        raise FirngasError("condition (cond:WI) violated: weighted Poincare constant diverges")
    return z_F * math.sqrt(sup_full)


def compute_B0(d_profile, z_F: float = 1.0, grid: np.ndarray | None = None) -> float:
    """Weighted Poincare constant for the diffusivity weight."""
    return compute_hardy_B(lambda u: np.ones_like(u), d_profile, z_F, grid)


def _integral_inv_d(d_profile, z_F: float) -> tuple[float, bool]:
    """``z_F * int_0^1 1/D`` with a truncation-growth divergence flag.

    The graded grid stops at ``1 - 1e-8``; when the bottom diffusivity is
    positive the last sliver is integrable and appended, so regular
    profiles are not short-changed by the truncation.
    """
    grid = _tail_grid()
    if float(d_profile(1.0)) > 0.0:
        grid = np.append(grid, 1.0)
    inv_d = 1.0 / np.maximum(np.asarray(d_profile(grid), dtype=float), 1e-300)
    cum = _cumulative_trapezoid(inv_d, grid)
    coarse = float(cum[grid <= 1.0 - 1e-4][-1])
    full = float(cum[-1])
    divergent = (not np.isfinite(full)) or full > (1.0 + _DIVERGENCE_GROWTH) * max(coarse, 1e-300)
    return z_F * full, divergent


def compute_C0(f_profile, d_profile, z_F: float, lipschitz_L: float, B0: float) -> float:
    """Trace constant bounding the weighted bottom value.

    Uses the nondegenerate branch (sup ratio times the inverse-diffusivity
    integral) when the bottom diffusivity is positive, the Lipschitz branch
    otherwise.
    """
    return _trace_constant(f_profile, d_profile, lipschitz_L, B0,
                           *_integral_inv_d(d_profile, z_F))


def _trace_constant(f_profile, d_profile, lipschitz_L: float, B0: float,
                    integral: float, divergent: bool) -> float:
    grid = np.linspace(0.0, 1.0 - _TRUNC, 20001)
    f_vals = np.asarray(f_profile(grid), dtype=float)
    d_vals = np.asarray(d_profile(grid), dtype=float)
    if np.any(d_vals <= 0.0):
        raise AssumptionError("(6)", "diffusivity vanishes inside [0, 1)")
    ratio_sup = float(np.sqrt(np.max(f_vals / d_vals)))
    if float(d_profile(1.0)) > 0.0:
        if divergent:
            raise FirngasError("inverse-diffusivity integral diverges in the nondegenerate branch")
        d_max = max(float(np.max(d_vals)), float(d_profile(1.0)))
        return ratio_sup * d_max * integral
    return ratio_sup * lipschitz_L * B0**2


def compute_fh(f_profile, h: float, grid_points: int = 50001) -> float:
    """Minimum of the pore fraction over [0, 1 - h]."""
    if not 0.0 < h < 1.0:
        raise ValidationError("element size must lie in (0, 1)")
    grid = np.linspace(0.0, 1.0 - h, grid_points)
    value = float(np.min(np.asarray(f_profile(grid), dtype=float)))
    if value <= 0.0:
        raise AssumptionError("(5)", "pore fraction not strictly positive away from the bottom")
    return value


def compute_KG(d_profile, z_F: float, mcoef: float, c_D: float,
               L_delta: float, on_divergence: str = "error") -> float:
    """Coercivity-defect constant of the drift-diffusion quadratic form.

    ``on_divergence`` controls the divergent inverse-diffusivity integral:
    ``"error"`` raises, ``"limit"`` uses the limiting value in which the
    integral term vanishes (the conservative choice for the step bound).
    """
    return _defect_constant(*_integral_inv_d(d_profile, z_F), mcoef, c_D, L_delta,
                            on_divergence)


def _defect_constant(integral: float, divergent: bool, mcoef: float, c_D: float,
                     L_delta: float, on_divergence: str) -> float:
    if not 0.0 < c_D < 2.0:
        raise ValidationError(f"c_D must lie in (0, 2), got {c_D}")
    if divergent:
        if on_divergence == "error":
            raise FirngasError("inverse-diffusivity integral diverges; defect constant undefined")
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


def check_pd(matrix) -> PDVerdict:
    """Positive definiteness of the symmetric part of a matrix."""
    min_eig = oracle.min_symmetric_eigenvalue(matrix)
    if isinstance(matrix, assembly.Tridiagonal):
        scale = matrix.max_abs()
    else:
        scale = float(np.max(np.abs(matrix)))
    return PDVerdict(bool(min_eig > 1e-12 * scale), min_eig)


def continuity_coercivity_constants(f_profile, d_profile, context: RescaledContext,
                                    B0: float, C0: float) -> dict:
    """Indicative continuity and Garding-coercivity constants of the weak form."""
    grid = np.linspace(0.0, 1.0 - _TRUNC, 20001)
    f_vals = np.asarray(f_profile(grid), dtype=float)
    d_vals = np.asarray(d_profile(grid), dtype=float)
    if np.any(f_vals <= 0.0) or np.any(d_vals <= 0.0):
        raise AssumptionError("(9)", "coefficient ratios unbounded on [0, 1)")
    sqrt_fd = float(np.sqrt(np.max(f_vals / d_vals)))
    sqrt_df = float(np.sqrt(np.max(d_vals / f_vals)))
    sqrt_d_sup = float(np.sqrt(max(np.max(d_vals), float(d_profile(1.0)))))
    c_p = 2.0 * B0
    big_c = (1.0 + c_p * context.mcoef * sqrt_d_sup + context.gcoef * c_p**2
             + context.fcoef * sqrt_fd + context.fcoef * C0**2)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def build_report(f_profile, d_profile, mesh, context: RescaledContext,
                 c_D: float = 1.0, dt: float | None = None) -> StabilityReport:
    """Run the full diagnostic pipeline for one configuration.

    ``dt`` is the step used for the step-matrix verdict; by default the
    auto-selected ``0.9 * dt_max``.
    """
    return plan_run(f_profile, d_profile, mesh, context, c_D,
                    report_dt="auto" if dt is None else dt).report


@dataclass
class Plan:
    """Everything a run derives before its first step, each quantity once.

    ``assumptions`` is the :func:`check_assumptions` record, node samples
    included.  A forced run past a failed check has none: it runs on raw
    node samples and knows the step bound only if it had to pick the step.
    """

    mesh: object
    context: RescaledContext
    f_nodes: np.ndarray
    d_nodes: np.ndarray
    dt: float
    assumptions: dict | None = None
    I_D: float | None = None
    I_D_divergent: bool | None = None
    f_underbar_h: float | None = None
    L_delta: float | None = None
    K_G: float | None = None
    dt_max: float | None = None
    report: StabilityReport | None = None
    _systems: dict = field(default_factory=dict, repr=False)

    def system(self, dt: float) -> assembly.DiscreteSystem:
        """Operators and step matrix for the step ``dt``, assembled once per step."""
        if dt not in self._systems:
            self._systems[dt] = assembly.assemble_system(self.mesh, self.f_nodes, self.d_nodes,
                                                         self.context, dt)
        return self._systems[dt]


def plan_run(f_profile, d_profile, mesh, context: RescaledContext, c_D: float = 1.0,
             dt="auto", force: bool = False, report_dt=None) -> Plan:
    """Admissibility plan of one run.

    ``dt = "auto"`` becomes ``0.9 * dt_max``; a step above ``dt_max`` raises
    :class:`TimeStepError` unless ``force``.  With ``report_dt`` (a step or
    ``"auto"``) the plan carries the :class:`StabilityReport`, its
    step-matrix verdict at that step; checks then fail in the report's order,
    the step bound last.  Under ``force`` a failed check drops the report
    and falls back to raw node samples, with the bound computed only to pick
    an ``"auto"`` step.
    """
    auto = dt is None or dt == "auto"
    try:
        assumptions = check_assumptions(f_profile, d_profile, mesh)
        inv_d = _integral_inv_d(d_profile, context.z_F)
        if report_dt is not None:
            b0 = compute_B0(d_profile, context.z_F)
            c0 = _trace_constant(f_profile, d_profile, assumptions["lipschitz_L"], b0, *inv_d)
        bound = _step_bound(f_profile, d_profile, mesh, context, c_D, inv_d)
        auto_dt = _DT_SAFETY * bound["dt_max"]
        plan = Plan(mesh, context, assumptions["f_nodes"], assumptions["d_nodes"],
                    auto_dt if auto else float(dt), assumptions, **bound)
        if report_dt is not None:
            system = plan.system(auto_dt if report_dt == "auto" else report_dt)
            verdicts = {name: check_pd(getattr(system, name))
                        for name in ("M", "Mf", "Kf", "A", "S", "B", "V")}
            plan.report = StabilityReport(
                B0=b0, C0=c0, pd_verdicts=verdicts,
                continuity=continuity_coercivity_constants(f_profile, d_profile, context,
                                                           b0, c0),
                **{key: assumptions[key]
                   for key in ("lipschitz_L", "ratio_sup_Df", "ratio_sup_fD")},
                **{key: bound[key]
                   for key in ("I_D", "I_D_divergent", "f_underbar_h", "K_G", "dt_max")})
        if not (auto or force) and plan.dt > plan.dt_max:
            raise TimeStepError(plan.dt, plan.dt_max)
        return plan
    except FirngasError:
        if not force:
            raise
    bound = _step_bound(f_profile, d_profile, mesh, context, c_D,
                        _integral_inv_d(d_profile, context.z_F)) if auto else {}
    return Plan(mesh, context, np.asarray(f_profile(mesh.nodes), dtype=float),
                np.asarray(d_profile(mesh.nodes), dtype=float),
                _DT_SAFETY * bound["dt_max"] if auto else float(dt), **bound)


def _step_bound(f_profile, d_profile, mesh, context: RescaledContext, c_D: float,
                inv_d: tuple[float, bool]) -> dict:
    """``f_underbar_h``, ``L_delta``, ``K_G`` and ``dt_max`` from the integral ``inv_d``."""
    h = mesh.h_min
    f_underbar = compute_fh(f_profile, h)
    l_delta = estimate_lipschitz(d_profile, hi=1.0 - h, grid_points=4 * (mesh.n - 1) + 1)
    k_g = _defect_constant(*inv_d, context.mcoef, c_D, l_delta, on_divergence="limit")
    dt_max = compute_dt_max(h, context.z_F, context.T_e, context.fcoef, context.gcoef,
                            f_underbar, k_g)
    return {"I_D": inv_d[0], "I_D_divergent": inv_d[1], "f_underbar_h": f_underbar,
            "L_delta": l_delta, "K_G": k_g, "dt_max": dt_max}
