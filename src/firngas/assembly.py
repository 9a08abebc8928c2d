"""Tridiagonal assembly of the discrete firn transport system.

All matrices act on the interior-plus-bottom coefficient vector of length
``n - 1``: row ``k`` corresponds to the hat function centred at node
``k + 1`` (0-based), see :mod:`firngas.mesh`.  The weighted matrices use
the endpoint-average (mean value theorem) quadrature of the node-sampled
weights; the mass matrix is exact.

Against the exact Galerkin integrals of the same weights, the max entry
deviation of each weighted matrix shrinks under mesh halving at order 2 for
``Mf`` and at order 1 for ``Kf``, ``A`` and ``S``.  For ``Kf``/``A`` with
affine weight f, the interior diagonal entry of node ``i`` deviates by
``(f[i-1] - f[i+1]) / 12`` and its off-diagonal by ``(f[i+1] - f[i]) / 12``,
both O(h).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import RescaledContext

__all__ = [
    "Tridiagonal",
    "DiscreteSystem",
    "assemble_M",
    "assemble_Mf",
    "assemble_Kf",
    "assemble_A",
    "assemble_S",
    "assemble_B",
    "assemble_system",
    "surface_v1",
    "surface_v3",
    "assemble_v1",
    "assemble_v3",
    "assemble_rhs",
]


@dataclass(frozen=True)
class Tridiagonal:
    """Square tridiagonal matrix stored as three bands.

    ``sub[s]`` couples row ``s+1`` to column ``s``; ``sup[s]`` couples row
    ``s`` to column ``s+1``.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)
        if len(sub) != len(diag) - 1 or len(sup) != len(diag) - 1:
            raise ValidationError("inconsistent band lengths")
        if not (np.all(np.isfinite(sub)) and np.all(np.isfinite(diag)) and np.all(np.isfinite(sup))):
            raise ValidationError("non-finite matrix entry")

    @property
    def dim(self) -> int:
        return len(self.diag)

    @classmethod
    def zeros(cls, dim: int) -> "Tridiagonal":
        return cls(np.zeros(dim - 1), np.zeros(dim), np.zeros(dim - 1))

    def to_dense(self) -> np.ndarray:
        dense = np.diag(self.diag)
        dense += np.diag(self.sub, -1)
        dense += np.diag(self.sup, 1)
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.diag * x
        out[1:] += self.sub * x[:-1]
        out[:-1] += self.sup * x[1:]
        return out

    def __add__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.sub + other.sub, self.diag + other.diag, self.sup + other.sup)

    def __sub__(self, other: "Tridiagonal") -> "Tridiagonal":
        return Tridiagonal(self.sub - other.sub, self.diag - other.diag, self.sup - other.sup)

    def scale(self, factor: float) -> "Tridiagonal":
        return Tridiagonal(factor * self.sub, factor * self.diag, factor * self.sup)

    def max_abs(self) -> float:
        return max(
            np.max(np.abs(self.diag)),
            np.max(np.abs(self.sub), initial=0.0),
            np.max(np.abs(self.sup), initial=0.0),
        )


def assemble_M(mesh) -> Tridiagonal:
    """Exact mass matrix of the interior-plus-bottom basis."""
    el = mesh.element_lengths
    m = mesh.n - 1
    diag = np.empty(m)
    diag[: m - 1] = (el[: m - 1] + el[1:m]) / 3.0
    diag[m - 1] = el[m - 1] / 3.0
    band = el[1:m] / 6.0
    return Tridiagonal(band.copy(), diag, band.copy())


def assemble_Mf(mesh, f_samples) -> Tridiagonal:
    """Weighted mass matrix from node samples of the pore fraction."""
    f = np.asarray(f_samples, dtype=float)
    el = mesh.element_lengths
    m = mesh.n - 1
    pair = (f[:-1] + f[1:]) / 2.0  # element averages, pair[e] on element e
    diag = np.empty(m)
    diag[: m - 1] = pair[1:m] * el[1:m] / 3.0 + pair[: m - 1] * el[: m - 1] / 3.0
    diag[m - 1] = pair[m - 1] * el[m - 1] / 3.0
    band = pair[1:m] * el[1:m] / 6.0
    return Tridiagonal(band.copy(), diag, band.copy())


def assemble_Kf(mesh, f_samples, fcoef: float) -> Tridiagonal:
    """Advection matrix (derivative on the row basis), scaled by ``fcoef``."""
    f = np.asarray(f_samples, dtype=float)
    m = mesh.n - 1
    diag = np.empty(m)
    diag[: m - 1] = f[: m - 1] - f[2:]
    diag[m - 1] = f[m - 1] + f[m]
    band = f[1:m] + f[2:]
    return Tridiagonal((fcoef / 4.0) * band, (fcoef / 4.0) * diag, -(fcoef / 4.0) * band)


def assemble_A(mesh, d_samples) -> Tridiagonal:
    """Gravitational-drift matrix; same pattern as the advection matrix."""
    return assemble_Kf(mesh, d_samples, 1.0)


def assemble_S(mesh, d_samples) -> Tridiagonal:
    """Stiffness matrix of the diffusivity-weighted derivative products."""
    d = np.asarray(d_samples, dtype=float)
    el = mesh.element_lengths
    m = mesh.n - 1
    flux = (d[:-1] + d[1:]) / (2.0 * el)  # flux[e] on element e
    diag = np.empty(m)
    diag[: m - 1] = flux[: m - 1] + flux[1:m]
    diag[m - 1] = flux[m - 1]
    band = -flux[1:m]
    return Tridiagonal(band.copy(), diag, band.copy())


def assemble_B(mesh, f_samples, fcoef: float) -> Tridiagonal:
    """Bottom boundary matrix: zero except the last diagonal entry."""
    f = np.asarray(f_samples, dtype=float)
    m = mesh.n - 1
    out = Tridiagonal.zeros(m)
    out.diag[m - 1] = fcoef * f[m]
    return out


@dataclass(frozen=True)
class DiscreteSystem:
    """All assembled operators for one mesh / coefficient / time-step choice."""

    mesh: object
    f_samples: np.ndarray
    d_samples: np.ndarray
    context: RescaledContext
    dt: float
    M: Tridiagonal
    Mf: Tridiagonal
    Kf: Tridiagonal
    A: Tridiagonal
    S: Tridiagonal
    B: Tridiagonal
    C: Tridiagonal
    V: Tridiagonal = field(init=False)  # Mf + T_e * dt * C, the one step-dependent operator

    def __post_init__(self):
        if self.dt < 0.0:
            raise ValidationError("time step must be nonnegative")
        object.__setattr__(self, "V", self.Mf + self.C.scale(self.context.T_e * self.dt))


def assemble_system(mesh, f_samples, d_samples, context: RescaledContext,
                    dt: float) -> DiscreteSystem:
    """Assemble every operator and the implicit-Euler step matrix.

    The spatial operator combines reaction, diffusion, gravitational drift,
    advection and the bottom boundary term; the step matrix adds the
    weighted mass matrix.
    """
    f = np.asarray(f_samples, dtype=float)
    d = np.asarray(d_samples, dtype=float)
    if len(f) != mesh.n or len(d) != mesh.n:
        raise ValidationError("coefficient samples must be given at every node")
    z_F = context.z_F
    with np.errstate(over="ignore", invalid="ignore"):  # Tridiagonal refuses what overflows
        M = assemble_M(mesh)
        Mf = assemble_Mf(mesh, f)
        Kf = assemble_Kf(mesh, f, context.fcoef)
        A = assemble_A(mesh, d)
        S = assemble_S(mesh, d)
        B = assemble_B(mesh, f, context.fcoef)
        C = (M.scale(context.gcoef)
             + S.scale(1.0 / z_F**2)
             - A.scale(context.mcoef / z_F)
             + (B - Kf).scale(1.0 / z_F))
    return DiscreteSystem(mesh, f, d, context, dt, M, Mf, Kf, A, S, B, C)


def surface_v1(rho_k, rho_k1, mesh, f_samples):
    """Row 0 of ``v1`` for a step from boundary value ``rho_k`` to ``rho_k1``.

    Elementwise on arrays of boundary values, one entry per step.
    """
    f = np.asarray(f_samples, dtype=float)
    return (rho_k1 - rho_k) * (f[0] + f[1]) * mesh.element_lengths[0] / 12.0


def surface_v3(rho_k1, mesh, f_samples, d_samples, context: RescaledContext):
    """Row 0 of ``v3`` for a step ending at boundary value ``rho_k1``.

    Elementwise on arrays of boundary values, one entry per step.
    """
    f = np.asarray(f_samples, dtype=float)
    d = np.asarray(d_samples, dtype=float)
    h2 = mesh.element_lengths[0]
    z_F = context.z_F
    c1 = (context.gcoef * h2 / 6.0
          - (d[0] + d[1]) / (2.0 * h2 * z_F**2)
          - context.fcoef * (f[0] + f[1]) / (4.0 * z_F)
          - context.mcoef * (d[0] + d[1]) / (4.0 * z_F))
    return rho_k1 * c1


# Full-length forms of one step's forcing and right-hand side, for verification;
# the time loop applies the row-0 forms above.
def assemble_v1(t_k: float, t_k1: float, atmosphere, mesh, f_samples) -> np.ndarray:
    """Boundary forcing from the change of the atmospheric signal."""
    out = np.zeros(mesh.n - 1)
    out[0] = surface_v1(atmosphere(t_k), atmosphere(t_k1), mesh, f_samples)
    return out


def assemble_v3(t_k1: float, atmosphere, mesh, f_samples, d_samples,
                context: RescaledContext) -> np.ndarray:
    """Boundary forcing from the spatial operator acting on the surface hat."""
    out = np.zeros(mesh.n - 1)
    out[0] = surface_v3(atmosphere(t_k1), mesh, f_samples, d_samples, context)
    return out


def assemble_rhs(lam_k: np.ndarray, v1: np.ndarray, v3: np.ndarray,
                 Mf: Tridiagonal, T_e: float, dt: float) -> np.ndarray:
    """Right-hand side of one implicit step: ``Mf @ lam_k - v1 - T_e*dt*v3``."""
    lam_k = np.asarray(lam_k, dtype=float)
    if len(lam_k) != Mf.dim or len(v1) != Mf.dim or len(v3) != Mf.dim:
        raise ValidationError("right-hand-side dimension mismatch")
    return Mf.matvec(lam_k) - v1 - T_e * dt * v3

