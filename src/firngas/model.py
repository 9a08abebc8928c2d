"""Physical parameters, coefficient profiles, boundary data and rescaling.

The model lives on the rescaled unit square: depth ``z`` in ``[0, 1]``
(physical depth divided by the firn depth ``z_F``) and time ``t`` in
``[0, 1]`` (physical time divided by the final time ``T_e``).  Coefficient
profiles are therefore functions of the rescaled depth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionError, DomainError, ValidationError

__all__ = [
    "ModelParams",
    "RescaledContext",
    "CoefficientProfile",
    "AtmosphereSeries",
    "derive_coefficients",
    "rescale",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the firn transport model.

    Units: kg/mol, m/s^2, J/mol/K, K, 1/yr, 1/yr, m/yr, m/yr, m, yr.
    """

    M_alpha: float  # molar mass of the gas
    g: float        # gravitational acceleration
    R: float        # ideal-gas constant
    T: float        # mean firn temperature
    tau: float      # open <-> closed pore exchange rate
    lam: float      # radioactive decay rate
    v: float        # average descent speed
    w_air: float    # average air speed
    z_F: float      # firn depth
    T_e: float      # final physical time

    def __post_init__(self):
        for name in ("M_alpha", "g", "R", "T", "tau", "lam", "v", "w_air", "z_F", "T_e"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValidationError(f"ModelParams.{name} must be strictly positive, got {value!r}")
        if not 0.5 <= self.lam <= 0.999:
            warnings.warn(
                f"decay rate lam={self.lam} outside the tabulated range [0.5, 0.999]",
                stacklevel=2,
            )


@dataclass(frozen=True)
class RescaledContext:
    """Coefficients entering the rescaled weak form on the unit square."""

    T_e: float
    z_F: float
    mcoef: float  # gravitational drift coefficient, 1/m
    gcoef: float  # total removal rate, 1/yr
    fcoef: float  # total advection speed, m/yr

    def __post_init__(self):
        for name in ("T_e", "z_F"):
            if getattr(self, name) <= 0.0:
                raise ValidationError(f"RescaledContext.{name} must be strictly positive")
        for name in ("mcoef", "gcoef", "fcoef"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"RescaledContext.{name} must be nonnegative")


def derive_coefficients(params: ModelParams) -> tuple[float, float, float]:
    """Reduce the physical constants to the three coefficients of the PDE.

    Returns ``(mcoef, gcoef, fcoef)`` where ``mcoef = M_alpha*g/(R*T)``
    (1/m), ``gcoef = tau + lam`` (1/yr) and ``fcoef = v + w_air`` (m/yr).
    """
    mcoef = params.M_alpha * params.g / (params.R * params.T)
    gcoef = params.tau + params.lam
    fcoef = params.v + params.w_air
    return mcoef, gcoef, fcoef


def rescale(params: ModelParams) -> RescaledContext:
    """Build the rescaled-context record used by assembly and analysis."""
    mcoef, gcoef, fcoef = derive_coefficients(params)
    return RescaledContext(T_e=params.T_e, z_F=params.z_F, mcoef=mcoef, gcoef=gcoef, fcoef=fcoef)


_PROFILE_KINDS = ("constant", "affine", "firn_diffusion", "sampled")


@dataclass(frozen=True)
class CoefficientProfile:
    """A nonnegative coefficient function on the rescaled depth ``[0, 1]``.

    Supported kinds:

    ``constant``        value
    ``affine``          intercept + slope * z
    ``firn_diffusion``  d_eddy(z) + r_alpha*c_f*d_co2_air(z) for z <= z_eddy,
                        r_alpha*d_co2_air(z) for z > z_eddy
    ``sampled``         piecewise-linear interpolation of (z, value) samples

    ``upper_bound``, when set, caps admissible values; evaluation above the
    cap is an assumption failure, reported by :func:`node_samples`.
    """

    kind: str
    params: dict = field(default_factory=dict)
    upper_bound: float | None = None

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ValidationError(f"unknown profile kind {self.kind!r}")
        if self.kind == "sampled":
            z = np.asarray(self.params["z"], dtype=float)
            if z.ndim != 1 or len(z) < 2 or np.any(np.diff(z) <= 0.0):
                raise ValidationError("sampled profile needs strictly increasing z samples")
            if z[0] > 0.0 or z[-1] < 1.0:
                raise ValidationError("sampled profile must cover [0, 1]")
        if self.kind == "firn_diffusion":
            for key in ("z_eddy", "r_alpha", "c_f", "d_eddy", "d_co2_air"):
                if key not in self.params:
                    raise ValidationError(f"firn_diffusion profile missing {key!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, upper_bound: float | None = None) -> "CoefficientProfile":
        return cls("constant", {"value": float(value)}, upper_bound)

    @classmethod
    def affine(cls, intercept: float, slope: float,
               upper_bound: float | None = None) -> "CoefficientProfile":
        return cls("affine", {"intercept": float(intercept), "slope": float(slope)}, upper_bound)

    @classmethod
    def sampled(cls, z, values, upper_bound: float | None = None) -> "CoefficientProfile":
        z = np.asarray(z, dtype=float)
        values = np.asarray(values, dtype=float)
        if z.shape != values.shape:
            raise ValidationError("sampled profile needs matching z and value arrays")
        return cls("sampled", {"z": z, "values": values}, upper_bound)

    @classmethod
    def firn_diffusion(cls, z_eddy: float, r_alpha: float, c_f: float,
                       d_eddy: "CoefficientProfile", d_co2_air: "CoefficientProfile",
                       upper_bound: float | None = None) -> "CoefficientProfile":
        """Two-branch effective diffusivity with an eddy-mixing surface layer.

        ``z_eddy`` is the rescaled depth of the eddy layer; ``d_eddy`` and
        ``d_co2_air`` are profiles (tabulated or closed-form) for the eddy
        and free-air diffusivities.
        """
        return cls(
            "firn_diffusion",
            {
                "z_eddy": float(z_eddy),
                "r_alpha": float(r_alpha),
                "c_f": float(c_f),
                "d_eddy": d_eddy,
                "d_co2_air": d_co2_air,
            },
            upper_bound,
        )

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """Evaluate the profile at rescaled depths ``z`` in ``[0, 1]``."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise DomainError("profile evaluated outside [0, 1]")
        p = self.params
        if self.kind == "constant":
            out = np.full_like(z, p["value"])
        elif self.kind == "affine":
            out = p["intercept"] + p["slope"] * z
        elif self.kind == "sampled":
            out = np.interp(z, p["z"], p["values"])
        else:  # firn_diffusion
            open_layer = p["d_eddy"](z) + p["r_alpha"] * p["c_f"] * p["d_co2_air"](z)
            deep = p["r_alpha"] * p["d_co2_air"](z)
            out = np.where(z <= p["z_eddy"], open_layer, deep)
        return out if out.ndim else float(out)

    def node_samples(self, mesh, assumption: str = "(5)") -> np.ndarray:
        """Evaluate at mesh nodes, enforcing nonnegativity and the cap.

        The profile must be strictly positive at every node except possibly
        the last (the degenerate firn bottom).  ``assumption`` labels the
        failure: "(5)" for the pore fraction, "(6)" for the diffusivity.
        """
        values = np.asarray(self(mesh.nodes), dtype=float)
        if np.any(values < 0.0):
            bad = mesh.nodes[values < 0.0][0]
            raise AssumptionError(assumption, f"profile negative at z={bad:g}")
        if np.any(values[:-1] <= 0.0):
            bad = mesh.nodes[:-1][values[:-1] <= 0.0][0]
            raise AssumptionError(assumption, f"profile not strictly positive at z={bad:g} < 1")
        if self.upper_bound is not None and np.any(values > self.upper_bound * (1 + 1e-12)):
            raise AssumptionError(assumption, f"profile exceeds its upper bound {self.upper_bound:g}")
        return values


@dataclass(frozen=True)
class AtmosphereSeries:
    """Atmospheric boundary concentration on the rescaled time axis.

    Piecewise-linear between finite samples; the value at t=0 must be
    exactly zero and the samples must cover [0, 1].
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise ValidationError("atmosphere series needs matching 1-d times and values")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValidationError("atmosphere times and values must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError("atmosphere sample times must be strictly increasing")
        if times[0] != 0.0 or times[-1] < 1.0:
            raise ValidationError("atmosphere samples must cover [0, 1] starting at t=0")
        if values[0] != 0.0:
            raise ValidationError("atmosphere value at t=0 must be exactly zero")

    @classmethod
    def ramp(cls, amplitude: float = 1.0) -> "AtmosphereSeries":
        """Linear ramp from 0 at t=0 to ``amplitude`` at t=1."""
        return cls(np.array([0.0, 1.0]), np.array([0.0, float(amplitude)]))

    @classmethod
    def zero(cls) -> "AtmosphereSeries":
        return cls(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    @classmethod
    def from_callable(cls, fn, n_samples: int = 1001) -> "AtmosphereSeries":
        """Tabulate a closed-form signal; ``fn(0)`` must evaluate to zero."""
        t = np.linspace(0.0, 1.0, n_samples)
        values = np.asarray([fn(tk) for tk in t], dtype=float)
        if values[0] != 0.0:
            raise ValidationError("atmosphere signal must vanish at t=0")
        return cls(t, values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.times[-1]):
            raise DomainError("atmosphere series evaluated outside its time range")
        out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "AtmosphereSeries":
        return AtmosphereSeries(self.times.copy(), self.values * factor)
