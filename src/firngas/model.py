"""Physical parameters, coefficient profiles, boundary data and rescaling.

The model lives on the rescaled unit square: depth ``z`` in ``[0, 1]``
(physical depth divided by the firn depth ``z_F``) and time ``t`` in
``[0, 1]`` (physical time divided by the final time ``T_e``).  Coefficient
profiles are therefore functions of the rescaled depth.  The argument rules live here:
a caller's number becomes a finite float by :func:`_finite` (arrays: :func:`_finite_array`),
a count or index an int by :func:`_integer`; a bool, complex or other is :class:`ValidationError`.
"""

from __future__ import annotations

import numbers
import warnings
from collections.abc import Callable
from functools import partial
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "ModelParams",
    "RescaledContext",
    "CoefficientProfile",
    "AtmosphereSeries",
    "rescale",
]


_NOT_REAL = {bool, np.bool_, complex, np.complex64, np.complex128, np.clongdouble}


class _NotReal(TypeError):
    """A bool or complex value, which numpy takes for 1, 0 or its real part; the text names it."""


def _real(values) -> np.ndarray:
    """``np.asarray(values, dtype=float)``; :class:`_NotReal` if it is or holds a bool or complex.

    An array of a non-object dtype is judged by its dtype; anything else by the types it holds.
    """
    held = ({values.dtype.type} if isinstance(values, np.ndarray) and values.dtype != object
            else set(map(type, np.asarray(values, dtype=object).flat)))
    if not held.isdisjoint(_NOT_REAL):
        raise _NotReal("bools" if held & {bool, np.bool_} else "complex values")
    return np.asarray(values, dtype=float)


def _finite(name: str, value) -> float:
    """``float(value)`` for a finite real number with no dimension; else :class:`ValidationError`."""
    try:  # a float converts without an array; ``[()]`` leaves any other array an array
        number = value if isinstance(value, float) else _real(value)[()]
    except (TypeError, ValueError, OverflowError):
        number = None  # refused below, as the caller gave it
    if not (isinstance(number, float) and abs(number) < np.inf):  # nan and inf fail the test
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(number)


def _finite_array(values, message: str) -> np.ndarray:
    """``_real(values)`` if every entry is finite; else ``ValidationError(message)``."""
    try:
        array = _real(values)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message) from None
    # min and max propagate nan and inf without a temporary of the array's size
    if not np.isfinite([array.min(initial=0), array.max(initial=0)]).all():
        raise ValidationError(message)
    return array


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``: a record keeps its own, which a caller's write cannot reach."""
    array = array.copy()
    array.flags.writeable = False
    return array


def _integer(name: str, value) -> int:
    """``int(value)`` for a Python or numpy int; else, or for a bool, :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _store_fields(record, nonnegative=()) -> None:
    """Store each field of a frozen ``record`` as a finite float: >= 0 if named, else > 0."""
    for item in fields(record):
        name = f"{type(record).__name__}.{item.name}"
        value = _finite(name, getattr(record, item.name))
        if value < 0.0 or (value == 0.0 and item.name not in nonnegative):
            sign = "nonnegative" if item.name in nonnegative else "strictly positive"
            raise ValidationError(f"{name} must be {sign}, got {value!r}")
        object.__setattr__(record, item.name, value)


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
        _store_fields(self)
        if not 0.5 <= self.lam <= 0.999:
            warnings.warn(
                f"decay rate lam={self.lam} outside the tabulated range [0.5, 0.999]",
                stacklevel=3,  # the caller of the generated __init__
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
        _store_fields(self, nonnegative=("mcoef", "gcoef", "fcoef"))


def rescale(params: ModelParams) -> RescaledContext:
    """Reduce the physical constants to the rescaled-context record of the PDE.

    ``mcoef = M_alpha*g/(R*T)`` (1/m), ``gcoef = tau + lam`` (1/yr) and
    ``fcoef = v + w_air`` (m/yr).
    """
    try:
        mcoef = params.M_alpha * params.g / (params.R * params.T)
    except ZeroDivisionError:  # R*T underflows: refused below as overflow is
        mcoef = np.inf
    return RescaledContext(T_e=params.T_e, z_F=params.z_F, mcoef=mcoef,
                           gcoef=params.tau + params.lam, fcoef=params.v + params.w_air)


def _sample_table(x, y, what: str) -> tuple[np.ndarray, np.ndarray]:
    """A piecewise-linear sample table: 1-d, finite, strictly increasing ``x`` covering [0, 1].

    ``x`` and ``y`` are returned as read-only copies.
    """
    x, y = (_read_only(_finite_array(a, f"{what} samples must be finite")) for a in (x, y))
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValidationError(f"{what} needs matching 1-d sample arrays of length >= 2")
    if np.any(np.diff(x) <= 0.0):
        raise ValidationError(f"{what} sample points must be strictly increasing")
    if x[0] > 0.0 or x[-1] < 1.0:
        raise ValidationError(f"{what} samples must cover [0, 1]")
    return x, y


def _affine(intercept: float, slope: float, z):
    return intercept + slope * z


def _firn_diffusion(z_eddy: float, r_alpha: float, c_f: float, d_eddy, d_co2_air, z):
    air = d_co2_air(z)
    return np.where(z <= z_eddy, d_eddy(z) + r_alpha * c_f * air, r_alpha * air)


@dataclass(frozen=True)
class CoefficientProfile:
    """A nonnegative coefficient function on the rescaled depth ``[0, 1]``.

    Built by one of the constructors, each of which refuses an argument that
    is not a finite number:

    :meth:`constant`        value
    :meth:`affine`          intercept + slope * z
    :meth:`sampled`         piecewise-linear interpolation of (z, value) samples
    :meth:`firn_diffusion`  d_eddy(z) + r_alpha*c_f*d_co2_air(z) for z <= z_eddy,
                            r_alpha*d_co2_air(z) for z > z_eddy

    A call takes finite depths (a finite one outside ``[0, 1]`` is a :class:`DomainError`)
    and ``evaluate`` maps them to a finite float array of the same shape, else the
    call raises :class:`ValidationError`; constructors use module-level functions,
    so profiles pickle.  ``upper_bound``, when set, caps admissible values.  A profile
    checks only its own arguments and values: :func:`firngas.analysis.plan_run`
    refuses its node values for their sign or for exceeding the cap.
    """

    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    upper_bound: float | None = None

    def __post_init__(self):
        if self.upper_bound is not None:
            object.__setattr__(self, "upper_bound", _finite("profile upper_bound", self.upper_bound))

    @classmethod
    def constant(cls, value: float, upper_bound: float | None = None) -> "CoefficientProfile":
        value = _finite("constant profile value", value)
        return cls(partial(np.full_like, fill_value=value), upper_bound)

    @classmethod
    def affine(cls, intercept: float, slope: float,
               upper_bound: float | None = None) -> "CoefficientProfile":
        intercept = _finite("affine profile intercept", intercept)
        slope = _finite("affine profile slope", slope)
        return cls(partial(_affine, intercept, slope), upper_bound)

    @classmethod
    def sampled(cls, z, values, upper_bound: float | None = None) -> "CoefficientProfile":
        z, values = _sample_table(z, values, "sampled profile")
        return cls(partial(np.interp, xp=z, fp=values), upper_bound)

    @classmethod
    def firn_diffusion(cls, z_eddy: float, r_alpha: float, c_f: float,
                       d_eddy: "CoefficientProfile", d_co2_air: "CoefficientProfile",
                       upper_bound: float | None = None) -> "CoefficientProfile":
        """Two-branch effective diffusivity with an eddy-mixing surface layer.

        ``z_eddy`` is the rescaled depth of the eddy layer; ``d_eddy`` and
        ``d_co2_air`` are profiles (tabulated or closed-form) for the eddy
        and free-air diffusivities.
        """
        z_eddy = _finite("firn_diffusion z_eddy", z_eddy)
        r_alpha = _finite("firn_diffusion r_alpha", r_alpha)
        c_f = _finite("firn_diffusion c_f", c_f)
        if not (isinstance(d_eddy, cls) and isinstance(d_co2_air, cls)):
            raise ValidationError("firn_diffusion needs profiles for d_eddy and d_co2_air")
        return cls(partial(_firn_diffusion, z_eddy, r_alpha, c_f, d_eddy, d_co2_air), upper_bound)

    def __call__(self, z):
        """Evaluate the profile at finite rescaled depths ``z`` in ``[0, 1]``."""
        z = _finite_array(z, "profile depths must be finite numbers")
        if z.min(initial=0.0) < 0.0 or z.max(initial=0.0) > 1.0:
            raise DomainError("profile evaluated outside [0, 1]")
        message = f"profile values must be a finite float array of shape {z.shape}"
        out = _finite_array(self.evaluate(z), message)
        if out.shape != z.shape:
            raise ValidationError(message)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class AtmosphereSeries:
    """Atmospheric boundary concentration on the rescaled time axis.

    Piecewise-linear between finite samples; the value at t=0 must be
    exactly zero and the samples must cover [0, 1].
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = _sample_table(self.times, self.values, "atmosphere series")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times[0] != 0.0 or values[0] != 0.0:
            raise ValidationError("atmosphere samples must start at t=0 with the value exactly 0")

    @classmethod
    def ramp(cls, amplitude: float = 1.0) -> "AtmosphereSeries":
        """Linear ramp from 0 at t=0 to ``amplitude`` at t=1."""
        return cls(np.array([0.0, 1.0]), np.array([0.0, _finite("ramp amplitude", amplitude)]))

    @classmethod
    def zero(cls) -> "AtmosphereSeries":
        return cls(np.array([0.0, 1.0]), np.array([0.0, 0.0]))

    def __call__(self, t):
        t = _finite_array(t, "atmosphere times must be finite numbers")
        if t.min(initial=0.0) < 0.0 or t.max(initial=0.0) > self.times[-1]:
            raise DomainError("atmosphere series evaluated outside its time range")
        out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)
