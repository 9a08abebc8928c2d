"""Test-side references and the fixtures the test files share.

The references are the independent formulas the tests hold the package to:
closed-form hat inner products (:func:`exact_inner`), their endpoint-average
approximations (:func:`mvt_inner`), the dense symmetric eigensolver
(:func:`min_symmetric_eigenvalue`, capped at dimension 2000) that the O(n)
positive-definiteness verdicts of :func:`firngas.analysis.check_pd_all` are
held to, a factor's substitution as a step runs it (:func:`substitute`), the
step operator from solves of its right-hand sides
(:func:`step_operator`), one implicit-Euler step from the full-length assembly
helpers and a fresh factor (:func:`reference_step`), and the exact semi-discrete
solution that implicit Euler approaches as dt -> 0 (:func:`semi_discrete`).
Nothing outside the tests runs them; the quadrature and dense-solve references that
``--oracle-compare`` and the benchmark use stay in :mod:`firngas.oracle`.
The tooling is here too: the unit config file (:func:`write_config`,
:func:`edit_config`), a call counter (:func:`count_calls`), a reset of the plan
:func:`firngas.run` keeps (:func:`clear_plan_slot`) and a fresh interpreter
(:func:`fresh_output`).  Test files import this module by plain
name and no other test module.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from firngas import assembly, solver
from firngas.assembly import Tridiagonal
from firngas.errors import DomainError, ValidationError
from firngas.model import CoefficientProfile, ModelParams, RescaledContext, rescale
from firngas.solver import _DENSE_MAX, _Factor

_EIG_DIM_CAP = 2000

ONE = CoefficientProfile.constant(1.0)
DECAY = CoefficientProfile.affine(1.0, -1.0)  # 1 - z
# The README's physical config: 80 m of firn, 30 years.
README_CONTEXT = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3,
                                     lam=0.7, v=0.5, w_air=0.1, z_F=80.0, T_e=30.0))
# The same constants on the unit square (z_F = T_e = 1), as in the CLI tests.
UNIT_CONTEXT = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3,
                                   lam=0.7, v=0.5, w_air=0.1, z_F=1.0, T_e=1.0))


def ctx(mcoef=0.0, gcoef=1.0, fcoef=1.0, z_F=1.0, T_e=1.0):
    return RescaledContext(T_e=T_e, z_F=z_F, mcoef=mcoef, gcoef=gcoef, fcoef=fcoef)


BASE_PARAMS = """\
[params]
M_alpha = 0.04
g = 9.81
R = 8.314
T = 250.0
tau = 0.3
lam = 0.7
v = 0.5
w_air = 0.1
"""


def write_config(tmp_path, f_kind="affine", d_kind="affine", atmosphere="ramp",
                 dt="auto", n=11, f_value=None, f_intercept=1.0, z_F=1.0, T_e=1.0,
                 c_D=1.0, d_slope=-1.0):
    if f_kind == "affine":
        f_section = f"[profile.f]\nkind = affine\nintercept = {f_intercept}\nslope = -1.0\n"
    else:
        f_section = f"[profile.f]\nkind = constant\nvalue = {f_value}\n"
    if d_kind == "affine":
        d_section = f"[profile.D]\nkind = affine\nintercept = 1.0\nslope = {d_slope}\n"
    else:
        d_section = "[profile.D]\nkind = constant\nvalue = 1.0\n"
    text = (BASE_PARAMS + f"z_F = {z_F}\nT_e = {T_e}\n"
            + f"[mesh]\nn = {n}\n[time]\ndt = {dt}\n"
            + f_section + d_section
            + f"[atmosphere]\nkind = {atmosphere}\namplitude = 1.0\n"
            + f"[analysis]\nc_D = {c_D}\n")
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


AFFINE = "kind = affine\nintercept = 1.0\nslope = -1.0"  # f's section, then D's


def edit_config(path, old, new):
    """Replace the first ``old`` in the config file at ``path`` by ``new``."""
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))
    return path


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` from now on."""
    calls = []
    function = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def clear_plan_slot(monkeypatch):
    """Forget the last plan of :func:`firngas.run` for this test, so that its next call plans."""
    monkeypatch.setattr(solver, "_plan_slot", (None, None))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_output(code):
    """Standard output of ``code`` in a fresh interpreter on ``src``; raises unless it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout.strip()


def substitute(factor, rhs):
    """``V^{-1} rhs`` by ``factor``'s one substitution, as a step above ``_DENSE_MAX`` runs it."""
    rows = np.asarray(rhs, dtype=float).tolist()
    return np.fromiter(factor._substitute(rows), dtype=float, count=factor.dim)


def step_operator(V, Mf):
    """``A = [P^T; -w^T]``, ``[P | -w] = V^{-1} [Mf | -e_0]``: row j solves column j afresh."""
    factor, columns = _Factor(V), np.vstack([Mf.to_dense().T, -np.eye(V.dim)[0]])
    return np.array([substitute(factor, column) for column in columns])


def reference_step(system, before, t_k, t_k1, atmosphere):
    """One implicit-Euler step from ``before``: the assembled right-hand side and a fresh step.

    The forcing comes from ``assemble_v1`` and ``assemble_v3``, which must
    be zero past row 0, and the right-hand side from ``assemble_rhs``.  The
    step is built afresh from fresh factors of ``system.V``, for the
    row-0 forcing ``g = v1[0] + T_e dt v3[0]``.  Up to ``_DENSE_MAX`` rows it
    takes ``P^T`` and ``w`` from :func:`step_operator` and returns
    ``P before - g w``; above, the solve of ``Mf before - g e_0``.
    """
    mesh, f, Mf = system.mesh, system.f_samples, system.Mf
    v1 = assembly.assemble_v1(t_k, t_k1, atmosphere, mesh, f)
    v3 = assembly.assemble_v3(t_k1, atmosphere, mesh, f, system.d_samples, system.context)
    assert not v1[1:].any() and not v3[1:].any()
    rhs = assembly.assemble_rhs(before, v1, v3, Mf, system.context.T_e, system.dt)
    forcing = v1[0] + system.context.T_e * system.dt * v3[0]
    if system.V.dim > _DENSE_MAX:
        surface_rhs = Mf.matvec(before)
        surface_rhs[0] -= forcing
        return rhs, substitute(_Factor(system.V), surface_rhs)
    operator = step_operator(system.V, Mf)
    return rhs, np.einsum("ji,j->i", operator[:-1], before) - forcing * -operator[-1]


def semi_discrete(system, atmosphere, times):
    """The semi-discrete solution ``x(t)`` at uniformly spaced ``times`` from 0, for a ramp.

    As dt -> 0 the implicit-Euler levels of ``system`` approach the solution of
    ``Mf x' + T_e C x = -(a rho'(t) + T_e c1 rho(t)) e_0``, ``x(0) = 0``, where
    ``a`` and ``c1`` are the row-0 forcings of ``surface_v1`` and
    ``surface_v3`` at a unit boundary value.  For the surface value
    ``rho = s t`` it is exact on ``[x; t; 1]`` under the augmented matrix
    ``Z = [[-T_e Mf^{-1} C, -T_e c1 s Mf^{-1} e_0, -a s Mf^{-1} e_0], [0, 0, 1],
    [0, 0, 0]]`` (Van Loan, IEEE TAC 23, 1978): one ``expm(Z dt)``, applied
    once per interval.  Returns a (len(times), m) array.
    """
    times = np.asarray(times, dtype=float)
    dt = times[1]
    assert times[0] == 0.0 and np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0)
    slope = atmosphere(1.0)
    assert np.allclose(atmosphere(times), slope * times, rtol=1e-12, atol=0.0), "not a ramp"
    mesh, f, m = system.mesh, system.f_samples, system.Mf.dim
    T_e = system.context.T_e
    a = assembly.surface_v1(0.0, 1.0, mesh, f)
    c1 = assembly.surface_v3(1.0, mesh, f, system.d_samples, system.context)
    mass = system.Mf.to_dense()
    surface = np.linalg.solve(mass, np.eye(m)[0])
    Z = np.zeros((m + 2, m + 2))
    Z[:m, :m] = -T_e * np.linalg.solve(mass, system.C.to_dense())
    Z[:m, m] = -T_e * c1 * slope * surface
    Z[:m, m + 1] = -a * slope * surface
    Z[m, m + 1] = 1.0
    step = expm(Z * dt)
    state = np.zeros(m + 2)
    state[m + 1] = 1.0
    out = [state[:m].copy()]
    for _ in times[1:]:
        state = step @ state
        out.append(state[:m])
    return np.array(out)


def _check_indices(i: int, j: int, n: int):
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"basis indices ({i}, {j}) out of range 1..{n}")


def exact_inner(i: int, j: int, kind: str, mesh) -> float:
    """Closed-form inner products of hat functions, 1-based indices.

    ``kind`` is ``"phi_phi"`` for the plain product or ``"dphi_phi"`` for
    derivative-times-function (derivative on the first index).
    """
    n = mesh.n
    _check_indices(i, j, n)
    el = mesh.element_lengths
    if abs(i - j) > 1:
        return 0.0
    if kind == "phi_phi":
        if i == j:
            if i == 1:
                return el[0] / 3.0
            if i == n:
                return el[n - 2] / 3.0
            return (el[i - 2] + el[i - 1]) / 3.0
        if j == i - 1:
            return el[i - 2] / 6.0
        return el[i - 1] / 6.0
    if kind == "dphi_phi":
        if i == j:
            if i == 1:
                return -0.5
            if i == n:
                return 0.5
            return 0.0
        if j == i - 1:
            return 0.5
        return -0.5
    raise ValidationError(f"unknown exact inner-product kind {kind!r}")


def mvt_inner(i: int, j: int, kind: str, weights, mesh) -> float:
    """Endpoint-average approximations of weighted hat inner products.

    ``weights`` are node samples of the weight; kinds are ``"w_phi_phi"``,
    ``"w_dphi_phi"`` (derivative on the first index) and ``"w_dphi_dphi"``.
    """
    n = mesh.n
    _check_indices(i, j, n)
    w = np.asarray(weights, dtype=float)
    if len(w) != n:
        raise ValidationError("weight samples must be given at every node")
    el = mesh.element_lengths
    if abs(i - j) > 1:
        return 0.0
    if kind == "w_phi_phi":
        if i == j:
            if i == 1:
                return (w[0] + w[1]) / 2.0 * el[0] / 3.0
            if i == n:
                return (w[n - 2] + w[n - 1]) / 2.0 * el[n - 2] / 3.0
            return ((w[i - 1] + w[i]) / 2.0 * el[i - 1] / 3.0
                    + (w[i - 2] + w[i - 1]) / 2.0 * el[i - 2] / 3.0)
        if j == i - 1:
            return (w[i - 2] + w[i - 1]) / 2.0 * el[i - 2] / 6.0
        return (w[i - 1] + w[i]) / 2.0 * el[i - 1] / 6.0
    if kind == "w_dphi_phi":
        if i == j:
            if i == 1:
                return -(w[0] + w[1]) / 4.0
            if i == n:
                return (w[n - 2] + w[n - 1]) / 4.0
            return (w[i - 2] - w[i]) / 4.0
        if j == i - 1:
            return (w[i - 2] + w[i - 1]) / 4.0
        return -(w[i - 1] + w[i]) / 4.0
    if kind == "w_dphi_dphi":
        if i == j:
            if i == 1:
                return (w[0] + w[1]) / (2.0 * el[0])
            if i == n:
                return (w[n - 2] + w[n - 1]) / (2.0 * el[n - 2])
            return ((w[i - 2] + w[i - 1]) / (2.0 * el[i - 2])
                    + (w[i - 1] + w[i]) / (2.0 * el[i - 1]))
        if j == i - 1:
            return -(w[i - 2] + w[i - 1]) / (2.0 * el[i - 2])
        return -(w[i - 1] + w[i]) / (2.0 * el[i - 1])
    raise ValidationError(f"unknown weighted inner-product kind {kind!r}")


def min_symmetric_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of the symmetric part ``(A + A^T) / 2``."""
    dense = matrix.to_dense() if isinstance(matrix, Tridiagonal) else np.asarray(matrix, dtype=float)
    if dense.shape[0] > _EIG_DIM_CAP:
        raise ValidationError(f"eigensolver capped at dimension {_EIG_DIM_CAP}")
    sym = (dense + dense.T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])
