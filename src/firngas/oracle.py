"""Independent verification backend for the band assembly.

Everything here is deliberately redundant with :mod:`firngas.assembly`:
per-element Gauss-Legendre quadrature instead of endpoint averages, dense
LAPACK-backed linear algebra instead of band elimination.  Tests compare
the two routes entry by entry.  The per-entry reference formulas live here
too: closed-form hat inner products (:func:`exact_inner`) and their
endpoint-average approximations (:func:`mvt_inner`).  The dense eigensolver
(:func:`min_symmetric_eigenvalue`, capped at dimension 2000) is the
reference the tests hold the O(n) positive-definiteness verdicts of
:mod:`firngas.analysis` to; the report and the time loop never call into
this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import Tridiagonal
from .errors import DomainError, SingularMatrixError, ValidationError

__all__ = [
    "QuadratureRule",
    "exact_inner",
    "mvt_inner",
    "quad_inner",
    "assemble_reference",
    "dense_solve",
    "min_symmetric_eigenvalue",
]

_EIG_DIM_CAP = 2000


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule mapped to the reference element [0, 1]."""

    order: int
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss(cls, order: int = 5) -> "QuadratureRule":
        if order < 1:
            raise ValidationError("quadrature order must be >= 1")
        x, w = np.polynomial.legendre.leggauss(order)
        return cls(order, (x + 1.0) / 2.0, w / 2.0)

    def integrate(self, fn, a: float, b: float) -> float:
        """Integrate a callable over [a, b]."""
        z = a + (b - a) * self.points
        return (b - a) * float(np.dot(self.weights, fn(z)))


def _hat(i: int, z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Hat function at 1-based node index ``i``, evaluated pointwise."""
    n = len(nodes)
    out = np.zeros_like(z)
    if i > 1:
        left = (z >= nodes[i - 2]) & (z <= nodes[i - 1])
        out[left] = (z[left] - nodes[i - 2]) / (nodes[i - 1] - nodes[i - 2])
    if i < n:
        right = (z >= nodes[i - 1]) & (z <= nodes[i])
        out[right] = (nodes[i] - z[right]) / (nodes[i] - nodes[i - 1])
    return out


def _dhat(i: int, z: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Derivative of the hat at 1-based node ``i`` (element interiors only)."""
    n = len(nodes)
    out = np.zeros_like(z)
    if i > 1:
        left = (z > nodes[i - 2]) & (z < nodes[i - 1])
        out[left] = 1.0 / (nodes[i - 1] - nodes[i - 2])
    if i < n:
        right = (z > nodes[i - 1]) & (z < nodes[i])
        out[right] = -1.0 / (nodes[i] - nodes[i - 1])
    return out


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


def quad_inner(weight, i: int, j: int, mesh, rule: QuadratureRule | None = None,
               left_prime: bool = False, right_prime: bool = False) -> float:
    """Quadrature of ``weight * u_i * v_j`` over the shared support elements.

    ``weight`` is a callable on [0, 1]; ``left_prime``/``right_prime``
    select the derivative of the respective hat.  Indices are 1-based.
    """
    rule = rule or QuadratureRule.gauss()
    nodes = mesh.nodes
    n = len(nodes)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValidationError(f"basis indices ({i}, {j}) out of range")
    if abs(i - j) > 1:
        return 0.0
    lo = max(min(i, j) - 1, 1)
    hi = min(max(i, j), n - 1)
    left = _dhat if left_prime else _hat
    right = _dhat if right_prime else _hat

    def integrand(z):
        return np.asarray(weight(z), dtype=float) * left(i, z, nodes) * right(j, z, nodes)

    total = 0.0
    for e in range(lo, hi + 1):  # elements [z_e, z_{e+1}], 1-based
        total += rule.integrate(integrand, nodes[e - 1], nodes[e])
    return total


_KIND_FACTORS = {
    # kind -> (left_prime, right_prime)
    "M": (False, False),
    "Mf": (False, False),
    "Kf": (True, False),
    "A": (True, False),
    "S": (True, True),
}


def assemble_reference(weight, kind: str, mesh, rule: QuadratureRule | None = None,
                       fcoef: float = 1.0) -> Tridiagonal:
    """Near-exact counterpart of a band-assembled matrix.

    ``weight`` is ignored for kind ``"M"`` (unweighted); ``fcoef`` scales
    the ``"Kf"`` kind only.
    """
    if kind not in _KIND_FACTORS:
        raise ValidationError(f"unknown reference matrix kind {kind!r}")
    rule = rule or QuadratureRule.gauss()
    left_prime, right_prime = _KIND_FACTORS[kind]
    w = (lambda z: np.ones_like(z)) if kind == "M" else weight
    scale = fcoef if kind == "Kf" else 1.0
    m = mesh.n - 1
    sub = np.zeros(m - 1)
    diag = np.zeros(m)
    sup = np.zeros(m - 1)
    for k in range(m):
        diag[k] = scale * quad_inner(w, k + 2, k + 2, mesh, rule, left_prime, right_prime)
        if k < m - 1:
            sup[k] = scale * quad_inner(w, k + 2, k + 3, mesh, rule, left_prime, right_prime)
            sub[k] = scale * quad_inner(w, k + 3, k + 2, mesh, rule, left_prime, right_prime)
    return Tridiagonal(sub, diag, sup)


def dense_solve(matrix, rhs: np.ndarray) -> np.ndarray:
    """Partially pivoted dense solve (LAPACK); accepts bands or a 2-d array."""
    dense = matrix.to_dense() if isinstance(matrix, Tridiagonal) else np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValidationError("dense_solve needs a square matrix")
    if dense.shape[0] != len(rhs):
        raise ValidationError("right-hand-side length mismatch")
    try:
        return np.linalg.solve(dense, np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(-1, f"dense solve failed: {exc}") from exc


def min_symmetric_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of the symmetric part ``(A + A^T) / 2``."""
    dense = matrix.to_dense() if isinstance(matrix, Tridiagonal) else np.asarray(matrix, dtype=float)
    if dense.shape[0] > _EIG_DIM_CAP:
        raise ValidationError(f"eigensolver capped at dimension {_EIG_DIM_CAP}")
    sym = (dense + dense.T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])
