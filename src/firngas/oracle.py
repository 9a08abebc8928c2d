"""Independent verification backend for the band assembly.

Everything here is deliberately redundant with :mod:`firngas.assembly`:
per-element 5-point Gauss-Legendre quadrature instead of endpoint averages,
a dense LAPACK solve instead of band elimination.  ``--oracle-compare``
holds the band matrices to :func:`assemble_reference`, and the tests and
the benchmark's step checker hold the band solve to :func:`dense_solve`.
The report and the time loop never call into this module, and ``import
firngas`` does not load it.  The closed-form hat inner products and the
dense eigensolver the tests compare against live with the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .assembly import Tridiagonal
from .errors import SingularMatrixError, ValidationError

__all__ = ["quad_inner", "assemble_reference", "dense_solve"]


@functools.cache
def _gauss5() -> tuple:
    """Points and weights of the 5-point Gauss-Legendre rule on [0, 1], exact to degree 9.

    Built on first use, so that importing the oracle does not load
    ``numpy.polynomial``.
    """
    x, w = np.polynomial.legendre.leggauss(5)
    return (x + 1.0) / 2.0, w / 2.0


def _integrate(fn, a: float, b: float) -> float:
    """Integrate a callable over [a, b] with the 5-point rule."""
    points, weights = _gauss5()
    z = a + (b - a) * points
    return (b - a) * float(np.dot(weights, fn(z)))


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


def quad_inner(weight, i: int, j: int, mesh, left_prime: bool = False,
               right_prime: bool = False) -> float:
    """Quadrature of ``weight * u_i * v_j`` over the shared support elements.

    ``weight`` is a callable on [0, 1]; ``left_prime``/``right_prime``
    select the derivative of the respective hat.  Indices are 1-based.
    """
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
        total += _integrate(integrand, nodes[e - 1], nodes[e])
    return total


_KIND_FACTORS = {
    # kind -> (left_prime, right_prime)
    "Mf": (False, False),
    "Kf": (True, False),
    "A": (True, False),
    "S": (True, True),
}


def assemble_reference(weight, kind: str, mesh, fcoef: float = 1.0) -> Tridiagonal:
    """Near-exact counterpart of a band-assembled matrix.

    ``fcoef`` scales the ``"Kf"`` kind only.
    """
    if kind not in _KIND_FACTORS:
        raise ValidationError(f"unknown reference matrix kind {kind!r}")
    left_prime, right_prime = _KIND_FACTORS[kind]
    scale = fcoef if kind == "Kf" else 1.0
    m = mesh.n - 1
    sub = np.zeros(m - 1)
    diag = np.zeros(m)
    sup = np.zeros(m - 1)
    for k in range(m):
        diag[k] = scale * quad_inner(weight, k + 2, k + 2, mesh, left_prime, right_prime)
        if k < m - 1:
            sup[k] = scale * quad_inner(weight, k + 2, k + 3, mesh, left_prime, right_prime)
            sub[k] = scale * quad_inner(weight, k + 3, k + 2, mesh, left_prime, right_prime)
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
