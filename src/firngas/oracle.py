"""Independent verification backend for the band assembly.

Everything here is deliberately redundant with :mod:`firngas.assembly`:
per-element 5-point Gauss-Legendre quadrature, in one pass over the elements
that evaluates the weight once, instead of endpoint averages, and a dense
LAPACK solve of the same bands instead of band elimination.  ``--oracle-compare``
holds the band matrices to :func:`assemble_reference`, and the tests and the
benchmark's step checker hold the band solve to :func:`dense_solve`.  The report
and the time loop never call into this module, and ``import firngas`` does not
load it.  The closed-form hat inner products and the dense eigensolver the
tests compare against live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .assembly import Tridiagonal
from .errors import SingularMatrixError, ValidationError

__all__ = ["assemble_reference", "dense_solve"]


@functools.cache
def _gauss5() -> tuple:
    """Points and weights of the 5-point Gauss-Legendre rule on [0, 1], exact to degree 9.

    Built on first use, so that importing the oracle does not load
    ``numpy.polynomial``.
    """
    x, w = np.polynomial.legendre.leggauss(5)
    return (x + 1.0) / 2.0, w / 2.0


def _element_integrals(weight, nodes: np.ndarray, left_prime: bool, right_prime: bool):
    """5-point quadratures of ``weight * u * v`` on every element [a, b] of ``nodes``.

    Returns a (4, len(nodes) - 1) array whose rows pair ``u`` and ``v`` as
    ``ff, fr, rf, rr``: ``f`` is the hat of an element's left node,
    ``(b - z)/(b - a)``, and ``r`` that of its right node, ``(z - a)/(b - a)``;
    ``left_prime``/``right_prime`` take the slope of ``u``/``v`` instead.  The
    weight is called once, on all the elements' points; each element's sum is
    its own ``np.dot``, so it rounds as a one-element rule does.
    """
    points, weights = _gauss5()
    a, b = nodes[:-1, None], nodes[1:, None]
    h = b - a
    z = a + h * points
    w = np.broadcast_to(np.asarray(weight(z), dtype=float), z.shape)
    hats, slopes = ((b - z) / h, (z - a) / h), (-1.0 / h, 1.0 / h)
    return np.array([[hk * float(np.dot(weights, row)) for hk, row in zip(h[:, 0], w * u * v)]
                     for u in (slopes if left_prime else hats)
                     for v in (slopes if right_prime else hats)])


_KIND_FACTORS = {
    # kind -> (left_prime, right_prime)
    "Mf": (False, False),
    "Kf": (True, False),
    "A": (True, False),
    "S": (True, True),
}


def assemble_reference(weight, kind: str, mesh, fcoef: float = 1.0) -> Tridiagonal:
    """Near-exact counterpart of a band-assembled matrix, read off one pass over the elements.

    ``weight`` must be elementwise: it is called once, on an (n - 1) x 5 array of
    quadrature points.  ``fcoef`` scales the ``"Kf"`` kind only.
    """
    if kind not in _KIND_FACTORS:
        raise ValidationError(f"unknown reference matrix kind {kind!r}")
    left_prime, right_prime = _KIND_FACTORS[kind]
    scale = fcoef if kind == "Kf" else 1.0
    ff, fr, rf, rr = _element_integrals(weight, mesh.nodes, left_prime, right_prime)
    # diag[k]'s node rises on element k and falls on element k + 1, which the last lacks
    diag = (0.0 + rr) + np.append(ff[1:], 0.0)
    return Tridiagonal(scale * (0.0 + rf[1:]), scale * diag, scale * (0.0 + fr[1:]))


def dense_solve(matrix: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Partially pivoted dense solve (LAPACK) of the bands ``matrix``."""
    dense = matrix.to_dense()
    if dense.shape[0] != len(rhs):
        raise ValidationError("right-hand-side length mismatch")
    try:
        return np.linalg.solve(dense, np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(-1, f"dense solve failed: {exc}") from exc
