"""Partitions of the rescaled depth interval [0, 1] into P1 elements.

Index conventions (tested in tests/test_mesh.py):

* nodes are 0-based: ``nodes[0] = 0`` and ``nodes[n-1] = 1``;
* element ``e`` spans ``[nodes[e], nodes[e+1]]`` with length
  ``element_lengths[e]``, e = 0 .. n-2;
* matrix row ``k`` (0-based, k = 0 .. n-2) corresponds to the hat function
  centred at node ``k+1``, i.e. the interior nodes plus the bottom node.
  The surface node carries the Dirichlet datum and has no row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import _finite_array, _integer, _read_only

__all__ = ["Mesh", "build_uniform"]


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class Mesh:
    """Mesh from a strictly increasing node sequence on [0, 1]; uniform or graded.

    The mesh keeps read-only copies of its nodes and element lengths.
    """

    nodes: np.ndarray
    element_lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = _read_only(_finite_array(self.nodes, "mesh nodes must be finite numbers"))
        if nodes.ndim != 1:
            raise ValidationError(f"mesh nodes must be a 1-d array, got shape {nodes.shape}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "element_lengths", _read_only(np.diff(nodes)))
        if len(nodes) < 3:
            raise ValidationError(f"mesh needs at least 3 nodes, got {len(nodes)}")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValidationError("mesh nodes must start at 0 and end at 1")
        if not np.all(self.element_lengths > 0.0):
            raise ValidationError("mesh nodes must be strictly increasing")

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def h_min(self) -> float:
        return float(self.element_lengths.min())


def build_uniform(n: int) -> Mesh:
    """Uniform mesh with ``n`` nodes and spacing ``1/(n-1)``."""
    if _integer("node count", n) < 3:
        raise ValidationError(f"mesh needs at least 3 nodes, got {n}")
    return Mesh(np.linspace(0.0, 1.0, n))
