import re

import numpy as np
import pytest

from firngas.errors import ValidationError
from firngas.mesh import Mesh, build_uniform


class TestBuildUniform:
    def test_basic(self):
        mesh = build_uniform(11)
        assert mesh.n == 11
        assert mesh.h_min == pytest.approx(0.1)
        np.testing.assert_allclose(mesh.nodes, np.linspace(0, 1, 11))

    def test_too_few_nodes(self):
        with pytest.raises(ValidationError):
            build_uniform(2)

    @pytest.mark.parametrize("n", [5.0, True, "5"], ids=["float", "bool", "str"])
    def test_non_integer_node_count_refused(self, n):
        with pytest.raises(ValidationError, match="node count must be an integer"):
            build_uniform(n)

    def test_numpy_integer_node_count(self):
        assert build_uniform(np.int64(5)).n == 5

    def test_lengths_sum_to_one(self):
        mesh = build_uniform(97)
        assert mesh.element_lengths.sum() == pytest.approx(1.0, abs=1e-13)


class TestGradedMesh:
    """A graded mesh is ``Mesh(nodes)`` on any strictly increasing nodes from 0 to 1."""

    def test_nonuniform(self):
        mesh = Mesh([0.0, 0.1, 0.4, 1.0])
        assert mesh.h_min == pytest.approx(0.1)
        np.testing.assert_allclose(mesh.element_lengths, [0.1, 0.3, 0.6])

    def test_endpoints_enforced(self):
        with pytest.raises(ValidationError):
            Mesh([0.0, 0.5, 0.9])
        with pytest.raises(ValidationError):
            Mesh([0.1, 0.5, 1.0])

    def test_monotonicity_enforced(self):
        for nodes in ([0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, float("nan"), 1.0]):
            with pytest.raises(ValidationError):
                Mesh(nodes)

    @pytest.mark.parametrize("nodes", [np.zeros((3, 2)), np.linspace(0.0, 1.0, 3)[:, None], 0.5],
                             ids=["two_columns", "one_column_2d", "scalar"])
    def test_nodes_must_be_one_dimensional(self, nodes):
        shape = np.shape(nodes)
        with pytest.raises(ValidationError, match=re.escape(str(shape))):
            Mesh(nodes)


class TestMeshInvariants:
    def test_lengths_match_nodes(self):
        nodes = np.array([0.0, 0.25, 0.5, 1.0])
        mesh = Mesh(nodes)
        assert mesh.n == 4
        assert np.array_equal(mesh.element_lengths, np.diff(nodes))


def test_mesh_keeps_a_read_only_copy_of_its_nodes():
    """A later write to the caller's array leaves the mesh as it was checked."""
    nodes = np.linspace(0.0, 1.0, 5)
    mesh = Mesh(nodes)
    nodes[2] = 0.9
    assert mesh.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert mesh.element_lengths.tolist() == [0.25] * 4
    for array in (mesh.nodes, mesh.element_lengths):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0.9
