"""The verification references: :mod:`firngas.oracle` and the test-side ``reference`` module."""

import math

import numpy as np
import pytest

import reference
from firngas import oracle
from firngas.assembly import (Tridiagonal, assemble_Kf, assemble_M,
                              assemble_Mf, assemble_S)
from firngas.errors import SingularMatrixError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.oracle import assemble_reference, dense_solve, quad_inner
from firngas.solver import _Factor
from reference import min_symmetric_eigenvalue, substitute


class TestQuadratureRule:
    """The fixed 5-point Gauss-Legendre rule of :func:`oracle.quad_inner`."""

    def test_polynomial_exactness(self):
        for degree in range(10):  # 2 * 5 - 1 = 9 is the edge of exactness
            exact = 1.0 / (degree + 1)
            got = oracle._integrate(lambda z, p=degree: z**p, 0.0, 1.0)
            assert got == pytest.approx(exact, abs=1e-13)

    def test_shifted_interval(self):
        assert oracle._integrate(lambda z: z**2, 1.0, 2.0) == pytest.approx(7.0 / 3.0, abs=1e-13)


class TestQuadInner:
    def test_neighbor_mass(self):
        mesh = build_uniform(6)
        got = quad_inner(lambda z: np.ones_like(z), 3, 2, mesh)
        assert got == pytest.approx(0.2 / 6.0, abs=1e-14)

    def test_partition_of_unity(self):
        mesh = Mesh([0.0, 0.2, 0.5, 1.0])
        total = sum(
            quad_inner(lambda z: np.ones_like(z), i, j, mesh)
            for i in range(1, mesh.n + 1)
            for j in range(1, mesh.n + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_linear_weight_hand_value(self):
        # int_0^h z * ((h - z)/h)^2 dz = h^2 / 12 with the left hat on [0, h]
        mesh = build_uniform(3)  # h = 0.5
        got = quad_inner(lambda z: z, 1, 1, mesh)
        # left hat's support is only element 1
        assert got == pytest.approx(0.5**2 / 12.0, abs=1e-14)

    def test_index_guard(self):
        with pytest.raises(ValidationError):
            quad_inner(lambda z: z, 0, 1, build_uniform(3))


class TestAssembleReference:
    def test_constant_weight_matches_exact_mass(self):
        mesh = build_uniform(11)
        ref = assemble_reference(lambda z: np.ones_like(z), "Mf", mesh)
        exact = assemble_M(mesh)
        assert (ref - exact).max_abs() <= 1e-13

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            assemble_reference(lambda z: z, "Q", build_uniform(3))

    @pytest.mark.parametrize("weight", [lambda z: 1.0 - z,
                                        lambda z: 1.0 - z**2,
                                        lambda z: np.exp(-z)],
                             ids=["1-z", "1-z^2", "exp(-z)"])
    def test_mvt_mass_second_order(self, weight):
        devs = []
        for n in (11, 21, 41):
            mesh = build_uniform(n)
            band = assemble_Mf(mesh, weight(mesh.nodes))
            devs.append((band - assemble_reference(weight, "Mf", mesh)).max_abs())
        orders = [math.log2(devs[k] / devs[k + 1]) for k in range(2)]
        for order in orders:
            assert abs(order - 2.0) <= 0.4

    def test_affine_stiffness_exact(self):
        # endpoint averages integrate affine weights exactly against the
        # piecewise-constant derivative products
        mesh = build_uniform(17)
        band = assemble_S(mesh, 1.0 - mesh.nodes)
        ref = assemble_reference(lambda z: 1.0 - z, "S", mesh)
        assert (band - ref).max_abs() <= 1e-13

    def test_mvt_stiffness_first_order(self):
        weight = lambda z: 1.0 - z**2
        devs = []
        for n in (11, 21, 41):
            mesh = build_uniform(n)
            band = assemble_S(mesh, weight(mesh.nodes))
            devs.append((band - assemble_reference(weight, "S", mesh)).max_abs())
        orders = [math.log2(devs[k] / devs[k + 1]) for k in range(2)]
        for order in orders:
            assert abs(order - 1.0) <= 0.4


class TestDenseSolve:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(dense_solve(np.eye(3), rhs), rhs)

    def test_hand_elimination(self):
        x = dense_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            dense_solve(np.zeros((2, 2)), np.ones(2))

    def test_cross_check_band_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.integers(2, 40)
            sub = rng.normal(size=m - 1)
            sup = rng.normal(size=m - 1)
            diag = np.abs(rng.normal(size=m)) + 3.0  # diagonally dominant
            band = Tridiagonal(sub, diag, sup)
            rhs = rng.normal(size=m)
            np.testing.assert_allclose(
                substitute(_Factor(band), rhs), dense_solve(band, rhs), atol=1e-10)

    def test_shape_guards(self):
        with pytest.raises(ValidationError):
            dense_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValidationError):
            dense_solve(np.eye(3), np.ones(2))


class TestMinSymmetricEigenvalue:
    def test_diagonal(self):
        assert min_symmetric_eigenvalue(np.diag([3.0, 1.0])) == pytest.approx(1.0)

    def test_skew(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert min_symmetric_eigenvalue(skew) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_mass_positive(self):
        mesh = build_uniform(11)
        assert min_symmetric_eigenvalue(assemble_M(mesh)) > 0.0

    def test_advection_skew_plus_boundary(self):
        # with f = 1, K_f has zero interior symmetric part except the ends
        mesh = build_uniform(11)
        band = assemble_Kf(mesh, np.ones(11), 1.0)
        assert min_symmetric_eigenvalue(band) >= -1e-14

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            min_symmetric_eigenvalue(np.eye(reference._EIG_DIM_CAP + 1))
