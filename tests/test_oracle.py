"""The verification references: :mod:`firngas.oracle` and the test-side ``reference`` module."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from firngas import oracle
from firngas.assembly import (Tridiagonal, assemble_A, assemble_Kf, assemble_M,
                              assemble_Mf, assemble_S)
from firngas.errors import SingularMatrixError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.oracle import assemble_reference, dense_solve
from firngas.solver import _Factor
from reference import min_symmetric_eigenvalue, substitute


class TestQuadratureRule:
    """The fixed 5-point Gauss-Legendre rule ``oracle._gauss5`` on [0, 1]."""

    def test_polynomial_exactness(self):
        points, weights = oracle._gauss5()
        for degree in range(10):  # 2 * 5 - 1 = 9 is the edge of exactness
            exact = 1.0 / (degree + 1)
            got = float(np.dot(weights, points**degree))
            assert got == pytest.approx(exact, abs=1e-13)

    def test_shifted_interval(self):
        points, weights = oracle._gauss5()
        a, b = 1.0, 2.0
        got = (b - a) * float(np.dot(weights, (a + (b - a) * points) ** 2))
        assert got == pytest.approx(7.0 / 3.0, abs=1e-13)


@st.composite
def graded_meshes(draw):
    """Meshes of 3 to 40 nodes whose element lengths span three decades."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ends = np.cumsum(10.0 ** rng.uniform(-3.0, 0.0, n - 1))
    return Mesh(np.concatenate([[0.0], ends[:-1] / ends[-1], [1.0]]))


BAND_ASSEMBLY = {"Mf": lambda mesh, w, fcoef: assemble_Mf(mesh, w),
                 "Kf": assemble_Kf,
                 "A": lambda mesh, w, fcoef: assemble_A(mesh, w),
                 "S": lambda mesh, w, fcoef: assemble_S(mesh, w)}


class TestAssembleReference:
    def test_neighbor_mass(self):
        band = assemble_reference(lambda z: np.ones_like(z), "Mf", build_uniform(6))
        assert band.sub[0] == pytest.approx(0.2 / 6.0, abs=1e-14)

    def test_linear_weight_hand_value(self):
        # the bottom hat (z - a)/h on [a, 1], a = 1 - h: int z * hat^2 = h^2/4 + a*h/3
        band = assemble_reference(lambda z: z, "Mf", build_uniform(3))  # h = 0.5
        assert band.diag[-1] == pytest.approx(0.5**2 / 4.0 + 0.5 * 0.5 / 3.0, abs=1e-14)

    def test_partition_of_unity(self):
        # the hats sum to 1, but the surface hat has no row: the total lacks its
        # row and its column, h0/2 each, which share its own product h0/3
        band = assemble_reference(lambda z: np.ones_like(z), "Mf", Mesh([0.0, 0.2, 0.5, 1.0]))
        total = band.sub.sum() + band.diag.sum() + band.sup.sum()
        assert total == pytest.approx(1.0 - 2.0 * 0.2 / 3.0, abs=1e-13)

    @given(graded_meshes(), st.sampled_from(sorted(oracle._KIND_FACTORS)),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_constant_weight_matches_band_assembly(self, mesh, kind, c, fcoef):
        """Endpoint averages are exact for a constant weight: every band is the assembly's."""
        band = assemble_reference(lambda z: np.full_like(z, c), kind, mesh, fcoef=fcoef)
        want = BAND_ASSEMBLY[kind](mesh, np.full(mesh.n, c), fcoef)
        tol = 1e-12 * want.max_abs()
        for name in ("sub", "diag", "sup"):
            np.testing.assert_allclose(getattr(band, name), getattr(want, name), rtol=0, atol=tol,
                                       err_msg=name)

    @pytest.mark.parametrize("kind", ["Mf", "Kf", "A", "S"])
    def test_one_weight_call_per_band(self, kind):
        shapes = []

        def weight(z):
            shapes.append(z.shape)
            return 1.0 - z

        assemble_reference(weight, kind, build_uniform(1001))
        assert shapes == [(1000, 5)]

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
        np.testing.assert_allclose(dense_solve(Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2)),
                                               rhs), rhs)

    def test_hand_elimination(self):
        x = dense_solve(Tridiagonal([1.0], [2.0, 2.0], [1.0]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            dense_solve(Tridiagonal([0.0], [0.0, 0.0], [0.0]), np.ones(2))

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
        # a band is square by construction: only the right-hand side's length can mismatch
        with pytest.raises(ValidationError):
            dense_solve(Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2)), np.ones(2))


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
