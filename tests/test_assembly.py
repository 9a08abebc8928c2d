from dataclasses import replace

import numpy as np
import pytest

from firngas import assembly
from firngas.assembly import (DiscreteSystem, Tridiagonal, assemble_A, assemble_B, assemble_Kf,
                              assemble_M, assemble_Mf, assemble_S,
                              assemble_rhs, assemble_system, assemble_v1,
                              assemble_v3)
from firngas.errors import DomainError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.model import AtmosphereSeries, RescaledContext
from reference import ctx, exact_inner, mvt_inner


# the hand-substituted reference instance: n=3, h=0.5, f = D = 1 - z
MESH3 = build_uniform(3)
F3 = np.array([1.0, 0.5, 0.0])


class TestTridiagonal:
    def test_dense_and_matvec_agree(self):
        rng = np.random.default_rng(7)
        band = Tridiagonal(rng.normal(size=4), rng.normal(size=5), rng.normal(size=4))
        x = rng.normal(size=5)
        np.testing.assert_allclose(band.matvec(x), band.to_dense() @ x, atol=1e-14)

    def test_algebra(self):
        a = Tridiagonal([1.0], [2.0, 3.0], [4.0])
        b = Tridiagonal([1.0], [1.0, 1.0], [1.0])
        np.testing.assert_allclose((a + b).diag, [3.0, 4.0])
        np.testing.assert_allclose((a - b).sub, [0.0])
        np.testing.assert_allclose(a.scale(2.0).sup, [8.0])
        assert a.max_abs() == 4.0

    def test_band_length_validation(self):
        with pytest.raises(ValidationError):
            Tridiagonal([1.0, 2.0], [1.0, 2.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Tridiagonal([np.nan], [1.0, 1.0], [1.0])


class TestExactInner:
    def test_offdiagonal_mass(self):
        mesh = build_uniform(6)
        # <phi_i, phi_{i-1}> = h_i / 6
        assert exact_inner(3, 2, "phi_phi", mesh) == pytest.approx(0.2 / 6.0, abs=1e-15)

    def test_diagonal_mass_interior(self):
        mesh = Mesh([0.0, 0.1, 0.4, 1.0])
        assert exact_inner(2, 2, "phi_phi", mesh) == pytest.approx((0.1 + 0.3) / 3.0)

    def test_derivative_pattern(self):
        mesh = build_uniform(5)
        assert exact_inner(2, 2, "dphi_phi", mesh) == 0.0
        assert exact_inner(5, 5, "dphi_phi", mesh) == 0.5
        assert exact_inner(1, 1, "dphi_phi", mesh) == -0.5
        assert exact_inner(3, 2, "dphi_phi", mesh) == 0.5
        assert exact_inner(3, 4, "dphi_phi", mesh) == -0.5

    def test_disjoint_support(self):
        mesh = build_uniform(6)
        assert exact_inner(1, 4, "phi_phi", mesh) == 0.0

    def test_index_guard(self):
        with pytest.raises(DomainError):
            exact_inner(0, 1, "phi_phi", build_uniform(3))


class TestMvtInner:
    def test_constant_weight_reduces_to_exact(self):
        mesh = Mesh([0.0, 0.3, 0.7, 1.0])
        w = np.ones(mesh.n)
        for i in range(1, mesh.n + 1):
            for j in range(max(1, i - 1), min(mesh.n, i + 1) + 1):
                assert mvt_inner(i, j, "w_phi_phi", w, mesh) == pytest.approx(
                    exact_inner(i, j, "phi_phi", mesh), abs=1e-15)
                assert mvt_inner(i, j, "w_dphi_phi", w, mesh) == pytest.approx(
                    exact_inner(i, j, "dphi_phi", mesh), abs=1e-15)

    def test_stiffness_entry(self):
        # <w phi'_2, phi'_2> on n=3, h=0.5: (w0+w1)/(2h) + (w1+w2)/(2h)
        val = mvt_inner(2, 2, "w_dphi_dphi", F3, MESH3)
        assert val == pytest.approx(1.5 + 0.5, abs=1e-15)

    def test_weight_length_guard(self):
        with pytest.raises(ValidationError):
            mvt_inner(1, 1, "w_phi_phi", np.ones(4), MESH3)

    def test_surface_stiffness_entry(self):
        # <w phi'_1, phi'_1> on a graded mesh: only element 0, (w0+w1)/(2 h0)
        mesh = Mesh([0.0, 0.1, 0.4, 1.0])
        w = np.array([2.0, 3.0, 5.0, 7.0])
        assert mvt_inner(1, 1, "w_dphi_dphi", w, mesh) == (w[0] + w[1]) / (2.0 * 0.1)

    @pytest.mark.parametrize("inner", [
        lambda kind: exact_inner(1, 1, kind, MESH3),
        lambda kind: mvt_inner(1, 1, kind, F3, MESH3),
    ], ids=["exact", "mvt"])
    def test_unknown_kind(self, inner):
        with pytest.raises(ValidationError, match="unknown"):
            inner("dphi_dphi_dphi")

    @pytest.mark.parametrize("kind, assemble, scale", [
        ("w_phi_phi", assemble_Mf, 1.0),
        ("w_dphi_phi", lambda mesh, w: assemble_Kf(mesh, w, 0.6), 0.6),
        ("w_dphi_dphi", assemble_S, 1.0),
    ], ids=["Mf", "Kf", "S"])
    def test_band_assembly_is_the_entrywise_reference(self, kind, assemble, scale):
        """Every entry (r, c), zeros and the bottom row included, on a graded mesh."""
        mesh = Mesh(np.linspace(0.0, 1.0, 9) ** 2)
        w = np.exp(-2.0 * mesh.nodes) + mesh.nodes**3
        m = mesh.n - 1
        reference = np.array([[scale * mvt_inner(r + 2, c + 2, kind, w, mesh) for c in range(m)]
                              for r in range(m)])
        np.testing.assert_allclose(assemble(mesh, w).to_dense(), reference, rtol=1e-15, atol=0.0)


class TestFrozenInstance:
    """Closed-form entries hand-substituted on n=3, h=0.5, f = D = 1 - z."""

    def test_mass(self):
        M = assemble_M(MESH3).to_dense()
        np.testing.assert_allclose(
            M, [[1.0 / 3.0, 1.0 / 12.0], [1.0 / 12.0, 1.0 / 6.0]], atol=1e-15)

    def test_weighted_mass(self):
        Mf = assemble_Mf(MESH3, F3).to_dense()
        np.testing.assert_allclose(
            Mf, [[1.0 / 6.0, 1.0 / 48.0], [1.0 / 48.0, 1.0 / 24.0]], atol=1e-15)

    def test_advection(self):
        Kf = assemble_Kf(MESH3, F3, 1.0).to_dense()
        np.testing.assert_allclose(
            Kf, [[0.25, -0.125], [0.125, 0.125]], atol=1e-15)

    def test_drift_equals_advection_for_equal_weights(self):
        np.testing.assert_allclose(
            assemble_A(MESH3, F3).to_dense(),
            assemble_Kf(MESH3, F3, 1.0).to_dense(), atol=1e-16)

    def test_stiffness(self):
        S = assemble_S(MESH3, F3).to_dense()
        np.testing.assert_allclose(S, [[2.0, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_boundary(self):
        B = assemble_B(MESH3, F3, 2.0).to_dense()
        np.testing.assert_allclose(B, [[0.0, 0.0], [0.0, 0.0]], atol=1e-16)
        B = assemble_B(MESH3, np.array([1.0, 0.5, 0.25]), 2.0).to_dense()
        np.testing.assert_allclose(B, [[0.0, 0.0], [0.0, 0.5]], atol=1e-16)

    def test_v1(self):
        atm = AtmosphereSeries.ramp()
        v1 = assemble_v1(0.0, 1.0, atm, MESH3, F3)
        np.testing.assert_allclose(v1, [0.0625, 0.0], atol=1e-15)

    def test_v3_constant_coefficients(self):
        atm = AtmosphereSeries.ramp()
        ones = np.ones(3)
        v3 = assemble_v3(1.0, atm, MESH3, ones, ones, ctx())
        np.testing.assert_allclose(v3, [0.5 / 6.0 - 2.0 - 0.5, 0.0], atol=1e-14)

    def test_v3_degenerate_coefficients(self):
        atm = AtmosphereSeries.ramp()
        v3 = assemble_v3(1.0, atm, MESH3, F3, F3, ctx())
        np.testing.assert_allclose(v3, [0.5 / 6.0 - 1.5 - 0.375, 0.0], atol=1e-14)


class TestSystem:
    def test_composition(self):
        context = ctx(mcoef=0.2, gcoef=0.7, fcoef=1.3)
        mesh = build_uniform(9)
        f = 1.0 - mesh.nodes
        d = 1.0 - mesh.nodes**2
        sys_ = assemble_system(mesh, f, d, context, 0.01)
        expected = (sys_.M.scale(context.gcoef) + sys_.S.scale(1.0 / context.z_F**2)
                    - sys_.A.scale(context.mcoef / context.z_F)
                    + (sys_.B - sys_.Kf).scale(1.0 / context.z_F))
        np.testing.assert_allclose(sys_.C.to_dense(), expected.to_dense(), atol=1e-14)
        np.testing.assert_allclose(
            sys_.V.to_dense(),
            sys_.Mf.to_dense() + context.T_e * 0.01 * sys_.C.to_dense(), atol=1e-14)

    def test_rescaling_enters_system(self):
        ctx = RescaledContext(T_e=30.0, z_F=80.0, mcoef=0.0, gcoef=1.0, fcoef=0.6)
        mesh = build_uniform(5)
        f = np.ones(5)
        d = np.ones(5)
        sys_ = assemble_system(mesh, f, d, ctx, 0.01)
        # diffusion scales with 1/z_F^2, advection with 1/z_F
        expected = (1.0 * assemble_M(mesh).to_dense()[1, 0]
                    + assemble_S(mesh, d).to_dense()[1, 0] / 80.0**2
                    - 0.6 / 80.0 * assemble_Kf(mesh, f, 1.0).to_dense()[1, 0])
        assert abs(sys_.C.to_dense()[1, 0] - expected) < 1e-12

    def test_sample_length_guard(self):
        with pytest.raises(ValidationError):
            assemble_system(MESH3, np.ones(4), np.ones(3), ctx(), 0.01)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValidationError):
            assemble_system(MESH3, F3, F3, ctx(), -0.1)

    @pytest.mark.parametrize("dt", [0.0, 1e-7, 0.003, 1.0 / 3.0, 0.7, 1.0])
    def test_replaced_step_matches_assembly(self, dt):
        """``replace(system, dt=x)`` derives bitwise step ``x``'s matrix and shares the rest."""
        ctx = RescaledContext(T_e=30.0, z_F=80.0, mcoef=0.2, gcoef=0.7, fcoef=1.3)
        mesh = build_uniform(9)
        f, d = 1.0 - mesh.nodes, 1.0 - mesh.nodes**2
        system = assemble_system(mesh, f, d, ctx, 0.01)
        derived, fresh = replace(system, dt=dt), assemble_system(mesh, f, d, ctx, dt)
        for band in ("sub", "diag", "sup"):
            assert getattr(derived.V, band).tobytes() == getattr(fresh.V, band).tobytes()
        for name in ("mesh", "f_samples", "d_samples", "context", "M", "Mf", "Kf", "A", "S",
                     "B", "C"):
            assert getattr(derived, name) is getattr(system, name)
        with pytest.raises(ValidationError):
            replace(system, dt=-dt - 0.1)

    def test_step_matrix_not_an_argument(self):
        system = assemble_system(MESH3, F3, F3, ctx(), 0.01)
        with pytest.raises(TypeError):
            DiscreteSystem(**{name: getattr(system, name) for name in
                              ("mesh", "f_samples", "d_samples", "context", "dt", "M", "Mf",
                               "Kf", "A", "S", "B", "C", "V")})


class TestRhs:
    def test_formula(self):
        rng = np.random.default_rng(3)
        Mf = assemble_Mf(MESH3, F3)
        lam = rng.normal(size=2)
        v1 = rng.normal(size=2)
        v3 = rng.normal(size=2)
        rhs = assemble_rhs(lam, v1, v3, Mf, T_e=2.0, dt=0.25)
        np.testing.assert_allclose(rhs, Mf.matvec(lam) - v1 - 0.5 * v3, atol=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(ValidationError):
            assemble_rhs(np.zeros(3), np.zeros(2), np.zeros(2),
                         assemble_M(MESH3), 1.0, 0.1)

