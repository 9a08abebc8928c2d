import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firngas import analysis, assembly, oracle, solver
from firngas.assembly import Tridiagonal, assemble_system
from firngas.errors import SingularMatrixError, TimeStepError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams, RescaledContext,
                           rescale)
from firngas.analysis import _EPS, _GRID_TOL, _MAX_STEPS, _time_grid
from firngas.solver import _DENSE_MAX, Trajectory, factor_tridiagonal, levels, run, write_csv
from reference import (DECAY, ONE, README_CONTEXT, UNIT_CONTEXT, count_calls, ctx,
                       reference_step)


def assert_solves(matrix, rhs, x):
    """``x`` agrees with the dense LAPACK solve to 1e-10 relative."""
    ref = oracle.dense_solve(matrix, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)


def assert_residual_as_dense(matrix, rhs, x):
    """The residual of ``x`` is the dense LAPACK solve's, up to rounding on the scale of |V| |x|."""
    ref = oracle.dense_solve(matrix, rhs)
    scale = matrix.max_abs() * np.max(np.abs(x)) * matrix.dim * np.finfo(float).eps
    residual, ref_residual = (np.max(np.abs(matrix.matvec(y) - rhs)) for y in (x, ref))
    assert residual <= 4.0 * max(ref_residual, scale)


@st.composite
def dominant_tridiagonals(draw):
    """Strictly row- and column-diagonally dominant bands with random signs."""
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, m - 1) * 10.0 ** rng.uniform(-3, 3)
    sup = rng.uniform(-1.0, 1.0, m - 1) * 10.0 ** rng.uniform(-3, 3)
    reach = np.zeros(m)
    reach[1:] += np.abs(sub) + np.abs(sup)
    reach[:-1] += np.abs(sub) + np.abs(sup)
    margin = 10.0 ** rng.uniform(-2, 2)
    diag = rng.choice([-1.0, 1.0], m) * (reach + margin)
    return Tridiagonal(sub, diag, sup), rng.normal(size=(draw(st.integers(2, 5)), m))


@st.composite
def general_tridiagonals(draw):
    """Bands of independent normal entries on one random scale: rarely dominant, often swapped."""
    m = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3)
    band = Tridiagonal(*(rng.normal(size=size) * scale for size in (m - 1, m, m - 1)))
    return band, rng.normal(size=m)


def swapped_rows(matrix):
    return factor_tridiagonal(matrix)._swapped_rows


@st.composite
def admissible_step_matrices(draw):
    """Step matrices ``V`` of random admissible runs at their ``auto`` step."""
    n = draw(st.integers(3, 40))
    f0 = draw(st.floats(0.5, 2.0))
    d0 = draw(st.floats(0.5, 2.0))
    f = CoefficientProfile.affine(f0, -f0 * draw(st.floats(0.0, 1.0)))
    d = CoefficientProfile.affine(d0, -d0 * draw(st.floats(0.0, 1.0)))
    context = RescaledContext(T_e=draw(st.floats(0.5, 50.0)), z_F=draw(st.floats(0.5, 100.0)),
                              mcoef=draw(st.floats(0.0, 0.1)), gcoef=draw(st.floats(0.0, 2.0)),
                              fcoef=draw(st.floats(0.0, 2.0)))
    plan = analysis.plan_run(f, d, build_uniform(n), context)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return plan.operators.V, rng.normal(size=(draw(st.integers(2, 5)), n - 1))


class TestBandSolve:
    def test_identity(self):
        band = Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(factor_tridiagonal(band).solve(rhs), rhs)

    def test_hand_elimination(self):
        band = Tridiagonal([1.0], [2.0, 2.0], [1.0])
        np.testing.assert_allclose(factor_tridiagonal(band).solve([3.0, 3.0]),
                                   [1.0, 1.0], atol=1e-14)

    def test_residual_on_random_dominant(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = rng.integers(2, 60)
            band = Tridiagonal(rng.normal(size=m - 1),
                               np.abs(rng.normal(size=m)) + 3.0,
                               rng.normal(size=m - 1))
            rhs = rng.normal(size=m)
            x = factor_tridiagonal(band).solve(rhs)
            residual = np.max(np.abs(band.matvec(x) - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    @given(general_tridiagonals())
    def test_residual_on_random_general(self, case):
        # Partial pivoting is backward stable.  The product with a stored
        # inverse is not, but on these bands it keeps the same bound.
        band, rhs = case
        assert_residual_as_dense(band, rhs, factor_tridiagonal(band).solve(rhs))

    def test_zero_first_pivot_swaps(self):
        band = Tridiagonal([1.0], [0.0, 1.0], [1.0])
        assert swapped_rows(band) == [0]
        x = factor_tridiagonal(band).solve(np.array([1.0, 1.0]))
        np.testing.assert_allclose(band.matvec(x), [1.0, 1.0], atol=1e-12)

    def test_singular_carries_pivot_index(self):
        band = Tridiagonal([0.0], [0.0, 1.0], [0.0])
        with pytest.raises(SingularMatrixError) as info:
            factor_tridiagonal(band).solve(np.array([1.0, 1.0]))
        assert info.value.pivot_index == 0

    def test_dimension_guard(self):
        band = Tridiagonal([1.0], [2.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            factor_tridiagonal(band).solve(np.zeros(3))

    def test_column_right_hand_side_refused(self):
        band = Tridiagonal([1.0], [2.0, 2.0], [1.0])
        with pytest.raises(ValidationError, match=r"shape \(2,\)"):
            factor_tridiagonal(band).solve(np.zeros((2, 1)))


class TestFactorTridiagonal:
    @staticmethod
    def check_reuse(matrix, rhs_rows):
        # One factor for every right-hand side: bitwise the fresh solves.  No
        # row is swapped, so these keep plain Thomas elimination's arithmetic.
        factor = factor_tridiagonal(matrix)
        assert factor._swapped_rows == []
        for rhs in rhs_rows:
            x = factor.solve(rhs)
            assert np.array_equal(x, factor_tridiagonal(matrix).solve(rhs))
            assert_solves(matrix, rhs, x)

    @given(dominant_tridiagonals())
    def test_reuse_on_dominant(self, case):
        self.check_reuse(*case)

    @given(admissible_step_matrices())
    def test_reuse_on_admissible_step_matrices(self, case):
        self.check_reuse(*case)

    def test_pivoted_last_row_singular(self):
        """[[1, 1], [1, 1]]: no swap, the first pivot holds and the last one is 0."""
        with pytest.raises(SingularMatrixError) as info:
            factor_tridiagonal(Tridiagonal([1.0], [1.0, 1.0], [1.0]))
        assert info.value.pivot_index == 1

    def test_swapped_factor_reused(self):
        # zero first pivot: one swapped factor serves every right-hand side
        rng = np.random.default_rng(7)
        diag = rng.uniform(3.0, 4.0, 6)
        diag[0] = 0.0
        band = Tridiagonal(rng.uniform(1.0, 2.0, 5), diag, rng.uniform(1.0, 2.0, 5))
        factor = factor_tridiagonal(band)
        assert factor._swapped_rows[0] == 0
        for rhs in rng.normal(size=(4, 6)):
            x = factor.solve(rhs)
            assert np.array_equal(x, factor_tridiagonal(band).solve(rhs))
            np.testing.assert_allclose(x, oracle.dense_solve(band, rhs), rtol=1e-12,
                                       atol=1e-12)


class TestTrajectory:
    def test_reconstruct_full(self):
        mesh = build_uniform(3)
        traj = Trajectory(times=np.array([0.0, 1.0]),
                          interior=np.array([[0.0, 0.0], [0.3, 0.7]]),
                          boundary=np.array([0.0, 1.0]), mesh=mesh)
        np.testing.assert_array_equal(traj.reconstruct_full(0), [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(traj.reconstruct_full(1), [1.0, 0.3, 0.7])
        with pytest.raises(ValidationError):
            traj.reconstruct_full(2)

    def test_must_start_from_zero(self):
        mesh = build_uniform(3)
        with pytest.raises(ValidationError):
            Trajectory(times=np.array([0.0, 1.0]),
                       interior=np.array([[0.1, 0.0], [0.3, 0.7]]),
                       boundary=np.array([0.0, 1.0]), mesh=mesh)

    def test_times_must_increase(self):
        with pytest.raises(ValidationError, match="times must increase"):
            Trajectory(times=np.array([0.0, 0.5, 0.5]), interior=np.zeros((3, 2)),
                       boundary=np.zeros(3), mesh=build_uniform(3))

    @pytest.mark.parametrize("times", [[], [[0.0]]], ids=["empty", "two_dimensional"])
    def test_times_must_be_a_nonempty_vector(self, times):
        with pytest.raises(ValidationError, match="nonempty 1-d array"):
            Trajectory(times=np.array(times), interior=np.zeros((len(times), 2)),
                       boundary=np.zeros(np.shape(times)), mesh=build_uniform(3))

    def test_boundary_must_match_times(self):
        with pytest.raises(ValidationError):
            Trajectory(times=np.array([0.0, 1.0]), interior=np.zeros((2, 2)),
                       boundary=np.array([0.0]), mesh=build_uniform(3))

    def test_csv_stride(self, tmp_path):
        mesh = build_uniform(5)
        traj = run(mesh, ONE, ONE, ctx(), AtmosphereSeries.ramp(), dt=0.02)
        plan = analysis.plan_run(ONE, ONE, mesh, ctx(), dt=0.02)
        path = tmp_path / "traj.csv"
        with open(path, "w", newline="\n") as handle:
            write_csv(handle, mesh.nodes,
                      levels(plan.operators, AtmosphereSeries.ramp(), stride=10))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,0,")
        # down-sampled but the final level is always kept
        assert lines[-1].split(",")[0] == "1"
        assert len(lines) < traj.n_levels + 1

    @pytest.mark.parametrize("stride", [1, 7])
    def test_csv_bytes_match_per_value_formatting(self, tmp_path, stride):
        # Edge values of 17-digit text over 2,500 rows; the reference formats
        # each value of each reconstructed row on its own.
        special = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 1.0 / 3.0, 2.0**52 + 1.0,
                   1e-5, 123456789.12345678, 1e16, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(3)
        mesh = build_uniform(6)
        n_levels = 2500
        interior = rng.choice(special, size=(n_levels, 5)) * rng.choice([1.0, 1.7], (n_levels, 5))
        interior[0] = 0.0
        traj = Trajectory(times=np.cumsum(np.r_[0.0, rng.uniform(1e-9, 1.0, n_levels - 1)]),
                          interior=interior, boundary=rng.choice(special, n_levels), mesh=mesh)
        kept = list(range(0, n_levels, stride))
        kept += [n_levels - 1] if kept[-1] != n_levels - 1 else []
        path = tmp_path / "traj.csv"
        with open(path, "w", newline="\n") as handle:
            write_csv(handle, mesh.nodes,
                      [(traj.times[k], traj.boundary[k], traj.interior[k]) for k in kept])
        want = "t," + ",".join(f"{z:.17g}" for z in mesh.nodes) + "\n" + "".join(
            f"{traj.times[k]:.17g}," + ",".join(f"{v:.17g}" for v in traj.reconstruct_full(k))
            + "\n" for k in kept)
        assert path.read_bytes() == want.encode()


class TestRun:
    def test_zero_forcing_exactly_zero(self):
        traj = run(build_uniform(11), ONE, ONE, ctx(), AtmosphereSeries.zero(), dt="auto")
        assert np.all(traj.interior == 0.0)
        assert np.all(traj.boundary == 0.0)

    def test_boundary_node_exact(self):
        atm = AtmosphereSeries.ramp()
        traj = run(build_uniform(11), ONE, ONE, ctx(), atm, dt="auto")
        for k in range(traj.n_levels):
            assert traj.reconstruct_full(k)[0] == atm(traj.times[k])

    def test_ramp_stays_bounded(self):
        traj = run(build_uniform(51), ONE, ONE, ctx(fcoef=0.1), AtmosphereSeries.ramp(),
                   dt=0.01)
        assert traj.interior.min() >= -0.05
        assert traj.interior.max() <= 1.05

    def test_linearity_in_forcing(self):
        mesh = build_uniform(21)
        base = run(mesh, ONE, ONE, ctx(), AtmosphereSeries.ramp(), dt="auto")
        scaled = run(mesh, ONE, ONE, ctx(), AtmosphereSeries.ramp(3.7), dt="auto")
        np.testing.assert_allclose(scaled.interior, 3.7 * base.interior,
                                   rtol=1e-12, atol=1e-14)

    def test_determinism(self):
        mesh = build_uniform(21)
        a = run(mesh, DECAY, DECAY, ctx(), AtmosphereSeries.ramp(), dt="auto")
        b = run(mesh, DECAY, DECAY, ctx(), AtmosphereSeries.ramp(), dt="auto")
        assert np.array_equal(a.interior, b.interior)
        assert np.array_equal(a.times, b.times)

    def test_times_land_on_one(self):
        traj = run(build_uniform(11), ONE, ONE, ctx(), AtmosphereSeries.ramp(), dt=0.003)
        assert traj.times[-1] == 1.0
        # interior steps are uniform
        np.testing.assert_allclose(np.diff(traj.times)[:-1], 0.003, rtol=1e-12)

    def test_dt_above_bound_rejected(self):
        with pytest.raises(TimeStepError) as info:
            run(build_uniform(11), ONE, ONE, ctx(), AtmosphereSeries.ramp(), dt=0.9)
        assert info.value.dt_max > 0.0

    @pytest.mark.parametrize("force", [False, True])
    def test_negative_dt_refused_by_plan(self, force):
        with pytest.raises(ValidationError):
            analysis.plan_run(DECAY, DECAY, build_uniform(5), ctx(), dt=-0.1, force=force)

    @pytest.mark.parametrize("dt", [0.5 / _MAX_STEPS, 1e-310, 5e-324])
    def test_step_count_above_limit_refused(self, dt):
        """The limit is compared before rounding, so an infinite reciprocal is refused too.

        ``plan_run`` refuses such a step, so the system is assembled directly;
        ``levels`` refuses it when it is called.
        """
        assert _time_grid(1.0 / _MAX_STEPS) == (_MAX_STEPS, 1.0 / _MAX_STEPS)
        mesh = build_uniform(5)
        system = assemble_system(mesh, ONE(mesh.nodes), ONE(mesh.nodes), ctx(), dt)
        with pytest.raises(ValidationError, match="limit"):
            levels(system, AtmosphereSeries.ramp())

    def test_auto_step_count_above_limit_refused_by_run(self):
        """f = 1, D = 1e200 passes every check with ``dt_max`` near 8e-202: no level is allocated."""
        with pytest.raises(ValidationError, match="limit"):
            run(build_uniform(11), ONE, CoefficientProfile.constant(1e200), UNIT_CONTEXT,
                AtmosphereSeries.ramp())

    @pytest.mark.parametrize("dt", [0.0, 2.0])
    def test_step_outside_unit_interval_refused_by_levels(self, dt):
        """The system takes any ``dt >= 0``; the loop refuses one outside (0, 1] when called."""
        mesh = build_uniform(5)
        system = assemble_system(mesh, ONE(mesh.nodes), ONE(mesh.nodes), ctx(), dt)
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            levels(system, AtmosphereSeries.ramp())

    def test_force_overrides_bound(self):
        traj = run(build_uniform(11), ONE, ONE, ctx(), AtmosphereSeries.ramp(),
                   dt=0.5, force=True)
        assert np.all(np.isfinite(traj.interior))

    @pytest.mark.parametrize("context", [
        RescaledContext(T_e=1.0, z_F=1.0, mcoef=0.0, gcoef=0.0, fcoef=0.0),   # dt_max = inf
        RescaledContext(T_e=0.001, z_F=1.0, mcoef=0.0, gcoef=1.0, fcoef=1.0),  # dt_max = 4.2
    ], ids=["inf", "4.2"])
    def test_auto_step_capped_at_unit_interval(self, context):
        traj = run(build_uniform(11), DECAY, DECAY, context, AtmosphereSeries.ramp(), dt="auto")
        assert traj.times.tolist() == [0.0, 1.0]
        assert np.all(np.isfinite(traj.interior))

    def test_inadmissible_profile_rejected(self):
        bad = CoefficientProfile.constant(-1.0)
        from firngas.errors import AssumptionError
        with pytest.raises(AssumptionError):
            run(build_uniform(11), bad, ONE, ctx(), AtmosphereSeries.zero(), dt=0.01)

    def test_degenerate_pair_completes(self):
        traj = run(build_uniform(31), DECAY, DECAY, ctx(), AtmosphereSeries.ramp(),
                   dt="auto")
        assert np.all(np.isfinite(traj.interior))
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("exponent", [30, 60, 70])
    def test_power_of_two_scale_gives_bitwise_trajectory(self, exponent):
        """f = D = s(1 - z) and gcoef = s scale every operator and forcing term by s exactly.

        The pivot guard is relative to max|V|, so a step matrix with entries
        near 2**-70 solves as it does at s = 1.
        """
        def interior(s):
            context = RescaledContext(T_e=1.0, z_F=1.0, mcoef=0.5, gcoef=s, fcoef=0.6)
            profile = CoefficientProfile.affine(s, -s)
            return run(build_uniform(51), profile, profile, context, AtmosphereSeries.ramp(),
                       dt=1e-3).interior

        assert interior(2.0**-exponent).tobytes() == interior(1.0).tobytes()

    def test_long_run_at_readme_scale(self):
        # 10,000 steps: dt * k drifts from t_k by up to an ulp of t_k, which
        # the step's interval check must accept.
        traj = run(build_uniform(5), DECAY, DECAY, README_CONTEXT, AtmosphereSeries.ramp(),
                   dt=1e-4)
        assert traj.n_levels == 10001
        assert traj.times[-1] == 1.0
        assert np.all(np.isfinite(traj.interior))


def step_by_step(plan, atmosphere, times):
    """The reference loop: a fresh solve of the public assembled right-hand side per interval."""
    n_steps, last_dt = _time_grid(plan.operators.dt)
    interior = np.zeros((n_steps + 1, plan.operators.mesh.n - 1))
    for k in range(n_steps):
        system = replace(plan.operators, dt=last_dt) if k == n_steps - 1 else plan.operators
        _, interior[k + 1] = reference_step(system, interior[k], times[k], times[k + 1],
                                            atmosphere)
    return interior


def level_times(dt):
    """The level times of ``levels`` at ``dt``: it samples the atmosphere at all of them first."""
    sampled = []

    def atmosphere(t):
        sampled.append(t)
        return np.zeros_like(t)

    mesh = build_uniform(3)
    levels(assemble_system(mesh, ONE(mesh.nodes), ONE(mesh.nodes), ctx(), dt), atmosphere)
    return sampled[0]


def test_reciprocal_steps_give_their_step_count():
    # 1/K is rounded, so K * dt can land an ulp short of 1: that remainder is no step.
    assert [K for K in range(2, 10**6) if _time_grid(1.0 / K)[0] != K] == []
    assert _time_grid(1.0 / _MAX_STEPS)[0] == _MAX_STEPS


# Random steps, and steps within 60 ulps of 1/N, where the remainder is rounding.
GRID_STEPS = st.one_of(
    st.floats(min_value=1e-5, max_value=1.0),
    st.builds(lambda n, j: 1.0 / n + j * math.ulp(1.0 / n),
              st.integers(2, 10**5), st.integers(-60, 60)))


@given(GRID_STEPS)
def test_time_grid_rule(dt):
    """The level times of one rule: no step below ``_GRID_TOL``, and halving nests the grid.

    The last step exceeds ``dt`` by a few ulps of 1 at most, and the kept
    levels of ``dt / 2`` at stride 2 are bitwise the levels of ``dt``.
    """
    n_steps, last_dt = _time_grid(dt)
    times = level_times(dt)
    steps = np.diff(times)
    assert len(times) == n_steps + 1 and times[-1] == 1.0
    assert np.all(steps >= _GRID_TOL)
    assert steps[-1] - dt <= 5 * _EPS
    assert last_dt == (dt if abs(steps[-1] - dt) <= _GRID_TOL else steps[-1])
    half = level_times(dt / 2)
    kept = sorted({*range(0, len(half), 2), len(half) - 1})
    assert half[kept].tobytes() == times.tobytes()


@pytest.mark.parametrize("dt, factors", [(1e-5, 1), (2e-5, 1), (1e-6, 1), (0.003, 2)])
def test_rounding_last_step_reuses_the_uniform_factor(dt, factors, monkeypatch):
    """A last step that differs from ``dt`` only by rounding factors no second step matrix."""
    calls = count_calls(monkeypatch, solver, "factor_tridiagonal")
    level_times(dt)
    assert len(calls) == factors


# Drift only, at physical scale: the step that zeroes V[0, 0] swaps rows 0 and 1.
DRIFT_CONTEXT = RescaledContext(T_e=30.0, z_F=80.0, mcoef=10.0, gcoef=0.0, fcoef=0.0)


V500_CONTEXT = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3, lam=0.7,
                                   v=500.0, w_air=0.1, z_F=80.0, T_e=30.0))


def zero_corner_step(mesh, context):
    """The ``dt`` at which ``V[0, 0] = Mf[0, 0] + T_e dt C[0, 0]`` is exactly 0."""
    system = assemble_system(mesh, DECAY(mesh.nodes), DECAY(mesh.nodes), context, 0.0)
    return float(-system.Mf.diag[0] / (context.T_e * system.C.diag[0]))


# name -> (mesh, context, dt, force, expected step count K)
BIT_CASES = {
    "unit_auto": (build_uniform(11), UNIT_CONTEXT, "auto", False, 267),
    "unit_dt0.003_short_last": (build_uniform(11), UNIT_CONTEXT, 0.003, False, 334),
    "readme_n5_dt1e-4": (build_uniform(5), README_CONTEXT, 1e-4, False, 10000),
    "unit_forced_dt0.5": (build_uniform(11), UNIT_CONTEXT, 0.5, True, 2),
    # graded to the surface: the row-0 forcing reads the short first element
    "unit_s2_auto": (Mesh(np.linspace(0.0, 1.0, 11) ** 2), UNIT_CONTEXT, "auto", False, 2667),
    "drift_pivoted_forced": (build_uniform(11), DRIFT_CONTEXT,
                             zero_corner_step(build_uniform(11), DRIFT_CONTEXT), True, 2),
    # README scale with v = 500: advection outweighs the diagonal, rows swap
    "readme_v500_forced_dt0.3": (build_uniform(11), V500_CONTEXT, 0.3, True, 4),
}
ATMOSPHERES = {
    "ramp": AtmosphereSeries.ramp(),
    "piecewise": AtmosphereSeries(np.array([0.0, 0.13, 0.4, 0.77, 1.0]),
                                  np.array([0.0, 0.9, -0.3, 0.55, -1.2])),
}


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_run_bitwise_equals_step_loop(case, atm_name):
    # The loop is bitwise K fresh solves of the assembled right-hand side; the
    # golden CSVs in tests/data pin that arithmetic itself.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    traj = run(mesh, DECAY, DECAY, context, atmosphere, dt=dt, force=force)
    assert traj.n_levels == n_steps + 1
    assert np.array_equal(traj.boundary, atmosphere(traj.times))
    assert np.array_equal(traj.interior, step_by_step(plan, atmosphere, traj.times))


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_levels_thin_the_full_loop(case, atm_name):
    # Rows 0, stride, 2*stride, ... and K of the stored trajectory, bit for bit.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    traj = run(mesh, DECAY, DECAY, context, atmosphere, dt=dt, force=force)
    for stride in (1, np.int64(7), n_steps + 5):
        kept = sorted({*range(0, n_steps + 1, stride), n_steps})
        times, boundary, interior = zip(*levels(plan.operators, atmosphere, stride))
        assert np.array(times).tobytes() == traj.times[kept].tobytes()
        assert np.array(boundary).tobytes() == traj.boundary[kept].tobytes()
        assert np.array(interior).tobytes() == traj.interior[kept].tobytes()
    for stride in (0, 2.5, 1.5, 2.0, True, "2", None):
        with pytest.raises(ValidationError):
            levels(plan.operators, atmosphere, stride)


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_half_step_levels_share_one_assembly(case, atm_name, monkeypatch):
    # Step doubling on one operator set: every second level at dt / 2 falls on the dt grid.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    assemblies = count_calls(monkeypatch, assembly, "assemble_system")
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    full = [t for t, _, _ in levels(plan.operators, atmosphere)]
    halved = replace(plan.operators, dt=plan.operators.dt / 2)
    half = [t for t, _, _ in levels(halved, atmosphere, stride=2)]
    assert len(full) == n_steps + 1
    assert np.array(half).tobytes() == np.array(full).tobytes()
    assert len(assemblies) == 1


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_levels_of_a_bare_system_match_the_plan(case, atm_name):
    # levels needs no plan: the operators assembled by hand at the plan's step, bit for bit.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    bare = assemble_system(mesh, DECAY(mesh.nodes), DECAY(mesh.nodes), context,
                           plan.operators.dt)
    for got, want in zip(zip(*levels(bare, atmosphere)), zip(*levels(plan.operators, atmosphere))):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_swap_cases_step_on_swapped_factors():
    mesh, context, dt, force, _ = BIT_CASES["drift_pivoted_forced"]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    assert plan.operators.V.diag[0] == 0.0
    assert swapped_rows(plan.operators.V)[0] == 0
    # both step matrices of the v = 500 run, the uniform and the shortened last
    mesh, context, dt, force, _ = BIT_CASES["readme_v500_forced_dt0.3"]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    for step in (dt, 1.0 - 3 * dt):
        assert len(swapped_rows(replace(plan.operators, dt=step).V)) == 4


def test_loop_holds_four_doubles_per_step():
    # After its set-up the loop holds the times, the surface values and the two
    # row-0 forcings, K + O(1) doubles each, and nothing else that grows with K.
    mesh = build_uniform(11)
    system = assemble_system(mesh, DECAY(mesh.nodes), DECAY(mesh.nodes), UNIT_CONTEXT, 1e-5)
    n_steps = _time_grid(system.dt)[0]
    assert n_steps == 100_000
    tracemalloc.start()
    try:
        loop = levels(system, AtmosphereSeries.ramp())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 4.25 * 8 * n_steps


def test_streamed_levels_do_not_grow_with_step_count():
    # K = 1,250 and then 12,500 at stride 100: only the per-step scalars grow.
    mesh = build_uniform(51)
    peaks = []
    for dt in (8e-4, 8e-5):
        plan = analysis.plan_run(DECAY, DECAY, mesh, UNIT_CONTEXT, dt=dt)
        with open(os.devnull, "w") as handle:
            tracemalloc.start()
            try:
                write_csv(handle, mesh.nodes,
                          levels(plan.operators, AtmosphereSeries.ramp(), stride=100))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.5e6


def test_csv_writer_holds_one_row():
    # 5,001 rows of 102 values: the writer holds one formatted row at a time.
    mesh = build_uniform(101)
    plan = analysis.plan_run(DECAY, DECAY, mesh, UNIT_CONTEXT, dt=2e-4)
    rows = levels(plan.operators, AtmosphereSeries.ramp())
    with open(os.devnull, "w") as handle:
        tracemalloc.start()
        try:
            write_csv(handle, mesh.nodes, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _time_grid(plan.operators.dt)[0] == 5000
    assert peak < 0.5e6


def test_array_records_compare_by_identity():
    """A record holding arrays equals only itself, and hashes; a scalar record compares by value."""
    def records():
        mesh = build_uniform(3)
        plan = analysis.plan_run(DECAY, DECAY, mesh, UNIT_CONTEXT)
        trajectory = Trajectory(times=np.array([0.0, 1.0]), interior=np.zeros((2, 2)),
                                boundary=np.array([0.0, 1.0]), mesh=mesh)
        return [mesh, plan.operators.V, plan.operators, plan, trajectory, AtmosphereSeries.ramp()]

    for first, second in zip(records(), records()):
        assert first == first and first != second, type(first).__name__
        assert len({first, first, second}) == 2
    assert replace(UNIT_CONTEXT) == UNIT_CONTEXT


def in_order_product(inverse_t, rhs):
    """``sum_j rhs_j W^T[j]`` on Python floats in order of j, a multiply and an add per term."""
    x = [0.0] * len(rhs)
    for r_j, row in zip(rhs.tolist(), inverse_t.tolist()):
        x = [x_i + r_j * w for x_i, w in zip(x, row)]
    return np.array(x)


def random_band(rng, m, dominant):
    """Normal bands of dimension m; a dominant diagonal swaps no row, a normal one usually does."""
    sub, diag, sup = (rng.normal(size=size) for size in (m - 1, m, m - 1))
    return Tridiagonal(sub, diag + np.sign(diag) * 6.0 if dominant else diag, sup)


@pytest.mark.parametrize("dominant", [True, False])
@pytest.mark.parametrize("m", [2, 10, 100, _DENSE_MAX])
class TestStoredInverse:
    def test_solve_is_the_in_order_product(self, m, dominant):
        # A solve's bits are its summation order: a NumPy that sent the
        # product to BLAS, which orders and fuses by CPU kernel, fails here.
        rng = np.random.default_rng(m)
        factor = factor_tridiagonal(random_band(rng, m, dominant))
        rhs_rows = rng.normal(size=(5, m)) * 10.0 ** rng.uniform(-3, 3, size=(5, 1))
        for rhs in rhs_rows:
            assert factor.solve(rhs).tobytes() == in_order_product(factor._inverse_t, rhs).tobytes()
        if m > 2:  # three terms or more: the order shows in the bits
            reversed_order = [in_order_product(factor._inverse_t[::-1], rhs[::-1])
                              for rhs in rhs_rows]
            assert any(x.tobytes() != factor.solve(rhs).tobytes()
                       for x, rhs in zip(reversed_order, rhs_rows))

    def test_inverse_rows_are_substitutions(self, m, dominant):
        # Row j of W^T is the float substitution of e_j, and the solve of e_j.
        factor = factor_tridiagonal(random_band(np.random.default_rng(m), m, dominant))
        assert factor._swapped_rows == [] or not dominant
        assert factor._inverse_t.flags.c_contiguous
        for j, e_j in enumerate(np.eye(m)):
            row = factor._inverse_t[j].tobytes()
            assert np.array(list(factor._substitute(e_j.tolist()))).tobytes() == row
            assert factor.solve(e_j).tobytes() == row


def size_rule_matrices(m):
    """Step matrices of dimension m: admissible at the auto step, forced, and forced with swaps."""
    mesh = build_uniform(m + 1)
    return {
        "admissible": analysis.plan_run(DECAY, DECAY, mesh, UNIT_CONTEXT).operators.V,
        "forced": analysis.plan_run(DECAY, DECAY, mesh, UNIT_CONTEXT, dt=0.5,
                                    force=True).operators.V,
        "swapped": analysis.plan_run(DECAY, DECAY, mesh, V500_CONTEXT, dt=0.3,
                                     force=True).operators.V,
        "general": random_band(np.random.default_rng(m), m, dominant=False),
    }


@pytest.mark.parametrize("m", [_DENSE_MAX, _DENSE_MAX + 1])
def test_size_rule_sides_agree_with_the_dense_solve(m):
    matrices = size_rule_matrices(m)
    assert swapped_rows(matrices["swapped"]) and not swapped_rows(matrices["admissible"])
    rng = np.random.default_rng(m)
    for name, matrix in matrices.items():
        factor = factor_tridiagonal(matrix)
        assert (factor._inverse_t is not None) == (m <= _DENSE_MAX), name
        for rhs in rng.normal(size=(3, m)):
            assert_residual_as_dense(matrix, rhs, factor.solve(rhs))


@pytest.mark.parametrize("m", [_DENSE_MAX, _DENSE_MAX + 1])
def test_singular_refused_at_factor_time_on_both_sides(m):
    diag = np.ones(m)
    diag[m // 2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        factor_tridiagonal(Tridiagonal(np.zeros(m - 1), diag, np.zeros(m - 1)))
    assert info.value.pivot_index == m // 2


def test_overflowing_inverse_refused():
    """Unit diagonal, superdiagonal 1e15: every pivot is 1, but ``W[0, j] = (-1e15)**j`` overflows."""
    m = _DENSE_MAX
    band = Tridiagonal(np.zeros(m - 1), np.ones(m), np.full(m - 1, 1e15))
    with pytest.raises(SingularMatrixError, match="row 0 of the inverse") as info:
        factor_tridiagonal(band)
    assert info.value.pivot_index == 0
