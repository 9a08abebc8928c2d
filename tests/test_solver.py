import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firngas import analysis, assembly, oracle
from firngas.assembly import Tridiagonal, assemble_system
from firngas.errors import SingularMatrixError, TimeStepError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams,
                           RescaledContext, rescale)
from firngas.solver import (_MAX_STEPS, Trajectory, _step_count, factor_tridiagonal, levels, run,
                            run_plan, write_csv)
from test_cli import count_calls

ONE = CoefficientProfile.constant(1.0)
DECAY = CoefficientProfile.affine(1.0, -1.0)


def ctx(mcoef=0.0, gcoef=1.0, fcoef=1.0):
    return RescaledContext(T_e=1.0, z_F=1.0, mcoef=mcoef, gcoef=gcoef, fcoef=fcoef)


# The README's physical config: 80 m of firn, 30 years.
README_CONTEXT = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3,
                                     lam=0.7, v=0.5, w_air=0.1, z_F=80.0, T_e=30.0))
# The same constants on the unit square (z_F = T_e = 1), as in the CLI tests.
UNIT_CONTEXT = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3,
                                   lam=0.7, v=0.5, w_air=0.1, z_F=1.0, T_e=1.0))


def assert_solves(matrix, rhs, x):
    """``x`` agrees with the dense LAPACK solve to 1e-10 relative."""
    ref = oracle.dense_solve(matrix, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)


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


def solve_tridiagonal(matrix, rhs):
    return factor_tridiagonal(matrix).solve(rhs)


class TestSolveTridiagonal:
    def test_identity(self):
        band = Tridiagonal(np.zeros(2), np.ones(3), np.zeros(2))
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_tridiagonal(band, rhs), rhs)

    def test_hand_elimination(self):
        band = Tridiagonal([1.0], [2.0, 2.0], [1.0])
        np.testing.assert_allclose(solve_tridiagonal(band, [3.0, 3.0]),
                                   [1.0, 1.0], atol=1e-14)

    def test_residual_on_random_dominant(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            m = rng.integers(2, 60)
            band = Tridiagonal(rng.normal(size=m - 1),
                               np.abs(rng.normal(size=m)) + 3.0,
                               rng.normal(size=m - 1))
            rhs = rng.normal(size=m)
            x = solve_tridiagonal(band, rhs)
            residual = np.max(np.abs(band.matvec(x) - rhs))
            assert residual <= 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_pivoted_fallback(self):
        # zero first pivot: unpivoted path fails, pivoted succeeds
        band = Tridiagonal([1.0], [0.0, 1.0], [1.0])
        x = solve_tridiagonal(band, np.array([1.0, 1.0]))
        np.testing.assert_allclose(band.matvec(x), [1.0, 1.0], atol=1e-12)

    def test_singular_carries_pivot_index(self):
        band = Tridiagonal([0.0], [0.0, 1.0], [0.0])
        with pytest.raises(SingularMatrixError) as info:
            solve_tridiagonal(band, np.array([1.0, 1.0]))
        assert info.value.pivot_index == 0

    def test_dimension_guard(self):
        band = Tridiagonal([1.0], [2.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            solve_tridiagonal(band, np.zeros(3))


class TestFactorTridiagonal:
    @staticmethod
    def check_reuse(matrix, rhs_rows):
        # One factor for every right-hand side: bitwise the fresh solves.
        factor = factor_tridiagonal(matrix)
        for rhs in rhs_rows:
            x = factor.solve(rhs)
            assert np.array_equal(x, solve_tridiagonal(matrix, rhs))
            assert_solves(matrix, rhs, x)

    @given(dominant_tridiagonals())
    def test_reuse_on_dominant(self, case):
        self.check_reuse(*case)

    @given(admissible_step_matrices())
    def test_reuse_on_admissible_step_matrices(self, case):
        self.check_reuse(*case)

    def test_pivoted_fallback_reused(self):
        # zero first pivot: one pivoted factor serves every right-hand side
        rng = np.random.default_rng(7)
        diag = rng.uniform(3.0, 4.0, 6)
        diag[0] = 0.0
        band = Tridiagonal(rng.uniform(1.0, 2.0, 5), diag, rng.uniform(1.0, 2.0, 5))
        factor = factor_tridiagonal(band)
        for rhs in rng.normal(size=(4, 6)):
            x = factor.solve(rhs)
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
        # Edge values of 17-digit text, across several write blocks; the
        # reference formats each value of each reconstructed row on its own.
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
        """The limit is compared before rounding, so an infinite reciprocal is refused too."""
        assert _step_count(1.0 / _MAX_STEPS) == _MAX_STEPS
        plan = analysis.plan_run(ONE, ONE, build_uniform(5), ctx(), dt=dt, force=True)
        with pytest.raises(ValidationError, match="limit"):
            next(levels(plan.operators, AtmosphereSeries.ramp()))
        with pytest.raises(ValidationError, match="limit"):
            run_plan(plan, AtmosphereSeries.ramp())

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
    dt = plan.operators.dt
    last_dt = times[-1] - times[-2]
    last = plan.system(last_dt) if abs(last_dt - dt) > 1e-12 * dt else None
    interior = np.zeros((len(times), plan.operators.mesh.n - 1))
    for k in range(len(times) - 1):
        system = last if last is not None and k == len(times) - 2 else plan.system(dt)
        mesh, f, d = system.mesh, system.f_samples, system.d_samples
        v1 = assembly.assemble_v1(times[k], times[k + 1], atmosphere, mesh, f)
        v3 = assembly.assemble_v3(times[k + 1], atmosphere, mesh, f, d, system.context)
        rhs = assembly.assemble_rhs(interior[k], v1, v3, system.Mf, system.context.T_e,
                                    system.dt)
        interior[k + 1] = factor_tridiagonal(system.V).solve(rhs)
    return interior


# name -> (mesh, context, dt, force, expected step count K)
BIT_CASES = {
    "unit_auto": (build_uniform(11), UNIT_CONTEXT, "auto", False, 267),
    "unit_dt0.003_short_last": (build_uniform(11), UNIT_CONTEXT, 0.003, False, 334),
    "readme_n5_dt1e-4": (build_uniform(5), README_CONTEXT, 1e-4, False, 10000),
    "unit_forced_dt0.5": (build_uniform(11), UNIT_CONTEXT, 0.5, True, 2),
    # graded to the surface: the row-0 forcing reads the short first element
    "unit_s2_auto": (Mesh(np.linspace(0.0, 1.0, 11) ** 2), UNIT_CONTEXT, "auto", False, 2667),
}
ATMOSPHERES = {
    "ramp": AtmosphereSeries.ramp(),
    "piecewise": AtmosphereSeries(np.array([0.0, 0.13, 0.4, 0.77, 1.0]),
                                  np.array([0.0, 0.9, -0.3, 0.55, -1.2])),
}


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_run_plan_bitwise_equals_step_loop(case, atm_name):
    # The loop is bitwise K fresh solves of the assembled right-hand side; the
    # golden CSVs in tests/data pin that arithmetic itself.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    traj = run_plan(plan, atmosphere)
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
    traj = run_plan(plan, atmosphere)
    for stride in (1, 7, n_steps + 5):
        kept = sorted({*range(0, n_steps + 1, stride), n_steps})
        times, boundary, interior = zip(*levels(plan.operators, atmosphere, stride))
        assert np.array(times).tobytes() == traj.times[kept].tobytes()
        assert np.array(boundary).tobytes() == traj.boundary[kept].tobytes()
        assert np.array(interior).tobytes() == traj.interior[kept].tobytes()
    with pytest.raises(ValidationError):
        next(levels(plan.operators, atmosphere, 0))


@pytest.mark.parametrize("atm_name", sorted(ATMOSPHERES))
@pytest.mark.parametrize("case", sorted(BIT_CASES))
def test_half_step_levels_share_one_assembly(case, atm_name, monkeypatch):
    # Step doubling on one operator set: every second level at dt / 2 falls on the dt grid.
    mesh, context, dt, force, n_steps = BIT_CASES[case]
    atmosphere = ATMOSPHERES[atm_name]
    assemblies = count_calls(monkeypatch, assembly, "assemble_system")
    plan = analysis.plan_run(DECAY, DECAY, mesh, context, dt=dt, force=force)
    full = [t for t, _, _ in levels(plan.operators, atmosphere)]
    half = [t for t, _, _ in levels(plan.system(plan.operators.dt / 2), atmosphere, stride=2)]
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
