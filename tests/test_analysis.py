import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firngas import analysis, assembly, cli, oracle
from firngas.analysis import (build_report, check_assumptions, check_pd_all, compute_dt_max,
                              compute_fh, estimate_lipschitz, plan_run)
from firngas.assembly import Tridiagonal, assemble_M, assemble_S, assemble_system
from firngas.errors import AssumptionError, FirngasError, ValidationError
from firngas.mesh import build_uniform
from firngas.model import AtmosphereSeries, CoefficientProfile, RescaledContext, rescale
from firngas.solver import factor_tridiagonal
from test_cli import write_config

ONE = CoefficientProfile.constant(1.0)
DECAY = CoefficientProfile.affine(1.0, -1.0)  # 1 - z
SEVEN = ("M", "Mf", "Kf", "A", "S", "B", "V")


@st.composite
def tridiagonals(draw):
    """Non-symmetric bands of dimension 1 to 300: random, zero, skew, sparse, graded, singular.

    Every ``2**k`` and ``2**k +- 1`` up to 257 is drawn as well, so odd-even
    reduction runs up to eight levels on both parities.  The skew kind has a
    zero symmetric off-diagonal, and the sparse kind zeroes it at random
    positions.  The graded kind has a positive diagonal over 30 decades and
    couplings at most a third of the geometric mean of their neighbours, so
    it is definite.  The singular kind has a weighted path Laplacian, whose
    null vector is the constant, as its symmetric part.
    """
    m = draw(st.one_of(st.integers(1, 300),
                       st.sampled_from([2**k + j for k in range(1, 9) for j in (-1, 0, 1)])))
    kind = draw(st.sampled_from(["random", "zero", "skew", "sparse", "graded", "singular"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-200, 200)
    sub, diag, sup = (scale * rng.normal(size=k) for k in (m - 1, m, m - 1))
    if kind == "zero":
        sub, diag, sup = np.zeros(m - 1), np.zeros(m), np.zeros(m - 1)
    elif kind == "skew":
        sup = -sub
    elif kind == "sparse":
        decoupled = rng.random(m - 1) < rng.uniform(0.1, 0.9)
        sub[decoupled] = 0.0
        sup[decoupled] = 0.0
    elif kind == "graded":
        diag = scale * 10.0 ** np.sort(rng.uniform(-30.0, 0.0, m))[::-1]
        coupling = rng.uniform(-1.0, 1.0, m - 1) * np.sqrt(diag[:-1]) * np.sqrt(diag[1:]) / 3.0
        sub, sup = coupling + sub, coupling - sub
    elif kind == "singular":
        w = scale * rng.uniform(0.1, 1.0, m - 1)
        diag = np.zeros(m)
        diag[1:] += w
        diag[:-1] += w
        sub, sup = -w + sub, -w - sub
    return Tridiagonal(sub, diag, sup)


@st.composite
def contexts(draw):
    """Rescaled contexts from unit to beyond the README scale."""
    return RescaledContext(T_e=draw(st.floats(0.5, 50.0)), z_F=draw(st.floats(0.5, 100.0)),
                           mcoef=draw(st.floats(0.0, 0.1)), gcoef=draw(st.floats(0.0, 2.0)),
                           fcoef=draw(st.floats(0.0, 2.0)))


@st.composite
def power_law_systems(draw):
    """The seven matrices of admissible pairs ``f = (1-z)^p``, ``D = (1-z)^q``.

    The step ``dt`` spans six decades, so ``V`` is not always definite.
    """
    mesh = build_uniform(draw(st.integers(3, 60)))
    context = draw(contexts())
    system = assemble_system(mesh, (1.0 - mesh.nodes) ** draw(st.floats(1.0, 3.0)),
                             (1.0 - mesh.nodes) ** draw(st.floats(1.0, 3.0)), context,
                             10.0 ** draw(st.floats(-6.0, 0.0)))
    return {name: getattr(system, name) for name in SEVEN}


@st.composite
def power_law_runs(draw):
    """Whole configs of degenerate pairs ``f = (1-z)^p``, ``D = (1-z)^q``, p and q in [1, 3].

    The atmosphere is a seeded piecewise-linear history that starts at 0.
    """
    mesh = build_uniform(draw(st.integers(3, 40)))
    p, q = draw(st.floats(1.0, 3.0)), draw(st.floats(1.0, 3.0))
    context = draw(contexts())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    knots = np.linspace(0.0, 1.0, int(rng.integers(2, 12)))
    values = rng.normal(size=knots.size)
    values[0] = 0.0
    return (mesh, CoefficientProfile(lambda z: (1.0 - z) ** p),
            CoefficientProfile(lambda z: (1.0 - z) ** q), context, AtmosphereSeries(knots, values))


def assert_matches_dense(verdicts, matrices):
    """Same verdict as the dense eigensolver, eigenvalue within its rounding."""
    for name, matrix in matrices.items():
        dense = oracle.min_symmetric_eigenvalue(matrix)
        got = verdicts[name]
        assert got.positive_definite == (dense > 1e-12 * matrix.max_abs()), name
        tol = 1e-9 * abs(dense) + 10.0 * np.finfo(float).eps * matrix.max_abs()
        assert abs(got.min_eigenvalue - dense) <= tol, (name, got.min_eigenvalue, dense)


def ctx(mcoef=0.0, gcoef=1.0, fcoef=1.0, z_F=1.0, T_e=1.0):
    return RescaledContext(T_e=T_e, z_F=z_F, mcoef=mcoef, gcoef=gcoef, fcoef=fcoef)


def report(f_profile, d_profile, context=None, c_D=1.0):
    return build_report(f_profile, d_profile, build_uniform(11), context or ctx(), c_D)


def hardy(d_profile):
    """The weighted Poincare constant on z_F = 1 from the helpers :func:`plan_run` calls."""
    grid, cum_inv_d, _ = analysis._inverse_integral(d_profile, float(d_profile(1.0)), 1.0)
    return analysis._hardy_constant(cum_inv_d, grid, 1.0)


def check_pd(matrix):
    return check_pd_all({"": matrix})[""]


class TestCheckAssumptions:
    def test_degenerate_pair_accepted(self):
        frag = check_assumptions(DECAY, DECAY, build_uniform(11))
        assert frag["ratio_sup_Df"] == pytest.approx(1.0)
        assert frag["ratio_sup_fD"] == pytest.approx(1.0)
        assert frag["lipschitz_L"] == pytest.approx(1.0, abs=1e-10)

    def test_negative_profile_fails(self):
        with pytest.raises(AssumptionError, match=r"\(5\)"):
            check_assumptions(CoefficientProfile.constant(-1.0), ONE, build_uniform(5))


class TestLipschitz:
    def test_affine(self):
        assert estimate_lipschitz(DECAY) == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        assert estimate_lipschitz(ONE) == 0.0

    def test_window_guard(self):
        with pytest.raises(ValidationError):
            estimate_lipschitz(ONE, hi=0.0)


class TestB0:
    def test_unit_diffusivity(self):
        assert report(ONE, ONE).B0 == pytest.approx(0.5, abs=1e-6)

    def test_scaling(self):
        assert report(ONE, CoefficientProfile.constant(4.0)).B0 == pytest.approx(0.25, abs=1e-6)

    def test_degenerate_affine(self):
        assert report(DECAY, DECAY).B0 == pytest.approx(math.exp(-0.5), abs=1e-4)

    def test_monotone_in_diffusivity(self):
        b_small = report(ONE, ONE).B0
        b_large = report(ONE, CoefficientProfile.constant(2.0)).B0
        assert b_large <= b_small

    def test_strongly_degenerate_flagged(self):
        with pytest.raises(FirngasError, match="cond:WI"):
            hardy(lambda u: (1.0 - u)**3)


class TestHardyB:
    def test_specializes_to_B0(self):
        assert hardy(DECAY) == report(DECAY, DECAY).B0

    def test_unit_weights(self):
        assert hardy(ONE) == pytest.approx(0.5, abs=1e-6)


class TestC0:
    def test_nondegenerate_branch(self):
        assert report(ONE, ONE).C0 == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_branch(self):
        # The Lipschitz branch: L = 1 and B0 = exp(-1/2) give C0 = exp(-1).
        assert report(DECAY, DECAY).C0 == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_zero_numerator(self):
        got = analysis._trace_constant(0.0, 1.0, 1.0, 0.0, 0.5, 1.0)
        assert got == 0.0


class TestFh:
    def test_constant(self):
        assert compute_fh(ONE, 0.1) == pytest.approx(1.0)

    def test_decreasing(self):
        assert compute_fh(DECAY, 0.1) == pytest.approx(0.1, abs=1e-10)

    def test_degenerate_bottom_still_positive(self):
        assert compute_fh(DECAY, 0.05) > 0.0

    def test_h_guard(self):
        with pytest.raises(ValidationError):
            compute_fh(ONE, 1.5)


class TestKG:
    def test_unit_diffusivity(self):
        assert report(ONE, ONE).K_G == pytest.approx(0.5, abs=1e-9)

    def test_doubled_diffusivity(self):
        assert report(ONE, CoefficientProfile.constant(2.0)).K_G == pytest.approx(1.0, abs=1e-8)

    def test_cd_guard(self):
        with pytest.raises(ValidationError):
            report(ONE, ONE, c_D=2.5)

    def test_divergent_limit(self):
        # The divergent integral's term vanishes; L_delta = 1 leaves -mcoef / 2.
        got = report(DECAY, DECAY, ctx(mcoef=0.02))
        assert got.I_D_divergent
        assert got.K_G == pytest.approx(-0.01, abs=1e-12)


class TestDtMax:
    def test_theorem_example(self):
        got = compute_dt_max(h=0.1, z_F=1.0, T_e=1.0, fcoef=1.0, gcoef=1.0,
                             f_underbar_h=1.0, K_G=0.5)
        assert got == pytest.approx(0.1 / 6.0, rel=1e-12)

    def test_degenerate_denominator(self):
        got = compute_dt_max(h=0.1, z_F=1.0, T_e=1.0, fcoef=2.0, gcoef=1.0,
                             f_underbar_h=1.0, K_G=1.0)
        assert got == pytest.approx(0.1 / (6.0 * 2.0), rel=1e-12)

    def test_scaling_in_final_time(self):
        one = compute_dt_max(0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5)
        two = compute_dt_max(0.1, 1.0, 2.0, 1.0, 1.0, 1.0, 0.5)
        assert two == pytest.approx(one / 2.0, rel=1e-12)

    def test_monotone_in_h_and_f(self):
        lo = compute_dt_max(0.05, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0)
        hi = compute_dt_max(0.1, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0)
        assert hi >= lo
        more_f = compute_dt_max(0.05, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert more_f >= lo

    def test_positivity_guard(self):
        with pytest.raises(ValidationError):
            compute_dt_max(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)


class TestCheckPd:
    def test_uniform_mass(self):
        verdict = check_pd(assemble_M(build_uniform(11)))
        assert verdict.positive_definite and verdict.min_eigenvalue > 0.0

    def test_indefinite(self):
        verdict = check_pd(Tridiagonal([0.0], [1.0, -1.0], [0.0]))
        assert not verdict.positive_definite

    def test_degenerate_stiffness(self):
        mesh = build_uniform(20)
        verdict = check_pd(assemble_S(mesh, 1.0 - mesh.nodes))
        assert verdict.positive_definite

    @pytest.mark.parametrize("sub, diag, sup, min_eig", [
        ([], [5.0], [], 5.0),
        ([], [0.0], [], 0.0),
        ([0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0], 0.0),
        ([-1.0], [0.0, 0.0], [1.0], 0.0),   # skew: the symmetric part is zero
        ([0.5], [2.0, 3.0], [-0.5], 2.0),   # skew coupling: the diagonal is exact
    ])
    def test_exact_from_the_bracket(self, sub, diag, sup, min_eig):
        assert check_pd(Tridiagonal(sub, diag, sup)).min_eigenvalue == min_eig

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_singular_is_not_definite(self, scale):
        # e**2 would underflow or overflow without the power-of-two scaling.
        verdict = check_pd(Tridiagonal([scale], [scale, scale], [scale]))
        assert not verdict.positive_definite
        assert abs(verdict.min_eigenvalue) <= 4.0 * np.finfo(float).eps * scale

    @given(tridiagonals())
    def test_matches_dense_on_random_bands(self, band):
        assert_matches_dense({"T": check_pd(band)}, {"T": band})

    @given(power_law_systems())
    def test_matches_dense_on_power_law_systems(self, matrices):
        assert_matches_dense(check_pd_all(matrices), matrices)

    def test_matches_dense_on_readme_config(self, tmp_path):
        """The seven step matrices of the README config at n = 513: nine reduction levels."""
        config = cli.load_config(write_config(tmp_path, z_F=80.0, T_e=30.0, n=513))
        plan = plan_run(config.f_profile, config.d_profile, config.mesh,
                        rescale(config.params), config.c_D)
        system = plan.operators
        matrices = {name: getattr(system, name) for name in SEVEN}
        assert system.V.dim == 512
        assert_matches_dense(check_pd_all(matrices), matrices)


# No removal and no advection give dt_max = inf; T_e = 0.001 gives dt_max = 4.2.
LARGE_BOUND = {"inf": ctx(gcoef=0.0, fcoef=0.0), "4.2": ctx(T_e=0.001)}


class TestAutoStep:
    """``dt = "auto"`` is ``0.9 * dt_max`` capped at the unit time interval."""

    @pytest.mark.parametrize("name", LARGE_BOUND)
    def test_checked_plan(self, name):
        plan = plan_run(DECAY, DECAY, build_uniform(11), LARGE_BOUND[name])
        assert plan.operators.dt == 1.0
        assert plan.report.dt_max == plan.dt_max > 1.0 / 0.9
        assert plan.report.pd_verdicts["V"].positive_definite

    @pytest.mark.parametrize("name", LARGE_BOUND)
    def test_forced_fallback(self, name):
        capped = CoefficientProfile.affine(1.0, -1.0, upper_bound=0.5)  # fails (5)
        with pytest.raises(AssumptionError):
            plan_run(capped, DECAY, build_uniform(11), LARGE_BOUND[name])
        plan = plan_run(capped, DECAY, build_uniform(11), LARGE_BOUND[name], force=True)
        assert plan.operators.dt == 1.0
        assert plan.dt_max > 1.0 / 0.9


class TestWholePlans:
    @given(power_law_runs())
    def test_refused_or_certified_and_matching_the_oracle(self, case):
        """An auto plan refuses with a :class:`FirngasError`, or certifies ``V(dt)`` and steps.

        Two steps from zero (one when ``2 dt > 1``), each a fresh band solve of
        the assembled right-hand side, match its dense solve to 1e-10 max|rho|.
        ``levels`` is not used: an admitted plan can take millions of steps,
        and it allocates per level before the first one.
        """
        mesh, f_profile, d_profile, context, atmosphere = case
        try:
            plan = plan_run(f_profile, d_profile, mesh, context)
        except FirngasError:  # (5), (6) and (9) exit 2; cond:WI exits 3
            return
        system = plan.operators
        assert check_pd_all({"V": system.V})["V"].positive_definite
        before = np.zeros(mesh.n - 1)
        times = [k * system.dt for k in range(3) if k * system.dt <= 1.0]
        for t_k, t_k1 in zip(times, times[1:]):
            v1 = assembly.assemble_v1(t_k, t_k1, atmosphere, mesh, system.f_samples)
            v3 = assembly.assemble_v3(t_k1, atmosphere, mesh, system.f_samples,
                                      system.d_samples, context)
            rhs = assembly.assemble_rhs(before, v1, v3, system.Mf, context.T_e, system.dt)
            after = factor_tridiagonal(system.V).solve(rhs)
            scale = max(abs(atmosphere(t_k)), abs(atmosphere(t_k1)),
                        np.max(np.abs(before)), np.max(np.abs(after)))
            assert np.max(np.abs(after - oracle.dense_solve(system.V, rhs))) <= \
                1e-10 * max(scale, 1e-300)
            before = after


class TestContinuityCoercivity:
    """f = D = 1 reports B0 = 1/2 and C0 = 1, the closed forms the constants are built on."""

    def test_all_interactions_vanish(self):
        got = report(ONE, ONE, ctx(0.0, 0.0, 0.0)).continuity
        assert got["C"] == pytest.approx(1.0)
        assert got["c"] == 0.0
        assert got["C1"] == pytest.approx(1.0)
        assert got["C2"] == pytest.approx(1.0)

    def test_unit_example(self):
        got = report(ONE, ONE, ctx(1.0, 1.0, 1.0)).continuity
        assert got["C"] == pytest.approx(5.0, abs=1e-6)
        assert got["c"] == pytest.approx(2.0, abs=1e-6)
        assert got["C1"] > 0.0

    def test_coercivity_stays_positive(self):
        got = report(DECAY, DECAY, ctx(0.5, 1.0, 2.0)).continuity
        assert got["C1"] > 0.0


class TestBuildReport:
    def test_degenerate_pipeline(self):
        report = build_report(DECAY, DECAY, build_uniform(11), ctx())
        assert report.f_underbar_h > 0.0
        assert report.dt_max > 0.0
        assert report.I_D_divergent
        assert report.pd_verdicts["V"].positive_definite
        text = report.to_text()
        assert "dt_max:" in text and text.endswith("\n")
        assert report.to_text() == build_report(DECAY, DECAY, build_uniform(11), ctx()).to_text()

    def test_each_analysis_grid_sampled_once(self, monkeypatch):
        """A report plan evaluates D once on the tail grid, f and D once each on the body grid."""
        f, d = CoefficientProfile.affine(1.0, -1.0), CoefficientProfile.affine(1.0, -1.0)
        calls = []
        call = CoefficientProfile.__call__

        def recording(profile, z):
            calls.append(("f" if profile is f else "D", np.size(z)))
            return call(profile, z)

        monkeypatch.setattr(CoefficientProfile, "__call__", recording)
        build_report(f, d, build_uniform(11), ctx())
        assert calls.count(("D", analysis._tail_grid().size)) == 1
        assert calls.count(("f", 20001)) == calls.count(("D", 20001)) == 1

    def test_body_ratios_computed_once(self, monkeypatch):
        """C0 and the continuity constants share sup f/D: one f/D and one D/f on the body grid."""
        ratios = []
        sup_ratio = analysis._sup_ratio

        def recording(num, den):
            ratios.append((num.size, den.size))
            return sup_ratio(num, den)

        monkeypatch.setattr(analysis, "_sup_ratio", recording)
        plan_run(DECAY, DECAY, build_uniform(11), ctx())
        assert ratios.count((20001, 20001)) == 2

    def test_json_flat_map(self):
        report = build_report(ONE, ONE, build_uniform(6), ctx())
        flat = json.loads(json.dumps(report.to_dict()))
        assert flat["B0"] == pytest.approx(0.5, abs=1e-6)
        assert flat["pd_M"] is True
