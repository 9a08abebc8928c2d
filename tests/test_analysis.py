import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firngas
from firngas import analysis, assembly, cli, oracle
from firngas.analysis import _MAX_STEPS, build_report, check_pd_all, plan_run
from firngas.assembly import Tridiagonal, assemble_M, assemble_S, assemble_system
from firngas.errors import AssumptionError, FirngasError, ValidationError
from firngas.mesh import build_uniform
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams, RescaledContext,
                           rescale)
from reference import (DECAY, ONE, README_CONTEXT, UNIT_CONTEXT, count_calls, ctx,
                       min_symmetric_eigenvalue, reference_step, write_config)

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
def contexts(draw, mcoef_max=0.1):
    """Rescaled contexts from unit to beyond the README scale."""
    return RescaledContext(T_e=draw(st.floats(0.5, 50.0)), z_F=draw(st.floats(0.5, 100.0)),
                           mcoef=draw(st.floats(0.0, mcoef_max)), gcoef=draw(st.floats(0.0, 2.0)),
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
def power_law_runs(draw, mcoef_max=0.1, q_min=1.0):
    """Whole configs of degenerate pairs ``f = (1-z)^p``, ``D = (1-z)^q``.

    p lies in [1, 3] and q in [q_min, 3].  The atmosphere is a seeded
    piecewise-linear history that starts at 0.
    """
    mesh = build_uniform(draw(st.integers(3, 40)))
    p, q = draw(st.floats(1.0, 3.0)), draw(st.floats(q_min, 3.0))
    context = draw(contexts(mcoef_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    knots = np.linspace(0.0, 1.0, int(rng.integers(2, 12)))
    values = rng.normal(size=knots.size)
    values[0] = 0.0
    return (mesh, CoefficientProfile(lambda z: (1.0 - z) ** p),
            CoefficientProfile(lambda z: (1.0 - z) ** q), context, AtmosphereSeries(knots, values))


def assert_matches_dense(verdicts, matrices):
    """Same verdict as the dense eigensolver, eigenvalue within its rounding."""
    for name, matrix in matrices.items():
        dense = min_symmetric_eigenvalue(matrix)
        got = verdicts[name]
        assert got.positive_definite == (dense > 1e-12 * matrix.max_abs()), name
        tol = 1e-9 * abs(dense) + 10.0 * np.finfo(float).eps * matrix.max_abs()
        assert abs(got.min_eigenvalue - dense) <= tol, (name, got.min_eigenvalue, dense)


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
        got = report(DECAY, DECAY)
        assert got.ratio_sup_Df == pytest.approx(1.0)
        assert got.ratio_sup_fD == pytest.approx(1.0)
        assert got.lipschitz_L == pytest.approx(1.0, abs=1e-10)

    def test_negative_profile_fails(self):
        with pytest.raises(AssumptionError, match=r"\(5\)"):
            plan_run(CoefficientProfile.constant(-1.0), ONE, build_uniform(5), ctx())

    def test_diffusivity_zero_on_the_body_grid_only(self, monkeypatch):
        """D vanishes at one point of the body grid, on neither the tail grid nor the nodes.

        The integral of 1/D on the tail grid stays finite, so the body-grid
        check refuses (6), after ``B0``.
        """
        z_b = np.linspace(0.0, 1.0 - analysis._TRUNC, 20001)[19001]
        assert z_b not in analysis._tail_grid()
        d_profile = CoefficientProfile.sampled([0.0, z_b, 1.0], [1.0, 0.0, 1.0])
        hardy_calls = count_calls(monkeypatch, analysis, "_hardy_constant")
        with pytest.raises(AssumptionError, match=r"\(6\).*vanishes inside \[0, 1\)"):
            plan_run(ONE, d_profile, build_uniform(11), ctx())
        assert len(hardy_calls) == 1


def check_nodes(profile, mesh, assumption):
    analysis._check_node_samples(profile(mesh.nodes), profile.upper_bound, mesh, assumption)


class TestNodeSamples:
    def test_degenerate_bottom_ok(self):
        assert DECAY(build_uniform(5).nodes)[-1] == 0.0
        check_nodes(DECAY, build_uniform(5), "(5)")

    def test_negative_fails(self):
        with pytest.raises(AssumptionError, match=r"\(5\) violated: profile negative at z=0"):
            check_nodes(CoefficientProfile.constant(-1.0), build_uniform(5), "(5)")

    def test_interior_zero_fails(self):
        with pytest.raises(AssumptionError, match=r"\(6\).*not strictly positive at z=0 < 1"):
            check_nodes(CoefficientProfile.constant(0.0), build_uniform(5), "(6)")

    def test_cap(self):
        capped = CoefficientProfile.constant(2.0, upper_bound=1.0)
        with pytest.raises(AssumptionError, match="exceeds its upper bound 1"):
            check_nodes(capped, build_uniform(5), "(5)")


class TestLipschitz:
    """The estimate on the 4001 points of n = 1001."""

    def test_affine(self):
        assert analysis._estimate_lipschitz(DECAY, build_uniform(1001), 1.0) == \
            pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        assert analysis._estimate_lipschitz(ONE, build_uniform(1001), 1.0) == 0.0


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
        assert analysis._compute_fh(ONE, 0.1) == pytest.approx(1.0)

    def test_decreasing(self):
        assert analysis._compute_fh(DECAY, 0.1) == pytest.approx(0.1, abs=1e-10)

    def test_degenerate_bottom_still_positive(self):
        assert analysis._compute_fh(DECAY, 0.05) > 0.0

    def test_negative_between_nodes_refused(self):
        """f is positive at every node of n = 11 but dips below 0 on (0.52, 0.58)."""
        f_profile = CoefficientProfile.sampled([0.0, 0.52, 0.55, 0.58, 1.0],
                                               [1.0, 0.5, -0.1, 0.4, 0.0])
        mesh = build_uniform(11)
        check_nodes(f_profile, mesh, "(5)")  # every node passes
        with pytest.raises(AssumptionError, match=r"\(5\).*away from the bottom"):
            plan_run(f_profile, DECAY, mesh, ctx())


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
        got = analysis._compute_dt_max(h=0.1, context=ctx(), f_underbar_h=1.0, K_G=0.5)
        assert got == pytest.approx(0.1 / 6.0, rel=1e-12)

    def test_degenerate_denominator(self):
        got = analysis._compute_dt_max(h=0.1, context=ctx(fcoef=2.0), f_underbar_h=1.0, K_G=1.0)
        assert got == pytest.approx(0.1 / (6.0 * 2.0), rel=1e-12)

    def test_scaling_in_final_time(self):
        one = analysis._compute_dt_max(0.1, ctx(), 1.0, 0.5)
        two = analysis._compute_dt_max(0.1, ctx(T_e=2.0), 1.0, 0.5)
        assert two == pytest.approx(one / 2.0, rel=1e-12)

    def test_monotone_in_h_and_f(self):
        lo = analysis._compute_dt_max(0.05, ctx(), 0.5, 0.0)
        hi = analysis._compute_dt_max(0.1, ctx(), 0.5, 0.0)
        assert hi >= lo
        more_f = analysis._compute_dt_max(0.05, ctx(), 1.0, 0.0)
        assert more_f >= lo


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

    @pytest.mark.parametrize("t, definite", [(np.nextafter(1e-12, 1.0), True), (1e-12, False),
                                             (np.nextafter(1e-12, 0.0), False)])
    def test_threshold_is_strict(self, t, definite):
        """Definite iff the smallest eigenvalue ``t`` exceeds ``1e-12 * max|entry|``, here 1e-12."""
        verdict = check_pd_all({"T": Tridiagonal([0.0], [1.0, t], [0.0])})["T"]
        assert verdict.positive_definite is definite and verdict.min_eigenvalue == t

    def test_unequal_dimensions_refused(self):
        with pytest.raises(ValidationError, match="one dimension"):
            check_pd_all({"M": assemble_M(build_uniform(3)), "S": assemble_M(build_uniform(4))})

    def test_empty_mapping_gives_no_verdicts(self):
        assert check_pd_all({}) == {}

    @pytest.mark.parametrize("matrix", [np.eye(3), None, [[1.0]]], ids=["array", "none", "list"])
    def test_a_value_that_is_not_a_tridiagonal_refused(self, matrix):
        with pytest.raises(ValidationError, match="needs Tridiagonal matrices"):
            check_pd_all({"M": assemble_M(build_uniform(4)), "a": matrix})

    @given(tridiagonals())
    def test_matches_dense_on_random_bands(self, band):
        assert_matches_dense({"T": check_pd(band)}, {"T": band})

    @given(power_law_systems())
    def test_matches_dense_on_power_law_systems(self, matrices):
        verdicts = check_pd_all(matrices)
        assert_matches_dense(verdicts, matrices)
        # sub + sup is exactly 0 in Kf and A, and B is zero but for its last
        # diagonal entry: the three verdicts are min(diag), and pd_B is false.
        for name in ("Kf", "A", "B"):
            assert verdicts[name].min_eigenvalue == np.min(matrices[name].diag), name
        assert not verdicts["B"].positive_definite and verdicts["B"].min_eigenvalue == 0.0

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


class TestPlanArguments:
    """An argument the plan cannot take is refused whether or not ``force`` is set."""

    @pytest.mark.parametrize("dt", ["auto", 0.01])
    def test_c_D_outside_open_interval_under_force(self, dt):
        with pytest.raises(ValidationError, match="c_D"):
            plan_run(DECAY, DECAY, build_uniform(11), ctx(), c_D=5.0, dt=dt, force=True)

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("name, bad", [("f_profile", lambda z: 1.0 - z),
                                           ("d_profile", DECAY.evaluate),
                                           ("mesh", np.linspace(0.0, 1.0, 5)),
                                           ("context", {"z_F": 1.0})])
    def test_an_argument_of_another_type_is_refused_before_any_sampling(self, name, bad, force):
        sampled = []
        profile = CoefficientProfile(lambda z: sampled.append(z) or np.ones_like(z))
        args = dict(f_profile=profile, d_profile=profile, mesh=build_uniform(5), context=ctx())
        with pytest.raises(ValidationError, match=f"^{name} must be a "):
            plan_run(**{**args, name: bad}, force=force)
        assert sampled == []

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("dt", ["abc", None, True, "0.01", [0.01]])
    def test_dt_neither_a_number_nor_auto(self, dt, force):
        with pytest.raises(ValidationError, match="time step"):
            plan_run(DECAY, DECAY, build_uniform(11), ctx(), dt=dt, force=force)

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("dt", [0.0, -1.0, 2.0, math.inf, math.nan])
    def test_dt_outside_unit_interval(self, dt, force, monkeypatch):
        """Refused before the first check and before any assembly."""
        integrals = count_calls(monkeypatch, analysis, "_inverse_integral")
        assemblies = count_calls(monkeypatch, assembly, "assemble_system")
        with pytest.raises(ValidationError, match=r"time step must lie in \(0, 1\]"):
            plan_run(DECAY, DECAY, build_uniform(11), ctx(), dt=dt, force=force)
        assert integrals == [] and assemblies == []

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("dt", [0.5 / _MAX_STEPS, 1e-310, 5e-324])
    def test_step_count_above_limit(self, dt, force, monkeypatch):
        """A step past the step limit is refused before the first check and before any assembly."""
        integrals = count_calls(monkeypatch, analysis, "_inverse_integral")
        assemblies = count_calls(monkeypatch, assembly, "assemble_system")
        with pytest.raises(ValidationError, match="limit"):
            plan_run(DECAY, DECAY, build_uniform(11), ctx(), dt=dt, force=force)
        assert integrals == [] and assemblies == []

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("dt", ["auto", 0.01])
    @pytest.mark.parametrize("nan_in", ["f", "D"])
    def test_profile_nan_between_the_nodes(self, nan_in, dt, force):
        """nan only on (0.5001, 0.5003): no node sees it, the analysis grids do."""
        gap = CoefficientProfile(lambda z: np.where((z > 0.5001) & (z < 0.5003), np.nan, 1.0))
        f, d = (gap, ONE) if nan_in == "f" else (ONE, gap)
        with pytest.raises(ValidationError, match="profile values must be a finite float array"):
            plan_run(f, d, build_uniform(11), ctx(), dt=dt, force=force)

    def test_profile_nan_at_a_node_refused_at_the_node_sample(self):
        nan_below = CoefficientProfile(lambda z: np.where(z > 0.5, np.nan, 1.0))
        with pytest.raises(ValidationError, match=r"finite float array of shape \(11,\)"):
            plan_run(nan_below, ONE, build_uniform(11), ctx())

    def test_numpy_dt_taken(self):
        plan = plan_run(DECAY, DECAY, build_uniform(11), ctx(), dt=np.float64(0.004))
        assert plan.operators.dt == 0.004

    def test_float32_parameters_plan_in_double_precision(self):
        """The unit config's constants as float32: the same report as the widened floats."""
        values = dict(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3, lam=0.7, v=0.5,
                      w_air=0.1, z_F=1.0, T_e=1.0)
        single = rescale(ModelParams(**{k: np.float32(v) for k, v in values.items()}))
        widened = rescale(ModelParams(**{k: float(np.float32(v)) for k, v in values.items()}))
        assert all(type(value) is float for value in vars(single).values())
        plans = [plan_run(DECAY, DECAY, build_uniform(21), context)
                 for context in (single, widened)]
        assert type(plans[0].operators.dt) is float
        assert plans[0].report.to_text() == plans[1].report.to_text()


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
            rhs, after = reference_step(system, before, t_k, t_k1, atmosphere)
            scale = max(abs(atmosphere(t_k)), abs(atmosphere(t_k1)),
                        np.max(np.abs(before)), np.max(np.abs(after)))
            assert np.max(np.abs(after - oracle.dense_solve(system.V, rhs))) <= \
                1e-10 * max(scale, 1e-300)
            before = after

    @given(st.one_of(power_law_runs(), power_law_runs(mcoef_max=3.0)))
    def test_admitted_plans_certify_the_step_bound(self, case):
        """The paper's sufficiency claim where it holds: ``V(min(dt_max, 1))`` is certified.

        For p and q in [1, 3] (both profiles Lipschitz at the bottom), with
        ``mcoef`` up to 0.1 as in the other contexts and up to 3.
        """
        mesh, f_profile, d_profile, context, _ = case
        try:
            plan = plan_run(f_profile, d_profile, mesh, context)
        except FirngasError:
            return
        step = min(plan.dt_max, 1.0)
        assert check_pd_all({"V": replace(plan.operators, dt=step).V})["V"].positive_definite

    @settings(max_examples=120)
    @given(power_law_runs(mcoef_max=3.0, q_min=0.25),
           st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)), st.floats(-0.2, 0.2))
    def test_step_certificate_agrees_with_the_bisection(self, case, fraction, cancellation):
        """``plan_run``'s gate refuses exactly where ``check_pd_all`` is not definite.

        Both read one rule, so this checks the gate's wiring: it tests ``Mf``
        and ``V`` at the plan's step, the step the run takes.  It also checks
        the last-step claim: a plan returned without ``force`` has ``V``
        certified at the grid's last step, unless its step count is refused.
        An explicit step is ``fraction`` of ``min(dt_max, 1)``.  ``gcoef`` is
        set so that ``z_F gcoef`` lies within 20% of ``|K_G|``, where the
        bound's reaction credit nearly cancels and ``dt_max`` is not
        sufficient on some plans (ROADMAP item 10): without the gate, about
        one example in ten returns an uncertified plan.
        """
        mesh, f_profile, d_profile, context, _ = case

        def plan(dt="auto", force=True):
            return plan_run(f_profile, d_profile, mesh, context, dt=dt, force=force)

        try:
            constants = plan().constants
            if constants is None:  # a failed check refuses the plan first
                return
            context = replace(context,
                              gcoef=abs(constants["K_G"]) * (1.0 + cancellation) / context.z_F)
            dt = "auto" if fraction is None else fraction * min(plan().dt_max, 1.0)
            operators = plan(dt).operators
            refused = False
            plan(dt, force=False)
        except AssumptionError as error:
            if error.assumption != "(PD)":
                return
            refused = True
        except FirngasError:
            return
        verdicts = check_pd_all({"Mf": operators.Mf, "V": operators.V})
        assert refused != all(verdict.positive_definite for verdict in verdicts.values())
        if refused:
            return
        try:
            last = analysis._time_grid(operators.dt)[1]
        except ValidationError:  # an auto step past the K limit: refused when a run starts
            return
        assert check_pd_all({"V": replace(operators, dt=last).V})["V"].positive_definite

    def test_square_root_diffusivity_refused_unless_forced(self):
        """Every check passes, yet ``V`` at the auto step (0.9 dt_max = 0.2020) is indefinite.

        So the step certificate refuses the plan, and a forced run completes.
        ``sym(C)`` is indefinite, and ``V(0.5 dt_max)`` is certified.  The
        dense eigensolver agrees (min -1.009e-3).  At n = 21 to 161 the verdict holds.
        The bound's denominator ``|z_F gcoef - |K_G||`` is 0.0495 against
        ``z_F gcoef = 0.8``; with ``|K_G|`` alone the step is certified.
        """
        context = RescaledContext(T_e=30.0, z_F=80.0, mcoef=1.0, gcoef=0.01, fcoef=0.1)
        mesh, d_profile = build_uniform(11), CoefficientProfile(lambda z: np.sqrt(1.0 - z))
        with pytest.raises(AssumptionError, match=r"not certified positive definite for dt in "
                                                  r"\(0, 0\.2019"):
            plan_run(DECAY, d_profile, mesh, context)
        plan = plan_run(DECAY, d_profile, mesh, context, force=True)
        assert plan.dt_max == pytest.approx(0.2244, rel=1e-3)
        reaction, k_g = context.z_F * context.gcoef, abs(plan.constants["K_G"])
        assert abs(reaction - k_g) == pytest.approx(0.0495, rel=1e-3)
        assert abs(reaction - k_g) < 0.1 * max(reaction, k_g)
        assert plan.operators.dt == pytest.approx(0.9 * plan.dt_max)
        assert not plan.report.pd_verdicts["V"].positive_definite
        trajectory = firngas.run(mesh, DECAY, d_profile, context, AtmosphereSeries.ramp(),
                                 force=True)
        assert trajectory.n_levels == 6 and np.all(np.isfinite(trajectory.interior))

    @pytest.mark.parametrize("n, gcoef, denominator, n_levels",
                             [(41, 0.02166, 0.050, 38), (81, 0.03758, 0.020, 50)])
    def test_auto_step_refused_on_finer_meshes(self, n, gcoef, denominator, n_levels):
        """The auto step fails the certificate beyond n = 11: D = (1 - z)^(1/4), f = 1 - z.

        ``|z_F gcoef - |K_G||`` is ``denominator`` of the larger of the two.
        Every other check passes; a forced run completes with finite levels.
        """
        context = RescaledContext(T_e=30.0, z_F=80.0, mcoef=1.0, gcoef=gcoef, fcoef=0.1)
        mesh, d_profile = build_uniform(n), CoefficientProfile(lambda z: (1.0 - z) ** 0.25)
        with pytest.raises(AssumptionError, match=r"\(PD\)"):
            plan_run(DECAY, d_profile, mesh, context)
        plan = plan_run(DECAY, d_profile, mesh, context, force=True)
        reaction, k_g = context.z_F * context.gcoef, abs(plan.constants["K_G"])
        assert abs(reaction - k_g) / max(reaction, k_g) == pytest.approx(denominator, abs=5e-4)
        assert not plan.report.pd_verdicts["V"].positive_definite
        trajectory = firngas.run(mesh, DECAY, d_profile, context, AtmosphereSeries.ramp(),
                                 force=True)
        assert trajectory.n_levels == n_levels and np.all(np.isfinite(trajectory.interior))


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("context", [README_CONTEXT, UNIT_CONTEXT], ids=["readme", "unit"])
def test_spatial_operator_definite_on_documented_configs(context, q):
    """``sym(C)`` is definite, so every ``dt`` gives a certified step (ROADMAP item 10).

    ``sym(V(dt)) = sym(Mf) + T_e dt sym(C)``; f = D = (1-z)^q.
    """
    for n in (51, 101, 1001):
        mesh = build_uniform(n)
        samples = (1.0 - mesh.nodes) ** q
        system = assemble_system(mesh, samples, samples, context, 1.0)
        assert check_pd_all({"C": system.C})["C"].positive_definite, n


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

    @staticmethod
    def profile_calls(monkeypatch, f):
        """``(name, size)`` of every profile evaluation from now on: f is ``f``, any other D."""
        calls = []
        call = CoefficientProfile.__call__

        def recording(profile, z):
            calls.append(("f" if profile is f else "D", np.size(z)))
            return call(profile, z)

        monkeypatch.setattr(CoefficientProfile, "__call__", recording)
        return calls

    def test_each_analysis_grid_sampled_once(self, monkeypatch):
        """A report plan evaluates D once on the tail grid, f and D once each on the body grid.

        It evaluates f and D once each at the nodes, and D(1) only there.
        """
        calls = self.profile_calls(monkeypatch, DECAY)
        build_report(DECAY, CoefficientProfile.affine(1.0, -1.0), build_uniform(11), ctx())
        assert calls.count(("D", analysis._tail_grid().size)) == 1
        assert calls.count(("f", 20001)) == calls.count(("D", 20001)) == 1
        assert calls.count(("f", 11)) == calls.count(("D", 11)) == 1
        assert [size for _, size in calls if size == 1] == []

    def test_forced_plan_samples_the_nodes_once(self, monkeypatch):
        """f fails its node check; the forced run goes on with the same node samples."""
        f = CoefficientProfile.affine(1.0, -1.0, upper_bound=0.5)
        calls = self.profile_calls(monkeypatch, f)
        assert plan_run(f, DECAY, build_uniform(11), ctx(), dt=0.01, force=True).report is None
        assert calls.count(("f", 11)) == calls.count(("D", 11)) == 1
        assert [size for _, size in calls if size == 1] == []

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
