"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``[PASS]``/``[FAIL] acceptance N: ...`` before asserting,
so the summary survives in the captured output either way.  Criterion 3
expects first order for ``Kf``/``A``: with affine f the endpoint-average
diagonal deviates from the exact integral by (f_{i-1} - f_{i+1})/12 = -h f'/6.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from firngas import assembly
from firngas.analysis import build_report, check_pd_all, plan_run
from firngas.assembly import (assemble_A, assemble_Kf, assemble_M, assemble_Mf,
                              assemble_S, assemble_v1, assemble_v3)
from firngas.mesh import build_uniform
from firngas.model import AtmosphereSeries, CoefficientProfile
from firngas.oracle import assemble_reference
from firngas.solver import _Factor, levels, run
from reference import (DECAY, ONE, README_CONTEXT, UNIT_CONTEXT, ctx, exact_inner,
                       min_symmetric_eigenvalue, semi_discrete, substitute)

_ROUNDING_FLOOR = 1e-14


def verdict(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {description}")
    assert ok, f"acceptance {num}: {description}"


def random_decreasing_profiles(count, rng):
    """Strictly decreasing positive profiles a + b(1-z)^q on a dense grid."""
    grid = np.linspace(0.0, 1.0, 513)
    out = []
    for _ in range(count):
        a = rng.uniform(0.05, 0.5)
        b = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.5, 3.0)
        out.append(CoefficientProfile.sampled(grid, a + b * (1.0 - grid)**q))
    return out


def test_acceptance_1_constant_weight_collapse():
    ok = True
    for n in (3, 11, 101):
        mesh = build_uniform(n)
        ones = np.ones(n)
        ok &= (assemble_Mf(mesh, ones) - assemble_M(mesh)).max_abs() <= 1e-13
        fcoef = 1.7
        kf = assemble_Kf(mesh, ones, fcoef).to_dense()
        exact = np.array([[fcoef * exact_inner(k + 2, l + 2, "dphi_phi", mesh)
                           for l in range(n - 1)] for k in range(n - 1)])
        ok &= np.max(np.abs(kf - exact)) <= 1e-13
    verdict(1, "constant-weight assembly collapses to the exact patterns", ok)


def test_acceptance_2_closed_form_fidelity():
    mesh = build_uniform(3)
    f = np.array([1.0, 0.5, 0.0])
    atm = AtmosphereSeries.ramp()
    checks = [
        (assemble_M(mesh).to_dense(),
         np.array([[1 / 3, 1 / 12], [1 / 12, 1 / 6]])),
        (assemble_Mf(mesh, f).to_dense(),
         np.array([[1 / 6, 1 / 48], [1 / 48, 1 / 24]])),
        (assemble_Kf(mesh, f, 1.0).to_dense(),
         np.array([[0.25, -0.125], [0.125, 0.125]])),
        (assemble_A(mesh, f).to_dense(),
         np.array([[0.25, -0.125], [0.125, 0.125]])),
        (assemble_S(mesh, f).to_dense(),
         np.array([[2.0, -0.5], [-0.5, 0.5]])),
        (assemble_v1(0.0, 1.0, atm, mesh, f), np.array([0.0625, 0.0])),
        (assemble_v3(1.0, atm, mesh, f, f, ctx()),
         np.array([0.5 / 6 - 1.5 - 0.375, 0.0])),
    ]
    ok = all(np.max(np.abs(got - want)) <= 1e-12 for got, want in checks)
    verdict(2, "hand-substituted closed forms on the n=3, f=D=1-z instance", ok)


def test_acceptance_3_quadrature_consistency_orders():
    weights = [("1-z", lambda z: 1.0 - z),
               ("1-z^2", lambda z: 1.0 - z**2),
               ("exp(-z)", lambda z: np.exp(-z))]
    expected = {"Mf": 2.0, "Kf": 1.0, "A": 1.0, "S": 1.0}
    ok = True
    for kind, want in expected.items():
        for label, weight in weights:
            devs = []
            rel_devs = []
            for n in (11, 21, 41, 81):
                mesh = build_uniform(n)
                samples = weight(mesh.nodes)
                if kind == "Mf":
                    band = assemble_Mf(mesh, samples)
                elif kind == "Kf":
                    band = assemble_Kf(mesh, samples, 1.0)
                elif kind == "A":
                    band = assemble_A(mesh, samples)
                else:
                    band = assemble_S(mesh, samples)
                dev = (band - assemble_reference(weight, kind, mesh)).max_abs()
                devs.append(dev)
                rel_devs.append(dev / band.max_abs())
            if max(rel_devs) <= _ROUNDING_FLOOR:
                continue  # exact for this weight; no order measurable
            orders = [math.log2(devs[k] / devs[k + 1]) for k in range(len(devs) - 1)]
            observed = float(np.mean(orders))
            good = abs(observed - want) <= 0.4
            if not good:
                print(f"  criterion 3 detail: {kind} with {label}: "
                      f"observed order {observed:.2f}, required {want} +- 0.4")
            ok &= good
    verdict(3, "MVT-vs-quadrature deviations decay at the stated orders", ok)


def test_acceptance_4_pd_lemma_suite():
    rng = np.random.default_rng(2024)
    profiles = random_decreasing_profiles(50, rng)
    ok = True
    for n in (10, 50, 200):
        mesh = build_uniform(n)
        for profile in profiles:
            w = profile(mesh.nodes)
            ok &= min_symmetric_eigenvalue(assemble_M(mesh)) > 0.0
            ok &= min_symmetric_eigenvalue(assemble_Mf(mesh, w)) > 0.0
            ok &= min_symmetric_eigenvalue(assemble_S(mesh, w)) > 0.0
            ok &= min_symmetric_eigenvalue(assemble_Kf(mesh, w, 1.0)) > 0.0
            ok &= min_symmetric_eigenvalue(assemble_A(mesh, w)) > 0.0
            ok &= min_symmetric_eigenvalue(
                assembly.assemble_B(mesh, w, 1.0)) >= -1e-14
    verdict(4, "positive definiteness over 50 random decreasing profiles", ok)


def test_acceptance_5_dt_theorem():
    rng = np.random.default_rng(7)
    profiles = random_decreasing_profiles(50, rng)
    ok = True
    for n in (10, 50, 200):
        mesh = build_uniform(n)
        for f_profile, d_profile in zip(profiles, reversed(profiles)):
            context = ctx(mcoef=rng.uniform(0.0, 0.01),
                          gcoef=rng.uniform(0.5, 1.5),
                          fcoef=rng.uniform(0.1, 1.0))
            plan = plan_run(f_profile, d_profile, mesh, context)
            ok &= min_symmetric_eigenvalue(replace(plan.operators, dt=0.9 * plan.dt_max).V) > 0.0
    # witness far outside the bound: the theorem is sufficient, not necessary
    plan = plan_run(profiles[0], profiles[1], build_uniform(50),
                    ctx(mcoef=0.005, gcoef=1.5, fcoef=1.0))
    eig = min_symmetric_eigenvalue(replace(plan.operators, dt=50.0 * plan.dt_max).V)
    print(f"  criterion 5 witness at 50*dt_max: min symmetric eigenvalue "
          f"{eig:.3e} ({'PD' if eig > 0 else 'not PD'})")
    verdict(5, "step matrix positive definite at 0.9*dt_max in all cases", ok)


def test_acceptance_6_analytic_constants():
    unit = build_report(ONE, ONE, build_uniform(11), ctx())
    ok = abs(unit.B0 - 0.5) <= 1e-6
    ok &= abs(build_report(DECAY, DECAY, build_uniform(11), ctx()).B0 - math.exp(-0.5)) <= 1e-4
    ok &= abs(unit.K_G - 0.5) <= 1e-9
    verdict(6, "B0 and K_G match their closed-form values", ok)


def test_acceptance_7_solver_invariants():
    mesh = build_uniform(21)
    zero = run(mesh, ONE, ONE, ctx(), AtmosphereSeries.zero(), dt="auto")
    ok = bool(np.all(zero.interior == 0.0))

    atm = AtmosphereSeries.ramp()
    base = run(mesh, ONE, ONE, ctx(), atm, dt="auto")
    ok &= all(base.reconstruct_full(k)[0] == atm(base.times[k])
              for k in range(base.n_levels))

    scaled = run(mesh, ONE, ONE, ctx(), AtmosphereSeries.ramp(3.7), dt="auto")
    denom = np.maximum(np.abs(3.7 * base.interior), 1e-300)
    mask = np.abs(base.interior) > 1e-13
    rel = np.max(np.abs(scaled.interior - 3.7 * base.interior)[mask] / denom[mask])
    ok &= rel <= 1e-12
    verdict(7, "zero forcing, exact boundary and linearity in the forcing", ok)


def test_acceptance_8_self_convergence():
    t = np.linspace(0.0, 1.0, 1001)
    atm = AtmosphereSeries(t, np.sin(np.pi * t / 2.0))
    context = ctx(gcoef=1.0, fcoef=0.1)

    mesh = build_uniform(41)
    ref = run(mesh, ONE, ONE, context, atm, dt=0.02 / 8.0).interior[-1]
    errs = [np.max(np.abs(run(mesh, ONE, ONE, context, atm, dt=dt).interior[-1] - ref))
            for dt in (0.04, 0.02)]
    temporal = math.log2(errs[0] / errs[1])

    spatial_errs = []
    ref_traj = run(build_uniform(81), ONE, ONE, context, atm, dt=0.001)
    ref_full = np.concatenate([[ref_traj.boundary[-1]], ref_traj.interior[-1]])
    for n, factor in ((11, 8), (21, 4)):
        traj = run(build_uniform(n), ONE, ONE, context, atm, dt=0.001)
        full = np.concatenate([[traj.boundary[-1]], traj.interior[-1]])
        spatial_errs.append(np.max(np.abs(full - ref_full[::factor])))
    spatial = math.log2(spatial_errs[0] / spatial_errs[1])

    print(f"  criterion 8 detail: temporal order {temporal:.2f}, "
          f"spatial order {spatial:.2f}")
    ok = abs(temporal - 1.0) <= 0.3 and abs(spatial - 2.0) <= 0.4
    verdict(8, "observed temporal order 1 and spatial order 2", ok)


def test_acceptance_9_degenerate_run():
    traj = run(build_uniform(101), DECAY, DECAY, ctx(), AtmosphereSeries.ramp(),
               dt="auto")
    ok = bool(np.all(np.isfinite(traj.interior)))
    ok &= traj.times[-1] == 1.0
    ok &= bool(np.all(np.isfinite(traj.boundary)))
    verdict(9, "degenerate f=D=1-z run completes with finite output", ok)


# A fast-varying atmosphere for the README's physical config.
SINE_TIMES = np.linspace(0.0, 1.0, 4001)
SINE = AtmosphereSeries(SINE_TIMES, np.sin(6.0 * np.pi * SINE_TIMES))


def test_degenerate_pair_spatial_order():
    """Spatial order 2 on the paper's degenerate pair f = D = 1 - z at the README scale.

    z_F = 80, T_e = 30, a ``sin 6 pi t`` atmosphere and dt = 2e-4 (forced past
    ``dt_max``); nodal error at t = 1 against n = 801, relative to max|rho|.
    """
    context, atm = README_CONTEXT, SINE

    def final_level(n):
        plan = plan_run(DECAY, DECAY, build_uniform(n), context, dt=2e-4, force=True)
        *_, (t, surface, interior) = levels(plan.operators, atm, stride=10**9)
        assert t == 1.0
        return np.concatenate([[surface], interior])

    ref = final_level(801)
    errs = [np.max(np.abs(final_level(n) - ref[::800 // (n - 1)])) / np.max(np.abs(ref))
            for n in (51, 101, 201)]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  degenerate pair: relative errors {errs}, spatial orders {orders}")
    assert all(abs(order - 2.0) <= 0.4 for order in orders), orders


@pytest.mark.parametrize("context", [UNIT_CONTEXT, README_CONTEXT], ids=["z_F=1", "z_F=80"])
def test_steady_state_closed_form_order(context):
    """Order 2 against the closed-form steady state of the strong form, f = D = 1.

    With f = D = 1 the README's equation at steady state is
    ``rho'' - (mcoef + fcoef) rho' - gcoef rho = 0`` in physical depth, with
    ``rho = 1`` at the surface and ``rho' - mcoef rho = 0`` at the bottom.  In
    ``zh = z / z_F`` its solution is ``A e^{r2 zh} + B e^{r1 (zh - 1)}``, where
    ``r1, r2 = z_F ((mcoef + fcoef) +- sqrt((mcoef + fcoef)**2 + 4 gcoef)) / 2``.
    The discrete steady state solves ``C x = -v3`` with the row-0 forcing of a
    unit surface value.  At z_F = 80 the solution has a boundary layer
    ``e^{-59.5 zh}``, so the order settles only from n = 101 on.
    """
    m, z_F = context.mcoef, context.z_F
    a = m + context.fcoef
    root = math.sqrt(a * a + 4.0 * context.gcoef)
    r1, r2 = z_F * (a + root) / 2.0, z_F * (a - root) / 2.0
    A, B = np.linalg.solve([[1.0, math.exp(-r1)],
                            [math.exp(r2) * (r2 / z_F - m), r1 / z_F - m]], [1.0, 0.0])

    def max_error(n):
        mesh = build_uniform(n)
        ones = np.ones(n)
        rhs = np.zeros(n - 1)
        rhs[0] = -assembly.surface_v3(1.0, mesh, ones, ones, context)
        C = assembly.assemble_system(mesh, ones, ones, context, 0.0).C
        x = substitute(_Factor(C), rhs)
        z = mesh.nodes[1:]
        return np.max(np.abs(x - (A * np.exp(r2 * z) + B * np.exp(r1 * (z - 1.0)))))

    errs = [max_error(n) for n in (101, 201, 401)]  # the closed form's max is rho(0) = 1
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  steady state at z_F = {z_F:g}: max errors {errs}, orders {orders}")
    assert all(abs(order - 2.0) <= 0.2 for order in orders), orders


def strong_form_steady_state(f, d, context, N):
    """Steady state of the README's equation by conservative finite differences, N points.

    In ``zh = z / z_F`` the equation reads ``J' = z_F gcoef rho`` with the flux
    ``J = D rho' / z_F - (mcoef D + fcoef f) rho``; ``rho(0) = 1``, and the
    bottom condition ``D (rho' / z_F - mcoef rho) = 0`` leaves ``J(1) = -fcoef
    f(1) rho(1)``.  Each node balances the fluxes through its cell's midpoints,
    the bottom node over a half cell: second order in the spacing.
    """
    from scipy.linalg import solve_banded
    H = 1.0 / (N - 1)
    mid = (np.arange(N - 1) + 0.5) * H
    alpha = d(mid) / (context.z_F * H)
    beta = (context.mcoef * d(mid) + context.fcoef * f(mid)) / 2.0
    removal = np.full(N - 1, H * context.z_F * context.gcoef)
    removal[-1] /= 2.0
    # row i - 1 balances node i = 1 .. N - 1; the cell faces are mid[i - 1] and mid[i]
    diag = -removal - alpha + beta
    diag[:-1] -= alpha[1:] + beta[1:]
    diag[-1] -= context.fcoef * f(1.0)
    bands = np.zeros((3, N - 1))
    bands[0, 1:] = alpha[1:] - beta[1:]      # rho_{i+1}
    bands[1] = diag
    bands[2, :-1] = alpha[1:] + beta[1:]     # rho_{i-1}
    rhs = np.zeros(N - 1)
    rhs[0] = -(alpha[0] + beta[0])           # rho_0 = 1
    return np.concatenate([[1.0], solve_banded((1, 1), bands, rhs)])


@pytest.mark.parametrize("context", [UNIT_CONTEXT, README_CONTEXT], ids=["z_F=1", "z_F=80"])
def test_variable_coefficient_steady_state_order(context):
    """Order 2 vs. the strong form's steady state at f = 1 - zh/2, D = 1 - 0.9 zh + 0.3 sin 3zh.

    The reference solves the README's equation and bottom condition by finite
    differences on 4,001 and 8,001 points, combined by Richardson
    extrapolation; it shares nothing with the finite-element patterns.  It
    agrees with the extrapolation from 8,001 and 16,001 points within 2e-9; finer
    grids gain nothing, as rounding grows like eps / H**2 and reaches 1e-8 at
    z_F = 1.  The discrete steady state solves ``C x = -v3``, as in the
    closed-form test.
    """
    def f(z):
        return 1.0 - z / 2.0

    def d(z):
        return 1.0 - 0.9 * z + 0.3 * np.sin(3.0 * z)

    coarse, fine = (strong_form_steady_state(f, d, context, N) for N in (4001, 8001))
    reference = (4.0 * fine[::2] - coarse) / 3.0

    def max_error(n):
        mesh = build_uniform(n)
        f_nodes, d_nodes = f(mesh.nodes), d(mesh.nodes)
        rhs = np.zeros(n - 1)
        rhs[0] = -assembly.surface_v3(1.0, mesh, f_nodes, d_nodes, context)
        C = assembly.assemble_system(mesh, f_nodes, d_nodes, context, 0.0).C
        stride = 4000 // (n - 1)
        return np.max(np.abs(substitute(_Factor(C), rhs) - reference[stride::stride]))

    errs = [max_error(n) for n in (101, 201, 401)]  # the reference's max is rho(0) = 1
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  variable steady state at z_F = {context.z_F:g}: max errors {errs}, orders {orders}")
    assert all(abs(order - 2.0) <= 0.2 for order in orders), orders


def test_degenerate_pair_time_order():
    """Time order 1 on the paper's degenerate pair f = D = 1 - z at the README scale, n = 51.

    dt = 1/K for K = 100 ... 800 against K = 6400, forced past ``dt_max``
    (about 2.8e-5, so the auto step would take K = 40,000).  Each ``V(1/K)``
    is certified positive definite, so every step is uniquely solvable.  The
    sine atmosphere, not the ramp: implicit Euler reproduces solutions
    linear in t, so the ramp's differences at t = 1 are at rounding level.
    """
    mesh = build_uniform(51)
    admitted = plan_run(DECAY, DECAY, mesh, README_CONTEXT)
    assert admitted.dt_max < 1.0 / 6400

    def final_level(K):
        system = replace(admitted.operators, dt=1.0 / K)
        assert check_pd_all({"V": system.V})["V"].positive_definite
        *_, (t, surface, interior) = levels(system, SINE, stride=10**9)
        assert t == 1.0
        return np.concatenate([[surface], interior])

    ref = final_level(6400)
    diffs = [np.max(np.abs(final_level(K) - ref)) for K in (100, 200, 400, 800)]
    orders = [math.log2(diffs[k] / diffs[k + 1]) for k in range(len(diffs) - 1)]
    print(f"  degenerate pair: differences {diffs}, time orders {orders}")
    assert all(abs(order - 1.0) <= 0.3 for order in orders), orders


def test_semi_discrete_time_order():
    """Time order 1 against the exact semi-discrete solution: README config, f = D = 1 - z, ramp.

    n = 51 and dt = 1/K for K = 800 ... 6400, forced past ``dt_max`` as above.
    The error is the largest over every level and node.  It peaks in the
    start-up from the zero state, within the first 0.02 of the run, and it
    reaches order 1 only once that start-up spans several steps: from
    K = 100 to 200 the order is 0.82, from 400 to 800 it is 0.95.
    """
    plan = plan_run(DECAY, DECAY, build_uniform(51), README_CONTEXT)
    atmosphere = AtmosphereSeries.ramp()
    errs = []
    for K in (800, 1600, 3200, 6400):
        system = replace(plan.operators, dt=1.0 / K)
        times, _, interior = zip(*levels(system, atmosphere))
        errs.append(np.max(np.abs(np.array(interior) - semi_discrete(system, atmosphere, times))))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  semi-discrete reference: max errors {errs}, time orders {orders}")
    assert all(abs(order - 1.0) <= 0.1 for order in orders), orders


# sin(omega t) sampled on a grid holding every level of K = 100 ... 800.
OMEGA = 6.0 * math.pi
PERIODIC_TIMES = np.arange(6401) / 6400
PERIODIC = AtmosphereSeries(PERIODIC_TIMES, np.sin(OMEGA * PERIODIC_TIMES))


def periodic_errors(z_F, Ks, richardson=False):
    """Max error of the levels at ``t >= 0.5`` against the periodic closed form, f = D = 1.

    With f = D = 1, T_e = 30 and the surface value ``sin(omega t)`` the README's
    equation has the periodic state ``Im[A(z) e^{i omega t}]``, z the physical
    depth, with ``A'' - b A' - (gcoef + i Omega) A = 0``, ``b = mcoef + fcoef``
    and ``Omega = omega / T_e``: ``A = c1 e^{r2 z} + c2 e^{r1 (z - z_F)}`` with
    ``r1, r2 = (b +- sqrt(b**2 + 4 (gcoef + i Omega))) / 2``, ``A(0) = 1`` and
    ``A'(z_F) = mcoef A(z_F)``.  The start-up from the zero state has decayed
    by ``t = 0.5``.  n = 801, relative to the closed form's max; with
    ``richardson`` the levels of ``2 x_{dt/2} - x_dt`` instead.
    """
    context = ctx(mcoef=0.5, gcoef=1.0, fcoef=0.6, z_F=z_F, T_e=30.0)
    m, b = context.mcoef, context.mcoef + context.fcoef
    root = np.sqrt(complex(b * b + 4.0 * context.gcoef, 4.0 * OMEGA / context.T_e))
    r1, r2 = (b + root) / 2.0, (b - root) / 2.0
    c1, c2 = np.linalg.solve([[1.0, np.exp(-r1 * z_F)], [np.exp(r2 * z_F) * (r2 - m), r1 - m]],
                             np.array([1.0, 0.0], dtype=complex))
    mesh = build_uniform(801)
    z = mesh.nodes[1:] * z_F
    amplitude = c1 * np.exp(r2 * z) + c2 * np.exp(r1 * (z - z_F))
    plan = plan_run(ONE, ONE, mesh, context)

    def late_levels(K, stride=1):
        rows = levels(replace(plan.operators, dt=1.0 / K), PERIODIC, stride)
        kept = [(t, x) for t, _, x in rows if t >= 0.5]
        return np.array([t for t, _ in kept]), np.array([x for _, x in kept])

    errs = []
    for K in Ks:
        t, x = late_levels(K)
        if richardson:
            x = 2.0 * late_levels(2 * K, stride=2)[1] - x
        exact = np.imag(amplitude * np.exp(1j * OMEGA * t)[:, None])
        errs.append(np.max(np.abs(x - exact)) / np.max(np.abs(exact)))
    return errs


@pytest.mark.parametrize("z_F", [1.0, 80.0], ids=["z_F=1", "z_F=80"])
def test_periodic_closed_form_time_order(z_F):
    """Implicit Euler is first order in time against the periodic state, at K = 100, 200, 400."""
    errs = periodic_errors(z_F, (100, 200, 400))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  periodic state at z_F = {z_F:g}: relative errors {errs}, time orders {orders}")
    assert all(abs(order - 1.0) <= 0.2 for order in orders), orders


def test_periodic_closed_form_richardson_order():
    """Richardson's ``2 x_{dt/2} - x_dt`` is second order once the start-up has decayed.

    At z_F = 1; at z_F = 80 the spatial error at n = 801 (about 4e-5) hides it.
    """
    errs = periodic_errors(1.0, (100, 200, 400), richardson=True)
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  periodic state, Richardson: relative errors {errs}, time orders {orders}")
    assert all(abs(order - 2.0) <= 0.2 for order in orders), orders
