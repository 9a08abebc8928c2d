"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``[PASS]``/``[FAIL] acceptance N: ...`` before asserting,
so the summary survives in the captured output either way.  Criterion 3
expects first order for ``Kf``/``A``: with affine f the endpoint-average
diagonal deviates from the exact integral by (f_{i-1} - f_{i+1})/12 = -h f'/6.
"""

import math

import numpy as np
import pytest

from firngas import assembly
from firngas.analysis import build_report, plan_run
from firngas.assembly import (assemble_A, assemble_Kf, assemble_M, assemble_Mf,
                              assemble_S, assemble_v1, assemble_v3)
from firngas.mesh import build_uniform
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams,
                           RescaledContext, rescale)
from firngas.oracle import exact_inner
from firngas.oracle import assemble_reference, min_symmetric_eigenvalue
from firngas.solver import levels, run

ONE = CoefficientProfile.constant(1.0)
DECAY = CoefficientProfile.affine(1.0, -1.0)
_ROUNDING_FLOOR = 1e-14


def ctx(mcoef=0.0, gcoef=1.0, fcoef=1.0, T_e=1.0):
    return RescaledContext(T_e=T_e, z_F=1.0, mcoef=mcoef, gcoef=gcoef, fcoef=fcoef)


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
            ok &= min_symmetric_eigenvalue(plan.system(0.9 * plan.dt_max).V) > 0.0
    # witness far outside the bound: the theorem is sufficient, not necessary
    plan = plan_run(profiles[0], profiles[1], build_uniform(50),
                    ctx(mcoef=0.005, gcoef=1.5, fcoef=1.0))
    eig = min_symmetric_eigenvalue(plan.system(50.0 * plan.dt_max).V)
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
    atm = AtmosphereSeries.from_callable(lambda t: math.sin(math.pi * t / 2.0))
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


def test_degenerate_pair_spatial_order():
    """Spatial order 2 on the paper's degenerate pair f = D = 1 - z at the README scale.

    z_F = 80, T_e = 30, a ``sin 6 pi t`` atmosphere and dt = 2e-4 (forced past
    ``dt_max``); nodal error at t = 1 against n = 801, relative to max|rho|.
    """
    context = rescale(ModelParams(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3, lam=0.7,
                                  v=0.5, w_air=0.1, z_F=80.0, T_e=30.0))
    atm = AtmosphereSeries.from_callable(lambda t: math.sin(6.0 * math.pi * t), 4001)

    def final_level(n):
        plan = plan_run(DECAY, DECAY, build_uniform(n), context, dt=2e-4, force=True)
        *_, (t, surface, interior) = levels(plan, atm, stride=10**9)
        assert t == 1.0
        return np.concatenate([[surface], interior])

    ref = final_level(801)
    errs = [np.max(np.abs(final_level(n) - ref[::800 // (n - 1)])) / np.max(np.abs(ref))
            for n in (51, 101, 201)]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    print(f"  degenerate pair: relative errors {errs}, spatial orders {orders}")
    assert all(abs(order - 2.0) <= 0.4 for order in orders), orders
