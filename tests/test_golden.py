"""Golden outputs of the CLI on configs written by ``reference.write_config``.

Most cases use its unit config (n=11).  ``readme_check_n101.txt`` is the
README's physical config (z_F=80, T_e=30, n=101); ``nondegenerate_check.txt``
has a constant diffusivity, so ``D(1) = 1`` and the report takes the
nondegenerate trace-constant branch.  The ``graded_*`` cases read the unit
config's 11 nodes from a mesh file at z = s**2, where sums of unequal element
lengths round differently from sums of their separate terms.  The files under ``tests/data`` fix
the output contract and are compared byte for byte, the smallest symmetric
eigenvalues (the ``min_sym_eig`` values) included: they come from the
deterministic bisection of ``analysis.check_pd_all``.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from firngas import analysis, assembly, cli, oracle
from reference import edit_config, write_config

DATA = Path(__file__).parent / "data"


def graded_config(tmp_path):
    """The unit config on an 11-node mesh file with nodes z = s**2."""
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("".join(f"{z:.17g}\n" for z in np.linspace(0.0, 1.0, 11) ** 2))
    return edit_config(write_config(tmp_path), "n = 11", f"file = {nodes}")


# name -> (config writer of tmp_path, CLI flags)
CASES = {
    "unit_run_stride10.csv": (write_config, ["--stride", "10"]),
    "unit_check.txt": (write_config, ["--check-only"]),
    "unit_oracle.csv": (write_config, ["--oracle-compare"]),
    "unit_force_dt0.5.csv": (write_config, ["--dt", "0.5", "--force"]),
    "readme_check_n101.txt": (lambda tmp_path: write_config(tmp_path, z_F=80.0, T_e=30.0, n=101),
                              ["--check-only"]),
    "nondegenerate_check.txt": (lambda tmp_path: write_config(tmp_path, d_kind="constant"),
                                ["--check-only"]),
    "graded_check.txt": (graded_config, ["--check-only"]),
    "graded_run_stride100.csv": (graded_config, ["--stride", "100"]),
    "graded_oracle.csv": (graded_config, ["--oracle-compare"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    out = tmp_path / name
    make_config, flags = CASES[name]
    assert cli.main(["--config", make_config(tmp_path), "--out", str(out), *flags]) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", ["graded_run_stride100.csv", "unit_force_dt0.5.csv",
                                  "unit_run_stride10.csv"])
def test_stepping_golden_is_the_dense_recurrence(tmp_path, name):
    """Every row of a stepping golden is ``V x_{k+1} = Mf x_k - g_k e_0`` solved densely.

    The recurrence runs from zero on LAPACK solves (``oracle.dense_solve``) at
    the levels of ``analysis._time_grid``, with the row-0 forcing
    ``g_k = v1_k + T_e dt_k v3_k`` of ``surface_v1`` and ``surface_v3``.  The
    golden keeps level 0, every stride-th level and the last, each within
    1e-12 max|rho| of the recurrence: a change of the step's rounding may move
    the golden, a change of what it solves may not.
    """
    make_config, flags = CASES[name]
    args = cli.build_parser().parse_args(["--config", make_config(tmp_path), *flags])
    config = cli.load_config(args.config, args)
    system = analysis.plan_run(config.f_profile, config.d_profile, config.mesh, config.context,
                               config.c_D, config.dt, config.force).operators
    n_steps, last_dt = analysis._time_grid(system.dt)
    times = np.append(np.arange(n_steps) * system.dt, 1.0)
    rho = config.atmosphere(times)
    step_lengths = np.append(np.full(n_steps - 1, system.dt), last_dt)
    forcing = (assembly.surface_v1(rho[:-1], rho[1:], config.mesh, system.f_samples)
               + system.context.T_e * step_lengths
               * assembly.surface_v3(rho[1:], config.mesh, system.f_samples, system.d_samples,
                                     system.context))
    levels = [np.zeros(config.mesh.n - 1)]
    for g, step_length in zip(forcing, step_lengths):
        rhs = system.Mf.matvec(levels[-1])
        rhs[0] -= g
        levels.append(oracle.dense_solve(replace(system, dt=step_length).V, rhs))
    kept = sorted({*range(0, n_steps + 1, config.stride), n_steps})
    want = np.column_stack([times, rho, levels])[kept]
    lines = [line for line in (DATA / name).read_text().splitlines() if line[0] != "#"]
    golden = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert golden[:, 0].tobytes() == want[:, 0].tobytes()
    scale = np.max(np.abs(golden[:, 1:]))
    assert np.max(np.abs(golden[:, 1:] - want[:, 1:])) <= 1e-12 * scale
