"""Correctness checks on the outputs of one operation, run by the harness.

Each check raises :class:`CheckError` on a mismatch and otherwise returns
the number of implicit steps the output holds and how many individual
comparisons it made.  Trajectory CSVs are streamed: only the time and
boundary columns of every row, and the full rows of the sampled steps, are
kept in memory.
"""

from __future__ import annotations

import math

import numpy as np

from firngas import assembly, oracle
from firngas.model import AtmosphereSeries, rescale
from workloads import histories, sample_steps

_DT_SAFETY = 0.9      # dt = auto runs at 0.9 * dt_max
_STEP_RTOL = 1e-10    # recomputed level vs output, relative to max|rho|
_BOUNDARY_RTOL = 1e-12
_REPORT_RTOL = 1e-6   # an O(n) PD certificate may change the last digits

# Report of the README config under --check-only at the seed commit, keyed
# by the mesh size.  Every PD verdict but pd_B is true; B vanishes because
# f(1) = 0.
REFERENCE_REPORTS = {
    2001: {
        "dt_max": 6.9444526384634521e-07,
        "min_sym_eig_M": 0.00012499999999999179,
        "min_sym_eig_Mf": 3.7870289795237416e-08,
        "min_sym_eig_Kf": 7.499999999999174e-05,
        "min_sym_eig_A": 0.00012499999999998623,
        "min_sym_eig_S": 0.00072222641415322611,
        "min_sym_eig_B": 0.0,
        "min_sym_eig_V": 4.2695625573891487e-08,
    },
    21: {
        "dt_max": 6.9444526384642059e-05,
        "min_sym_eig_M": 0.012500000000008516,
        "min_sym_eig_Mf": 0.00037870289795244663,
        "min_sym_eig_Kf": 0.0074999999999999893,
        "min_sym_eig_A": 0.012499999999999983,
        "min_sym_eig_S": 0.065503230726550982,
        "min_sym_eig_B": 0.0,
        "min_sym_eig_V": 0.00040522382102807823,
    },
}
PD_EXPECTED = {"M": True, "Mf": True, "Kf": True, "A": True, "S": True, "B": False, "V": True}


class CheckError(Exception):
    """An output differs from what the checks expect."""


def parse_report(lines) -> dict:
    """``key: value`` report lines to a dict of floats and booleans."""
    report = {}
    for line in lines:
        key, _, value = line.partition(":")
        value = value.strip()
        if value in ("true", "false"):
            report[key.strip()] = value == "true"
        else:
            report[key.strip()] = float(value)
    return report


def auto_steps(dt_max: float) -> tuple[float, int]:
    """The ``dt = auto`` step and the step count K it gives on [0, 1]."""
    dt = _DT_SAFETY * dt_max
    return dt, math.ceil(1.0 / dt - 1e-12)


def check_report(path, n: int) -> tuple[int, int]:
    """PD verdicts, ``dt_max`` and smallest eigenvalues against the seed's report."""
    with open(path) as handle:
        report = parse_report(handle.read().splitlines())
    reference = REFERENCE_REPORTS[n]
    for name, expected in PD_EXPECTED.items():
        if report.get(f"pd_{name}") is not expected:
            raise CheckError(f"pd_{name} is {report.get(f'pd_{name}')}, expected {expected}")
    for key, expected in reference.items():
        if key not in report or not math.isclose(report[key], expected,
                                                 rel_tol=_REPORT_RTOL, abs_tol=1e-300):
            raise CheckError(f"{key} is {report.get(key)}, expected {expected}")
    return 0, len(PD_EXPECTED) + len(reference)


class StepChecker:
    """Recomputes one implicit step with the dense oracle solve.

    The step matrix and right-hand side come from the public assembly
    functions; ``oracle.dense_solve`` (LAPACK with partial pivoting)
    replaces the production tridiagonal solve.
    """

    def __init__(self, config, dt: float, n_steps: int):
        self.mesh = config.mesh
        self.context = rescale(config.params)
        self.f_nodes = np.asarray(config.f_profile(self.mesh.nodes), dtype=float)
        self.d_nodes = np.asarray(config.d_profile(self.mesh.nodes), dtype=float)
        self.dt = dt
        self.n_steps = n_steps
        self._systems = {}

    def _system(self, dt: float):
        if dt not in self._systems:
            self._systems[dt] = assembly.assemble_system(self.mesh, self.f_nodes, self.d_nodes,
                                                         self.context, dt)
        return self._systems[dt]

    def check(self, atmosphere, k, t_k, t_k1, before, after, scale, label=""):
        # The last step is shortened to land on t = 1.
        dt = self.dt if k < self.n_steps - 1 else t_k1 - t_k
        system = self._system(dt)
        v1 = assembly.assemble_v1(t_k, t_k1, atmosphere, self.mesh, self.f_nodes)
        v3 = assembly.assemble_v3(t_k1, atmosphere, self.mesh, self.f_nodes, self.d_nodes,
                                  self.context)
        rhs = assembly.assemble_rhs(before, v1, v3, system.Mf, self.context.T_e, dt)
        expected = oracle.dense_solve(system.V, rhs)
        error = float(np.max(np.abs(expected - after)))
        if not error <= _STEP_RTOL * max(scale, 1e-300):
            raise CheckError(f"{label}step {k}: max deviation {error:.3e} from the dense "
                             f"solve exceeds {_STEP_RTOL:g} * max|rho| = {scale:.3e}")


def _check_boundary(atmosphere, times, boundary, label=""):
    expected = np.asarray(atmosphere(times), dtype=float)
    tol = _BOUNDARY_RTOL * max(float(np.max(np.abs(expected))), 1e-300)
    if not np.all(np.abs(boundary - expected) <= tol):
        raise CheckError(f"{label}boundary column differs from the atmosphere")


def check_csv(path, config, seed: int, samples: int) -> tuple[int, int]:
    """Row count, boundary column and sampled steps of a trajectory CSV."""
    with open(path) as handle:
        report_lines = []
        line = handle.readline()
        while line.startswith("# "):
            report_lines.append(line[2:])
            line = handle.readline()
        if not line.startswith("t,"):
            raise CheckError("trajectory CSV has no header row")
        dt, n_steps = auto_steps(parse_report(report_lines)["dt_max"])
        picked = sample_steps(seed, n_steps, samples)
        wanted = set(picked) | {k + 1 for k in picked}
        times, boundary, rows = [], [], {}
        for index, line in enumerate(handle):
            t_text, b_text, _ = line.split(",", 2)
            times.append(float(t_text))
            boundary.append(float(b_text))
            if index in wanted:
                rows[index] = np.array(line.split(","), dtype=float)
    if len(times) != n_steps + 1:
        raise CheckError(f"{len(times)} rows, expected K+1 = {n_steps + 1} from dt_max")
    times = np.asarray(times)
    boundary = np.asarray(boundary)
    _check_boundary(config.atmosphere, times, boundary)
    checker = StepChecker(config, dt, n_steps)
    for k in picked:
        before, after = rows[k][2:], rows[k + 1][2:]
        scale = max(float(np.max(np.abs(boundary))), float(np.max(np.abs(before))),
                    float(np.max(np.abs(after))))
        checker.check(config.atmosphere, k, times[k], times[k + 1], before, after, scale)
    return n_steps, 2 + len(picked)


def check_ensemble(path, config, dt_max: float, seed: int, scenarios: int,
                   samples: int) -> tuple[int, int]:
    """Per history: level count, boundary column and sampled steps."""
    dt, n_steps = auto_steps(dt_max)
    checker = StepChecker(config, dt, n_steps)
    checks = 0
    with np.load(path) as dump:
        for i, (knots, values) in enumerate(histories(seed, scenarios)):
            label = f"history {i}: "
            atmosphere = AtmosphereSeries(knots, values)
            times = dump[f"{i}.times"]
            boundary = dump[f"{i}.boundary"]
            if len(times) != n_steps + 1:
                raise CheckError(f"{label}{len(times)} levels, expected K+1 = {n_steps + 1}")
            picked = [int(k) for k in dump[f"{i}.steps"]]
            if picked != sample_steps(seed, n_steps, samples, stream=i + 1):
                raise CheckError(f"{label}sampled steps differ from the seeded draw")
            _check_boundary(atmosphere, times, boundary, label)
            for k, before, after in zip(picked, dump[f"{i}.before"], dump[f"{i}.after"]):
                scale = max(float(np.max(np.abs(boundary))), float(np.max(np.abs(before))),
                            float(np.max(np.abs(after))))
                checker.check(atmosphere, k, times[k], times[k + 1], before, after, scale, label)
            checks += 2 + len(picked)
    return scenarios * n_steps, checks
