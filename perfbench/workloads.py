"""Workload definitions shared by the harness and the per-operation child.

Every input is a function of the workload and the seed: the INI configs
are fixed, the seed draws the ensemble's atmospheric histories and the
time steps that the correctness checks recompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PARAMS = """\
[params]
M_alpha = 0.04
g = 9.81
R = 8.314
T = 250.0
tau = 0.3
lam = 0.7
v = 0.5
w_air = 0.1
z_F = {z_F}
T_e = {T_e}
"""

# Affine f = D = 1 - z: the degenerate pair of the README and of the tests.
_REST = """\
[mesh]
n = {n}
[time]
dt = auto
stride = 1
[profile.f]
kind = affine
intercept = 1.0
slope = -1.0
[profile.D]
kind = affine
intercept = 1.0
slope = -1.0
[atmosphere]
kind = ramp
amplitude = 1.0
[analysis]
c_D = 1.0
"""

# Knots of each ensemble history, t = 0 and t = 1 included.
ENSEMBLE_KNOTS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A workload with ``scenarios`` runs that many histories through
    ``firngas.run``; the others run ``cli.main``, under ``--check-only
    --n check_n`` when ``check_n`` is set.  ``samples`` is the number of
    drawn time steps (per history) that the checks recompute, on top of
    the first and the last step.
    """

    name: str
    z_F: float
    T_e: float
    n: int
    check_n: int | None = None
    scenarios: int = 0
    samples: int = 0

    def config_text(self) -> str:
        return _PARAMS.format(z_F=self.z_F, T_e=self.T_e) + _REST.format(n=self.n)

    @property
    def cli_args(self) -> tuple | None:
        """Flags after ``--config`` for ``cli.main``; ``None`` for the library ensemble."""
        if self.scenarios:
            return None
        return ("--check-only", "--n", str(self.check_n)) if self.check_n else ()

    @property
    def writes_csv(self) -> bool:
        return not self.scenarios and self.check_n is None


WORKLOADS = {
    "readme_run": Workload("readme_run", 80.0, 30.0, 101, samples=8),
    "check_n2001": Workload("check_n2001", 80.0, 30.0, 101, check_n=2001),
    "ensemble_unit": Workload("ensemble_unit", 1.0, 1.0, 101, scenarios=16, samples=3),
}

# Tiny versions of the same three workloads for the benchmark's own test.
SMOKE_WORKLOADS = {
    "readme_run": Workload("readme_run", 80.0, 30.0, 5, samples=4),
    "check_n2001": Workload("check_n2001", 80.0, 30.0, 101, check_n=21),
    "ensemble_unit": Workload("ensemble_unit", 1.0, 1.0, 11, scenarios=2, samples=2),
}


def histories(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded piecewise-linear atmospheric histories on [0, 1], zero at t = 0."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        gaps = rng.uniform(0.5, 1.5, ENSEMBLE_KNOTS - 1)
        knots = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
        knots[-1] = 1.0
        values = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, ENSEMBLE_KNOTS - 1)])
        out.append((knots, values))
    return out


def sample_steps(seed: int, n_steps: int, count: int, stream: int = 0) -> list[int]:
    """Steps ``k -> k+1`` to recompute: the first, the last and ``count`` drawn ones."""
    rng = np.random.default_rng([seed, stream])
    inner = np.arange(1, max(n_steps - 1, 1))
    drawn = rng.choice(inner, size=min(count, len(inner)), replace=False) if len(inner) else []
    return sorted({0, n_steps - 1, *(int(k) for k in drawn)})
