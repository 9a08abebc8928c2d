"""Config-driven command-line front end.

Reads an INI config, runs the admissibility analysis and/or the
implicit-Euler simulation, and emits byte-reproducible CSV / report files
(17 significant digits, ``\\n`` line separators, ``.`` decimal point).

Exit codes: 0 success, 1 usage, I/O, parse or config-value error,
2 admissibility failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, assembly, mesh as mesh_mod, solver
from .errors import AssumptionError, ConfigError, FirngasError, TimeStepError
from .model import AtmosphereSeries, CoefficientProfile, ModelParams, RescaledContext, rescale

__all__ = ["RunConfig", "load_config", "cmd_run", "cmd_check",
           "cmd_oracle_compare", "main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_ADMISSIBILITY = 2
EXIT_NUMERICAL = 3

_ORDER_BAND = 0.5
_EXACT_FLOOR = 1e-13


@dataclass
class RunConfig:
    params: ModelParams
    context: RescaledContext  # derived once from ``params``
    mesh: object
    f_profile: CoefficientProfile
    d_profile: CoefficientProfile
    atmosphere: AtmosphereSeries
    dt: object          # float or "auto"
    out: str | None
    stride: int
    c_D: float
    force: bool = False


def _get_float(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} in [{section.name}]: {section[key]!r}") from exc


def _read_table(path, columns: int) -> np.ndarray:
    """The ``columns`` columns of a comma-separated table file, one per row of the result."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(path, delimiter=",", ndmin=2)
    if table.size == 0:
        raise ConfigError(f"table file {path} contains no data")
    if table.shape[1] != columns:
        raise ConfigError(f"table file {path} needs {columns} column(s), got shape {table.shape}")
    return table.T


def _load_profile(section) -> CoefficientProfile:
    kind = section.get("kind", "constant")
    upper = _get_float(section, "upper_bound", math.inf)
    upper = None if upper == math.inf else upper
    if kind == "constant":
        return CoefficientProfile.constant(_get_float(section, "value"), upper)
    if kind == "affine":
        return CoefficientProfile.affine(_get_float(section, "intercept"),
                                         _get_float(section, "slope"), upper)
    if kind == "sampled":
        return CoefficientProfile.sampled(*_read_table(section["file"], 2), upper)
    if kind == "firn_diffusion":
        scalars = [_get_float(section, key) for key in ("z_eddy", "r_alpha", "c_f")]
        tables = [CoefficientProfile.sampled(*_read_table(section[key], 2))
                  for key in ("d_eddy_file", "d_co2_air_file")]
        return CoefficientProfile.firn_diffusion(*scalars, *tables, upper)
    raise ConfigError(f"unknown profile kind {kind!r} in [{section.name}]")


def _load_atmosphere(section) -> AtmosphereSeries:
    kind = section.get("kind", "ramp")
    if kind == "ramp":
        return AtmosphereSeries.ramp(_get_float(section, "amplitude", 1.0))
    if kind == "zero":
        return AtmosphereSeries.zero()
    if kind == "file":
        return AtmosphereSeries(*_read_table(section["file"], 2))
    raise ConfigError(f"unknown atmosphere kind {kind!r}")


def load_config(path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Parse an INI run configuration, applying CLI overrides.

    An override given on the command line wins even when it is zero.  It is
    converted as the file's value is, so an invalid value from either source
    is refused here, before any solve.
    """
    def given(name, fallback):
        value = getattr(overrides, name, None)
        return fallback if value is None else value

    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        p = parser["params"]
        params = ModelParams(**{item.name: _get_float(p, item.name)
                                for item in fields(ModelParams)})
        context = rescale(params)
        msec = parser["mesh"] if "mesh" in parser else {}
        n = int(given("n", msec.get("n", 0)))
        if "file" in msec and given("n", None) is None:
            grid = mesh_mod.Mesh(*_read_table(msec["file"], 1))
        else:
            grid = mesh_mod.build_uniform(n)
        tsec = parser["time"] if "time" in parser else {}
        dt_raw = given("dt", tsec.get("dt", "auto"))
        dt = "auto" if str(dt_raw).lower() == "auto" else float(dt_raw)
        if dt != "auto" and not 0.0 < dt <= 1.0:
            raise ConfigError(f"time step must lie in (0, 1], got {dt_raw!r}")
        stride = int(given("stride", tsec.get("stride", 1)))
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        f_profile = _load_profile(parser["profile.f"])
        d_profile = _load_profile(parser["profile.D"])
        atmosphere = _load_atmosphere(parser["atmosphere"] if "atmosphere" in parser else {})
        asec = parser["analysis"] if "analysis" in parser else {}
        c_D = _get_float(asec, "c_D", 1.0)
        if not 0.0 < c_D < 2.0:
            raise ConfigError(f"c_D must lie in (0, 2), got {c_D}")
    except KeyError as exc:
        raise ConfigError(f"config error in {path}: missing section or key {exc}") from exc
    except (ValueError, configparser.Error) as exc:  # the parser's messages span lines
        raise ConfigError(f"config error in {path}: {' '.join(str(exc).split())}") from exc
    return RunConfig(
        params=params, context=context, mesh=grid, f_profile=f_profile, d_profile=d_profile,
        atmosphere=atmosphere, dt=dt, out=given("out", None), stride=stride, c_D=c_D,
        force=bool(given("force", False)),
    )


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(config: RunConfig) -> int:
    """Emit the stability report without solving."""
    report = analysis.build_report(config.f_profile, config.d_profile, config.mesh,
                                   config.context, c_D=config.c_D)
    _emit(report.to_text(), config.out)
    return EXIT_OK


def cmd_run(config: RunConfig) -> int:
    """Run the simulation; stream the trajectory CSV with an inline report."""
    plan = analysis.plan_run(config.f_profile, config.d_profile, config.mesh, config.context,
                             config.c_D, config.dt, config.force)
    report = plan.report.to_text() if plan.report else ""
    # levels sets up at the call, so a run refused there leaves no output file
    rows = solver.levels(plan.operators, config.atmosphere, config.stride)
    with open(config.out or "trajectory.csv", "w", newline="\n") as handle:
        handle.writelines(f"# {line}\n" for line in report.splitlines())
        solver.write_csv(handle, config.mesh.nodes, rows)
    return EXIT_OK


def cmd_oracle_compare(config: RunConfig) -> int:
    """Compare the bands ``assemble_system`` builds against the quadrature oracle.

    Reports the max entry deviation of ``Mf``, ``Kf``, ``A`` and ``S`` on the
    uniform meshes of the configured node count n and of 2n - 1 nodes (a
    mesh file sets only n), the observed convergence order, and PD verdicts
    of ``M``, ``Mf`` and ``S`` on the configured mesh; a config that
    ``assemble_system`` refuses fails as it does in a run.  Succeeds iff each
    observed order sits within 0.5 of the documented one, or the coarse
    deviation is at rounding level: at most ``1e-13`` times the coarse band's
    largest entry, as for a weight the bands integrate exactly.  Otherwise
    one stderr line names the kinds that miss.
    """
    from . import oracle  # verification only, kept off the run path

    def operators(grid):  # at step 0, where V is Mf; nothing here reads V
        return assembly.assemble_system(grid, config.f_profile(grid.nodes),
                                        config.d_profile(grid.nodes), config.context, 0.0)

    # kind -> (weight profile, expected order).  The expected orders are those
    # of the max entry deviation under mesh halving, as observed on smooth
    # weights.  The weighted mass matrix gains an order from error
    # cancellation across adjacent elements; the first-derivative and
    # stiffness patterns are first order.
    kinds = {"Mf": (config.f_profile, 2.0), "Kf": (config.f_profile, 1.0),
             "A": (config.d_profile, 1.0), "S": (config.d_profile, 1.0)}
    systems = [operators(mesh_mod.build_uniform(n)) for n in (config.mesh.n, 2 * config.mesh.n - 1)]
    lines = ["kind,deviation_coarse,deviation_fine,observed_order,expected_order,pass"]
    failed = []
    for kind, (weight, expected) in kinds.items():
        devs = [(getattr(system, kind) - oracle.assemble_reference(
                    weight, kind, system.mesh, fcoef=config.context.fcoef)).max_abs()
                for system in systems]
        if devs[0] <= _EXACT_FLOOR * getattr(systems[0], kind).max_abs():
            order, passed = float("nan"), True
        else:
            order = math.log2(devs[0] / max(devs[1], 1e-300))
            passed = abs(order - expected) <= _ORDER_BAND
        if not passed:
            failed.append(kind)
        lines.append(f"{kind},{devs[0]:.17g},{devs[1]:.17g},{order:.17g},"
                     f"{expected:g},{str(passed).lower()}")
    configured = operators(config.mesh)
    verdicts = analysis.check_pd_all({name: getattr(configured, name) for name in ("M", "Mf", "S")})
    for name, verdict in verdicts.items():
        lines.append(f"# pd_{name}: {str(verdict.positive_definite).lower()} "
                     f"(min_sym_eig {verdict.min_eigenvalue:.17g})")
    _emit("\n".join(lines) + "\n", config.out)
    if failed:
        print(f"numerical failure: observed order outside its band for {', '.join(failed)}",
              file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firngas",
        description="1-D firn trace-gas transport: P1 finite elements in "
                    "space, implicit Euler in time.",
    )
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--n", default=None, help="uniform mesh node count")
    parser.add_argument("--dt", default=None, help="time step (float) or 'auto'")
    parser.add_argument("--check-only", action="store_true", dest="check_only",
                        help="emit the stability report without solving")
    parser.add_argument("--force", action="store_true",
                        help="run despite admissibility failures")
    parser.add_argument("--oracle-compare", action="store_true", dest="oracle_compare",
                        help="compare band assembly against the quadrature oracle")
    parser.add_argument("--stride", default=None,
                        help="down-sampling stride for trajectory output")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return EXIT_IO if exc.code else EXIT_OK
    try:
        config = load_config(args.config, args)
    except (FirngasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    command = (cmd_oracle_compare if args.oracle_compare
               else cmd_check if args.check_only else cmd_run)
    try:
        return command(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AssumptionError, TimeStepError) as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except FirngasError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
