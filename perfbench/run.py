"""firngas benchmark harness.

Runs one workload for a fixed time as a closed loop with one client: each
operation is a fresh single-threaded Python process (``child.py``), started
only after the previous one has exited and its outputs have been checked.
Prints a table of every metric with its unit, the environment, and as the
last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured on
untraced operations.  With ``--trace 1`` the loop alternates untraced and
traced operations and the metrics are the per-layer ones from the traced
operations, plus the tracing overhead.  Timings are medians over the
operations that succeeded; failed operations are counted, never timed.

Usage::

    python3 perfbench/run.py --workload check_n2001 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 170.0
# Set-up probes before each untraced operation.
SETUP_PROBES = 2

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed in the table for the workloads they apply to; not every workload
# has steps or scenarios, so they are not in the final JSON line.
END_TO_END_EXTRA = [
    ("steps_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("failed_ratio", "ratio"),
]

# (metric, unit).  A metric is "<traced name>.<field>": "calls" is a count,
# "s" the total span time.
PER_LAYER = [
    ("solver.run.s", "s"),
    ("solver.step.calls", "count"),
    ("solver.solve_tridiagonal.calls", "count"),
    ("solver.solve_tridiagonal.s", "s"),
    ("model.AtmosphereSeries.call.calls", "count"),
    ("model.AtmosphereSeries.call.s", "s"),
    ("model.CoefficientProfile.call.calls", "count"),
    ("model.CoefficientProfile.call.s", "s"),
    ("assembly.assemble_system.calls", "count"),
    ("assembly.assemble_system.s", "s"),
    ("assembly.assemble_v1.calls", "count"),
    ("assembly.assemble_v1.s", "s"),
    ("assembly.assemble_v3.calls", "count"),
    ("assembly.assemble_v3.s", "s"),
    ("assembly.assemble_rhs.calls", "count"),
    ("assembly.assemble_rhs.s", "s"),
    ("analysis.build_report.s", "s"),
    ("analysis.check_pd.calls", "count"),
    ("analysis.check_pd.s", "s"),
    ("analysis.compute_B0.s", "s"),
    ("analysis.compute_C0.s", "s"),
    ("analysis.compute_KG.s", "s"),
    ("analysis.compute_dt_max.s", "s"),
    ("analysis.continuity_coercivity_constants.s", "s"),
    ("analysis.check_assumptions.calls", "count"),
    ("analysis.compute_fh.calls", "count"),
    ("analysis.compute_KG.calls", "count"),
    ("analysis.estimate_lipschitz.calls", "count"),
    ("oracle.min_symmetric_eigenvalue.calls", "count"),
    ("oracle.min_symmetric_eigenvalue.s", "s"),
    ("cli.load_config.s", "s"),
    ("mesh.build_uniform.s", "s"),
]
# Derived per-layer metrics, computed in layer_metrics().
PER_LAYER_DERIVED = [("solver.us_per_step", "us"), ("trace.overhead_s", "s")]
# The CSV writer runs only on workloads that write a trajectory.
PER_LAYER_WRITER = [
    ("solver.Trajectory.write_csv.s", "s"),
    ("solver.Trajectory.write_csv.bytes", "bytes"),
]


# One BLAS thread keeps each operation on one core, so that load on the
# other cores of a shared machine moves the timings less.
BLAS_THREADS = 1


@dataclass
class Op:
    """Outcome of one operation."""

    ok: bool
    traced: bool
    wall_s: float
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    steps: int = 0
    checks: int = 0
    trace: dict = field(default_factory=dict)
    error: str = ""


class Bench:
    """Runs operations of one workload in child processes and checks them."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        from workloads import SMOKE_WORKLOADS, WORKLOADS
        self.workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
        self.seed = seed
        self.smoke = smoke
        self.work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work / "run.ini"
        self.config_path.write_text(self.workload.config_text())
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._config = None
        self._dt_max = None

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def warm_up(self):
        """Compile and cache the package's bytecode so no timed op pays for it."""
        subprocess.run([sys.executable, "-c", "import firngas.cli"], env=self.env,
                       check=True, timeout=OP_TIMEOUT_S)

    @property
    def config(self):
        if self._config is None:
            from firngas import cli
            self._config = cli.load_config(str(self.config_path))
        return self._config

    def _spawn(self, traced: bool, setup_only: bool, out: Path, timeout: float):
        """Run one child; return its exit code, spawn time, wall time, rusage, record, stderr."""
        record_path = self.work / "record.json"
        spec_path = self.work / "spec.json"
        for stale in (out, record_path):
            stale.unlink(missing_ok=True)
        spec_path.write_text(json.dumps({
            "workload": self.workload.name, "smoke": self.smoke, "seed": self.seed,
            "trace": traced, "setup_only": setup_only, "config": str(self.config_path),
            "out": str(out), "record": str(record_path),
        }))
        with open(self.work / "stderr.txt", "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                                    stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().strip()
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        return proc.returncode, start, wall, usage, record, stderr

    def probe_setup(self) -> float | None:
        """Set-up time of a child that exits as soon as set-up is done."""
        code, start, _, _, record, _ = self._spawn(False, True, self.work / "probe.out",
                                                   OP_TIMEOUT_S)
        return record["t_setup"] - start if code == 0 and record else None

    def run_op(self, traced: bool, timeout: float) -> Op:
        out = self.work / ("out.npz" if self.workload.cli_args is None else "out.txt")
        code, start, wall, usage, record, stderr = self._spawn(traced, False, out, timeout)
        op = Op(ok=False, traced=traced, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0)
        try:
            if code != 0 or record is None:
                op.error = f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}"
                return op
            op.setup_s = record["t_setup"] - start
            op.trace = record.get("trace", {})
            op.steps, op.checks = self.check(out)
            op.ok = True
        except Exception as exc:  # a failed check or a malformed output fails the op
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            out.unlink(missing_ok=True)
        return op

    def check(self, out: Path) -> tuple[int, int]:
        import checks
        w = self.workload
        if w.check_n is not None:
            return checks.check_report(out, w.check_n)
        if w.writes_csv:
            return checks.check_csv(out, self.config, self.seed, w.samples)
        if self._dt_max is None:
            from firngas import analysis
            from firngas.model import rescale
            c = self.config
            self._dt_max = analysis.build_report(c.f_profile, c.d_profile, c.mesh,
                                                 rescale(c.params), c_D=c.c_D).dt_max
        return checks.check_ensemble(out, self.config, self._dt_max, self.seed,
                                     w.scenarios, w.samples)

    def loop(self, seconds: float, trace: bool) -> tuple[list[Op], list[float]]:
        """Closed loop: operations back to back for ``seconds``.

        A new operation starts only if the previous one's duration still
        fits in the window, so a run ends close to ``seconds``; it holds at
        least one operation (two, untraced and traced, with tracing on).
        Each untraced operation is preceded by set-up probes, which give
        ``setup_s`` more samples than there are operations.  Returns the
        operations and the probes' set-up times.
        """
        self.warm_up()
        ops, probes = [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            need_pair = trace and len(ops) < 2
            if ops and not need_pair and elapsed + ops[-1].wall_s > seconds:
                break
            if not trace:
                probes.extend(self.probe_setup() for _ in range(SETUP_PROBES))
            ops.append(self.run_op(traced=trace and len(ops) % 2 == 1,
                                   timeout=max(OP_TIMEOUT_S - elapsed, 10.0)))
        return ops, probes


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(workload, ops: list[Op], probes: list[float]) -> dict:
    good = [op for op in ops if op.ok and not op.traced]
    attempted = [op for op in ops if not op.traced]
    metrics = {
        "setup_s": _median([op.setup_s for op in good] + probes) if good else None,
        "wall_s": _median(op.wall_s for op in good),
        "peak_rss_mb": _median(op.peak_rss_mb for op in good),
    }
    if workload.check_n is None:
        metrics["steps_per_s"] = _median(op.steps / op.wall_s for op in good)
    if workload.scenarios:
        metrics["scenarios_per_s"] = _median(workload.scenarios / op.wall_s for op in good)
    metrics["failed_ratio"] = sum(not op.ok for op in attempted) / max(len(attempted), 1)
    return metrics


def layer_table(workload) -> list:
    return PER_LAYER + (PER_LAYER_WRITER if workload.writes_csv else [])


def layer_units(workload) -> dict:
    return {**dict(layer_table(workload)), **dict(PER_LAYER_DERIVED)}


def layer_metrics(workload, ops: list[Op]) -> dict:
    import layertrace
    traced = [op for op in ops if op.ok and op.traced]
    untraced = [op for op in ops if op.ok and not op.traced]
    if not traced:
        return dict.fromkeys(layer_units(workload))
    metrics = {name: _median(layertrace.metric(op.trace, *name.rsplit(".", 1)) for op in traced)
               for name, _ in layer_table(workload)}
    metrics["solver.us_per_step"] = _median(
        1e6 * layertrace.metric(op.trace, "solver.run", "s") / op.steps if op.steps else 0.0
        for op in traced)
    metrics["trace.overhead_s"] = None
    if untraced:
        metrics["trace.overhead_s"] = (_median(op.wall_s for op in traced)
                                       - _median(op.wall_s for op in untraced))
    return metrics


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"commit": commit, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   smoke: bool = False) -> dict:
    """Run one workload; return the result object and print its table."""
    bench = Bench(name, seed, smoke)
    try:
        ops, probes = bench.loop(seconds, trace)
    finally:
        bench.close()
    metrics = layer_metrics(bench.workload, ops) if trace else \
        end_to_end_metrics(bench.workload, ops, probes)
    unit = layer_units(bench.workload) if trace else dict(END_TO_END + END_TO_END_EXTRA)
    failed = [op for op in ops if not op.ok]
    for op in failed[:3]:
        print(f"# {name}: failed operation ({op.wall_s:.3f} s): {op.error}")
    checks = sum(op.checks for op in ops if op.ok)
    print(f"# {name}: {len(ops)} operations, {len(failed)} failed, {checks} checks passed")
    walls = " ".join(f"{op.wall_s:.3f}" for op in ops if op.ok and op.traced == trace)
    print(f"# {name}: wall_s of the successful {'traced ' if trace else ''}operations: {walls}")
    if probes:
        print(f"# {name}: setup_s from {len(probes)} probes and {len(ops)} operations")
    traced = [op for op in ops if op.ok and op.traced]
    if traced:
        print(f"# {name}: largest self times (total minus wrapped children), first traced op")
        spans = sorted(traced[0].trace.items(), key=lambda item: -item[1]["self_s"])
        for key, span in spans[:12]:
            print(f"#   {key:<42} {span['calls']:>8} calls {span['s']:10.4f} s total "
                  f"{span['self_s']:10.4f} s self")
    for key, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:<14} {key:<44} {shown:>14} {unit[key]}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": unit[key]}
                    for key in (unit if trace else dict(END_TO_END))},
        "checks": checks,
    }


def smoke() -> int:
    """Tiny sizes of every workload, traced and untraced; checks names, units, checks."""
    from workloads import SMOKE_WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if declared_e2e != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from the harness")
    for name, workload in SMOKE_WORKLOADS.items():
        for trace in (False, True):
            result = bench_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != (layer_units(workload) if trace else dict(END_TO_END)):
                problems.append(f"{name} trace={trace}: metric names or units differ")
            if trace and any(declared_layer.get(k, u) != u for k, u in emitted.items()):
                problems.append(f"{name}: per-layer units differ from BENCHMARK.json")
            if trace and not set(declared_layer) <= set(emitted):
                problems.append(f"{name}: BENCHMARK.json per-layer metrics not emitted")
            if not result["correct"] or result["checks"] == 0:
                problems.append(f"{name} trace={trace}: correct={result['correct']}, "
                                f"checks={result['checks']}")
            if any(v["value"] is None for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric has no value")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload; checks metric names, units and checks")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running child is killed and
    # reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "firngas" / "__init__.py").is_file():
        print(f"error: no firngas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import firngas
    if Path(firngas.__file__).resolve().parent != (SRC / "firngas").resolve():
        print(f"error: firngas imported from {firngas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: bench_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    for result in results.values():
        del result["checks"]
    print("# env " + json.dumps({**environment(args.seed), "workload": args.workload,
                                 "seconds": args.seconds, "trace": args.trace}))
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
