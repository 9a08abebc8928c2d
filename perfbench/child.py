"""One benchmark operation, run in a fresh Python process by ``run.py``.

Usage: ``python child.py SPEC.json``.  The spec names the workload, the
seed, the config and output paths, whether to trace, and whether this is
a set-up probe that exits as soon as set-up is done.  The child runs
the operation and writes a small JSON record: the monotonic time at which
set-up ended and, when traced, the per-name stats.
The harness measures spawn, exit and peak memory from the outside and
checks the outputs after the child has exited.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from workloads import SMOKE_WORKLOADS, WORKLOADS, histories, sample_steps


class SetupDone(Exception):
    """Ends a set-up probe once set-up is complete."""


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = (SMOKE_WORKLOADS if spec["smoke"] else WORKLOADS)[spec["workload"]]

    tracer = None
    if spec["trace"]:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    import firngas
    from firngas import cli
    from firngas.model import AtmosphereSeries, rescale

    marks = {}
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        marks["setup"] = time.perf_counter()
        if spec["setup_only"] and workload.cli_args is not None:
            raise SetupDone
        return config

    cli.load_config = timed_load_config

    if workload.cli_args is not None:
        try:
            code = cli.main(["--config", spec["config"], *workload.cli_args,
                             "--out", spec["out"]])
        except SetupDone:
            code = 0
    else:
        config = cli.load_config(spec["config"])
        context = rescale(config.params)
        atmospheres = [AtmosphereSeries(t, v)
                       for t, v in histories(spec["seed"], workload.scenarios)]
        marks["setup"] = time.perf_counter()
        if spec["setup_only"]:
            atmospheres = []
        dump = {}
        for i, atmosphere in enumerate(atmospheres):
            trajectory = firngas.run(config.mesh, config.f_profile, config.d_profile,
                                     context, atmosphere, dt=config.dt, c_D=config.c_D)
            picked = sample_steps(spec["seed"], trajectory.n_levels - 1, workload.samples,
                                  stream=i + 1)
            dump[f"{i}.times"] = trajectory.times
            dump[f"{i}.boundary"] = trajectory.boundary
            dump[f"{i}.steps"] = np.asarray(picked)
            dump[f"{i}.before"] = trajectory.interior[picked]
            dump[f"{i}.after"] = trajectory.interior[[k + 1 for k in picked]]
        if dump:
            np.savez(spec["out"], **dump)
        code = 0

    record = {"t_setup": marks.get("setup")}
    if tracer is not None:
        record["trace"] = layertrace.snapshot(tracer)
    with open(spec["record"], "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
