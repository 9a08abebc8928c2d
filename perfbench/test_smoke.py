"""Smoke test of the benchmark: tiny sizes of every workload, traced and untraced.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_smoke_emits_every_metric_and_runs_the_checks():
    assert run.main(["--smoke"]) == 0
