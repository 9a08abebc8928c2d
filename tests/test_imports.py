"""Import-time budget: the package and its CLI load without scipy.

scipy adds about 0.3-0.4 s and 27 MB of resident memory to ``import
firngas.cli``, which would dominate the start-up time and the peak memory of
short runs.  The check runs in a fresh interpreter so that other tests'
imports cannot mask or cause a failure.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_package_and_cli_import_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, firngas, firngas.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
