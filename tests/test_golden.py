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

from pathlib import Path

import numpy as np
import pytest

from firngas import cli
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
