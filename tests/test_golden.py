"""Golden outputs of the CLI on configs written by ``reference.write_config``.

Most cases use its unit config (n=11).  ``readme_check_n101.txt`` is the
README's physical config (z_F=80, T_e=30, n=101); ``nondegenerate_check.txt``
has a constant diffusivity, so ``D(1) = 1`` and the report takes the
nondegenerate trace-constant branch.  The files under ``tests/data`` fix
the output contract and are compared byte for byte, the smallest symmetric
eigenvalues (the ``min_sym_eig`` values) included: they come from the
deterministic bisection of ``analysis.check_pd_all``.
"""

from pathlib import Path

import pytest

from firngas import cli
from reference import write_config

DATA = Path(__file__).parent / "data"

# name -> (write_config keyword arguments, CLI flags)
CASES = {
    "unit_run_stride10.csv": ({}, ["--stride", "10"]),
    "unit_check.txt": ({}, ["--check-only"]),
    "unit_oracle.csv": ({}, ["--oracle-compare"]),
    "unit_force_dt0.5.csv": ({}, ["--dt", "0.5", "--force"]),
    "readme_check_n101.txt": ({"z_F": 80.0, "T_e": 30.0, "n": 101}, ["--check-only"]),
    "nondegenerate_check.txt": ({"d_kind": "constant"}, ["--check-only"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    out = tmp_path / name
    kwargs, flags = CASES[name]
    assert cli.main(["--config", write_config(tmp_path, **kwargs), "--out", str(out),
                     *flags]) == cli.EXIT_OK
    assert out.read_bytes() == (DATA / name).read_bytes()
