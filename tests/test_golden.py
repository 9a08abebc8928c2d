"""Golden outputs of the CLI on configs written by ``test_cli.write_config``.

Most cases use its unit config (n=11).  ``readme_check_n101.txt`` is the
README's physical config (z_F=80, T_e=30, n=101); ``nondegenerate_check.txt``
has a constant diffusivity, so ``D(1) = 1`` and the report takes the
nondegenerate trace-constant branch.  The files under ``tests/data`` fix
the output contract: everything is compared byte for byte, except the
smallest symmetric eigenvalues (the ``min_sym_eig`` values), which come
from LAPACK and are compared to 1e-9 relative.
"""

import re
from pathlib import Path

import pytest

from firngas import cli
from test_cli import write_config

DATA = Path(__file__).parent / "data"
_EIG = re.compile(r"(min_sym_eig\w*:? )([^)\s]+)")

# name -> (write_config keyword arguments, CLI flags)
CASES = {
    "unit_run_stride10.csv": ({}, ["--stride", "10"]),
    "unit_check.txt": ({}, ["--check-only"]),
    "unit_oracle.csv": ({}, ["--oracle-compare"]),
    "unit_force_dt0.5.csv": ({}, ["--dt", "0.5", "--force"]),
    "readme_check_n101.txt": ({"z_F": 80.0, "T_e": 30.0, "n": 101}, ["--check-only"]),
    "nondegenerate_check.txt": ({"d_kind": "constant"}, ["--check-only"]),
}


def _split_eigenvalue(line):
    match = _EIG.search(line)
    if match is None:
        return line, None
    return _EIG.sub(r"\1", line), float(match.group(2))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    out = tmp_path / name
    kwargs, flags = CASES[name]
    assert cli.main(["--config", write_config(tmp_path, **kwargs), "--out", str(out),
                     *flags]) == cli.EXIT_OK
    got = out.read_bytes().decode().split("\n")
    want = (DATA / name).read_bytes().decode().split("\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_text, got_eig = _split_eigenvalue(got_line)
        want_text, want_eig = _split_eigenvalue(want_line)
        assert got_text == want_text
        if want_eig is not None:
            assert abs(got_eig - want_eig) <= 1e-9 * abs(want_eig), want_line
