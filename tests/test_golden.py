"""Golden outputs of the CLI on the unit config of ``test_cli`` (n=11).

The files under ``tests/data`` fix the output contract: everything is
compared byte for byte, except the smallest symmetric eigenvalues (the
``min_sym_eig`` values), which come from LAPACK and are compared to 1e-9
relative.
"""

import re
from pathlib import Path

import pytest

from firngas import cli
from test_cli import write_config

DATA = Path(__file__).parent / "data"
_EIG = re.compile(r"(min_sym_eig\w*:? )([^)\s]+)")

CASES = {
    "unit_run_stride10.csv": ["--stride", "10"],
    "unit_check.txt": ["--check-only"],
    "unit_oracle.csv": ["--oracle-compare"],
    "unit_force_dt0.5.csv": ["--dt", "0.5", "--force"],
}


def _split_eigenvalue(line):
    match = _EIG.search(line)
    if match is None:
        return line, None
    return _EIG.sub(r"\1", line), float(match.group(2))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["--config", write_config(tmp_path), "--out", str(out),
                     *CASES[name]]) == cli.EXIT_OK
    got = out.read_bytes().decode().split("\n")
    want = (DATA / name).read_bytes().decode().split("\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_text, got_eig = _split_eigenvalue(got_line)
        want_text, want_eig = _split_eigenvalue(want_line)
        assert got_text == want_text
        if want_eig is not None:
            assert abs(got_eig - want_eig) <= 1e-9 * abs(want_eig), want_line
