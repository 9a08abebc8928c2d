import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import firngas
from firngas import analysis, assembly, cli
from firngas.errors import AssumptionError, FirngasError, TimeStepError, ValidationError
from firngas.model import rescale
from reference import AFFINE, clear_plan_slot, count_calls, edit_config, write_config

PARAMS = ["M_alpha", "g", "R", "T", "tau", "lam", "v", "w_air", "z_F", "T_e"]  # ModelParams' order


def vanishing_d_config(tmp_path, dip):
    """Unit config with f = 1 and a sampled D that dips to ``dip`` at z = 0.5049, between nodes."""
    table = tmp_path / "d.csv"
    table.write_text(f"0,1\n0.5,1\n0.5049,{dip}\n0.51,1\n1,1\n")
    return edit_config(write_config(tmp_path, f_kind="constant", f_value=1.0), AFFINE,
                       f"kind = sampled\nfile = {table}")


def continuity_failure_config(tmp_path):
    """Unit config with a sampled f that is 0 past z = 0.9999, so positive at every interior node.

    It passes every check up to the step bound and fails continuity (9).
    """
    table = tmp_path / "f.csv"
    table.write_text("0,1\n0.9999,0\n1,0\n")
    return edit_config(write_config(tmp_path), AFFINE, f"kind = sampled\nfile = {table}")


def strongly_degenerate_d_config(tmp_path):
    """Unit config with f = 1 and a sampled D = (1 - z)^3, graded towards z = 1.

    The weighted Poincare constant diverges: condition (cond:WI) fails.
    """
    z = np.concatenate([np.linspace(0.0, 0.9, 10), 1.0 - np.logspace(-1.25, -10.0, 36), [1.0]])
    table = tmp_path / "d.csv"
    table.write_text("".join(f"{x:.17g},{(1.0 - x) ** 3:.17g}\n" for x in z))
    return edit_config(write_config(tmp_path, f_kind="constant", f_value=1.0), AFFINE,
                       f"kind = sampled\nfile = {table}")


def uncertified_step_config(tmp_path):
    """f = 1 - z and a sampled D = sqrt(1 - z) at README scale on 11 nodes, where dt_max fails.

    M_alpha = g = R = T = 1 (mcoef = 1), tau = lam = 0.005 (gcoef = 0.01; lam
    warns about its range) and v = w_air = 0.05 (fcoef = 0.1).  Every check
    passes with dt_max = 0.2244, but the step matrix at the auto step is indefinite.
    """
    z = np.linspace(0.0, 1.0, 1001)
    table = tmp_path / "d.csv"
    table.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(z, np.sqrt(1.0 - z))))
    cfg = write_config(tmp_path, z_F=80.0, T_e=30.0)
    text = Path(cfg).read_text()
    for name, value in [("M_alpha", 1), ("g", 1), ("R", 1), ("T", 1), ("tau", 0.005),
                        ("lam", 0.005), ("v", 0.05), ("w_air", 0.05)]:
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.MULTILINE)
    Path(cfg).write_text(text)
    return edit_config(cfg, "[profile.D]\n" + AFFINE,
                       f"[profile.D]\nkind = sampled\nfile = {table}")


def constant_d_config(tmp_path, value, **config):
    """Unit config with f = 1 - z and a constant D = ``value``."""
    return edit_config(write_config(tmp_path, d_kind="constant", **config), "value = 1.0",
                       f"value = {value}")


def overflowing_ratio_config(tmp_path):
    """Unit config with f = 1 - z and D = 1e305: D/f overflows near z = 1, so continuity (9) fails.

    Its step bound is below 1e-300, so the config sets ``dt = 0.01`` for the forced run.
    """
    return constant_d_config(tmp_path, "1e305", dt="0.01")


def huge_d_config(tmp_path):
    """Unit config with f = 1 and D = 1e200: it passes every check, and dt_max is about 8e-202."""
    return edit_config(write_config(tmp_path, f_kind="constant", f_value=1.0, d_kind="constant"),
                       "[profile.D]\nkind = constant\nvalue = 1.0",
                       "[profile.D]\nkind = constant\nvalue = 1e200")


class TestConfig:
    def test_missing_file(self, capsys):
        assert cli.main(["--config", "/nonexistent/run.ini"]) == cli.EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[params]\ng = 9.81\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_IO

    @pytest.mark.parametrize("missing", [[key] for key in PARAMS] + [["T_e", "g"]],
                             ids=PARAMS + ["T_e_and_g"])
    def test_missing_params_key_named_in_field_order(self, tmp_path, capsys, missing):
        """The file lists ``[params]`` in reverse; the first missing key of ``PARAMS`` is named."""
        path = Path(write_config(tmp_path))
        params, rest = path.read_text().split("[mesh]")
        kept = [line for line in reversed(params.splitlines()[1:])
                if line.split(" = ")[0] not in missing]
        path.write_text("\n".join(["[params]", *kept, "[mesh]" + rest]))
        assert cli.main(["--config", str(path), "--check-only"]) == cli.EXIT_IO
        key = next(key for key in PARAMS if key in missing)
        assert capsys.readouterr().err == f"error: missing key {key!r} in section [params]\n"

    @pytest.mark.parametrize("old, new, name", [("[params]", "[parameters]", "'params'"),
                                                (AFFINE, "kind = sampled", "'file'")],
                             ids=["section", "key"])
    def test_missing_section_or_key_named(self, tmp_path, capsys, old, new, name):
        cfg = edit_config(write_config(tmp_path), old, new)
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_IO
        assert capsys.readouterr().err.endswith(f"missing section or key {name}\n")

    def test_firn_diffusion_profile(self, tmp_path):
        """``kind = firn_diffusion`` reads its two tables; D is continuous at z_eddy = 0.5."""
        eddy, co2 = tmp_path / "eddy.csv", tmp_path / "co2.csv"
        eddy.write_text("0,0.3\n1,0.1\n")
        co2.write_text("0,1\n1,0\n")
        cfg = edit_config(write_config(tmp_path, d_kind="constant"), "kind = constant\nvalue = 1.0",
                          "kind = firn_diffusion\nz_eddy = 0.5\nr_alpha = 0.8\nc_f = 0.5\n"
                          f"d_eddy_file = {eddy}\nd_co2_air_file = {co2}")
        z = np.array([0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0])
        d_eddy, d_co2 = 0.3 - 0.2 * z, 1.0 - z
        expected = np.where(z <= 0.5, d_eddy + 0.8 * 0.5 * d_co2, 0.8 * d_co2)
        np.testing.assert_allclose(cli.load_config(cfg).d_profile(z), expected,
                                   rtol=1e-15, atol=1e-15)
        assert cli.main(["--config", cfg, "--check-only",
                         "--out", str(tmp_path / "r.txt")]) == cli.EXIT_OK
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == cli.EXIT_OK

    def test_upper_bound_inf_means_no_cap(self, tmp_path):
        """The model refuses an infinite bound; the INI's ``inf`` reads as no bound at all."""
        cfg = edit_config(write_config(tmp_path), AFFINE, AFFINE + "\nupper_bound = inf")
        assert cli.load_config(cfg).f_profile.upper_bound is None

    def test_load_roundtrip(self, tmp_path):
        config = cli.load_config(write_config(tmp_path))
        assert config.mesh.n == 11
        assert config.dt == "auto"
        assert config.c_D == 1.0

    @pytest.mark.parametrize("old, new, table", [
        ("z_F = 1.0", "z_F = -1", None),
        ("T = 250.0", "T = nan", None),
        ("n = 11", "file = {table}", "0.0\n0.5\n2.0\n"),
        ("kind = ramp", "kind = file\nfile = {table}", "0.0,1.0\n1.0,2.0\n"),
        (AFFINE, "kind = sampled\nfile = {table}", "0.0,1.0\n0.5,0.5\n"),
        ("[params]", "garbage\n[params]", None),
        ("g = 9.81", "g = 9.81\ng = 1.0", None),
        ("amplitude = 1.0", "amplitude = nan", None),
        ("kind = ramp", "kind = file\nfile = {table}", "0.0,0.0\n0.5,nan\n1.0,1.0\n"),
        ("M_alpha = 0.04", "M_alpha = abc", None),
        (AFFINE, "kind = quadratic", None),
        ("kind = ramp", "kind = sine", None),
        (AFFINE, "kind = sampled\nfile = {table}", "0.0\n1.0\n"),
        ("kind = ramp", "kind = file\nfile = {table}", "0.0\n1.0\n"),
        (AFFINE, "kind = sampled\nfile = {table}", "0.0,1.0,5.0\n1.0,0.0,5.0\n"),
        ("intercept = 1.0", "intercept = nan", None),
        (AFFINE, "kind = sampled\nfile = {table}", "0.0,1.0\n0.5,nan\n1.0,0.0\n"),
        ("M_alpha = 0.04\ng = 9.81", "M_alpha = 1e300\ng = 1e300", None),
        ("R = 8.314\nT = 250.0", "R = 1e-200\nT = 1e-200", None),
        ("n = 11", "n = abc", None),
        ("n = 11", "n = abc\nfile = {table}", "0.0\n0.5\n1.0\n"),
        ("dt = auto", "dt = auto\nstride = 1.5", None),
        ("n = 11", "file = {table}", ""),
        ("n = 11", "file = {table}", "# nodes\n"),
        ("kind = ramp", "kind = file\nfile = {table}", ""),
        ("[params]", "[parameters]", None),
        (AFFINE, "kind = sampled", None),
        (AFFINE, AFFINE + "\nupper_bound = -inf", None),
    ], ids=["negative_z_F", "nan_T", "mesh_off_unit", "atmosphere_nonzero_at_0",
            "sampled_short", "no_section_header", "duplicate_key", "nan_amplitude",
            "atmosphere_file_nan", "bad_float", "unknown_profile_kind",
            "unknown_atmosphere_kind", "sampled_one_column", "atmosphere_file_one_column",
            "sampled_three_columns", "nan_intercept", "sampled_file_nan",
            "overflowing_params", "underflowing_params", "n_not_an_integer",
            "n_not_an_integer_beside_file",
            "stride_not_an_integer", "mesh_file_empty", "mesh_file_comment_only",
            "atmosphere_file_empty",
            "missing_params_section", "sampled_without_file", "upper_bound_minus_inf"])
    def test_rejected_input_exit_1(self, tmp_path, capsys, old, new, table):
        """A file the INI parser or a model constructor rejects on reading exits 1, on one line."""
        table_path = tmp_path / "table.csv"
        if table is not None:
            table_path.write_text(table)
        cfg = edit_config(write_config(tmp_path), old, new.format(table=table_path))
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if table in ("", "# nodes\n"):  # no numpy warning either
            assert err.endswith(f"{table_path} contains no data\n")


class TestInvalidOverrides:
    """Invalid values exit 1 before any solve, even when they are zero."""

    @staticmethod
    def refused(tmp_path, capsys, *flags, **config):
        out = tmp_path / "o.csv"
        code = cli.main(["--config", write_config(tmp_path, **config), "--out", str(out),
                         *flags])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_stride_zero(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--stride", "0")

    def test_stride_negative(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--stride", "-1")

    def test_n_zero(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--n", "0")

    def test_dt_zero(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--dt", "0")

    def test_dt_negative(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--dt", "-0.001", "--force")

    def test_dt_zero_in_config_file(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, dt="0")

    def test_dt_above_unit_interval(self, tmp_path, capsys):
        self.refused(tmp_path, capsys, "--dt", "2", "--force")

    @pytest.mark.parametrize("flags", [(), ("--force", "--dt", "0.001")],
                             ids=["plain", "forced"])
    def test_c_D_outside_open_interval(self, tmp_path, capsys, flags):
        self.refused(tmp_path, capsys, *flags, c_D=5.0)


class TestUsage:
    """A usage error exits 1 after argparse's usage message, as a bad config value does."""

    @pytest.mark.parametrize("flags, message", [
        (None, "the following arguments are required: --config"),
        (("--bogus",), "unrecognized arguments: --bogus"),
        (("--n", "abc"), "invalid literal for int() with base 10: 'abc'"),
        (("--stride", "1.5"), "invalid literal for int() with base 10: '1.5'"),
    ], ids=["no_arguments", "unknown_flag", "n_not_an_integer", "stride_not_an_integer"])
    def test_usage_error_exit_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o.csv"
        argv = [] if flags is None else ["--config", write_config(tmp_path), "--out", str(out),
                                         *flags]
        assert cli.main(argv) == cli.EXIT_IO
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: firngas")

    def test_process_exit_status(self, tmp_path):
        """``python -m firngas.cli`` exits with the code ``main`` returns: 1, 2 and 0."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        refused = tmp_path / "refused"
        refused.mkdir()
        cases = [
            (["--config", write_config(tmp_path), "--bogus"], cli.EXIT_IO),
            (["--config", write_config(refused, f_kind="constant", f_value=-1.0),
              "--check-only"], cli.EXIT_ADMISSIBILITY),
            (["--config", write_config(tmp_path), "--check-only"], cli.EXIT_OK),
        ]
        for argv, code in cases:
            result = subprocess.run([sys.executable, "-m", "firngas.cli", *argv], env=env,
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == code, (argv, result.stderr)


class TestCmdRun:
    def test_zero_atmosphere_writes_zero_csv(self, tmp_path):
        cfg = write_config(tmp_path, f_kind="constant", f_value=1.0,
                           d_kind="constant", atmosphere="zero")
        out = tmp_path / "traj.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(data[:, 1:] == 0.0)

    def test_report_embedded_as_comments(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        text = out.read_text()
        assert "# dt_max:" in text
        assert text.endswith("\n")

    def test_negative_profile_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f_kind="constant", f_value=-1.0)
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == \
            cli.EXIT_ADMISSIBILITY
        assert "(5)" in capsys.readouterr().err

    def test_dt_above_bound_exit_2_quotes_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt="0.5")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == \
            cli.EXIT_ADMISSIBILITY
        assert "dt_max" in capsys.readouterr().err

    def test_auto_step_capped_at_unit_interval(self, tmp_path, capsys):
        """T_e = 0.001 gives dt_max = 4.2; "auto" takes the whole interval in one step."""
        cfg = write_config(tmp_path, T_e=0.001)
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1"]
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_OK
        assert "dt_max: 4.1" in capsys.readouterr().out

    def test_failed_set_up_leaves_no_file(self, tmp_path, capsys):
        """D = 1e308 overflows the stiffness entries in assembly, before the first level is written."""
        cfg = constant_d_config(tmp_path, "1e308")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out), "--force", "--dt", "0.01"]) == \
            cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()

    @pytest.mark.parametrize("flags, code", [
        (["--check-only"], cli.EXIT_ADMISSIBILITY),
        ([], cli.EXIT_ADMISSIBILITY),
        (["--force"], cli.EXIT_OK),
    ], ids=["check_only", "run", "forced"])
    def test_diffusivity_vanishing_between_nodes(self, tmp_path, capsys, flags, code):
        """D = 0 at z = 0.5049, a point of the analysis grid but not a node, is assumption (6)."""
        out = tmp_path / "o.csv"
        assert cli.main(["--config", vanishing_d_config(tmp_path, "0"), "--out", str(out),
                         *flags]) == code
        if code == cli.EXIT_ADMISSIBILITY:
            assert capsys.readouterr().err == ("admissibility failure: assumption (6) violated: "
                                               "diffusivity vanishes inside [0, 1)\n")
            assert not out.exists()
        else:  # the forced fallback runs on the node samples, without a report
            assert not out.read_text().startswith("#")

    @pytest.mark.parametrize("flags, code", [
        (["--check-only"], cli.EXIT_ADMISSIBILITY),
        ([], cli.EXIT_ADMISSIBILITY),
        (["--force"], cli.EXIT_OK),
    ], ids=["check_only", "run", "forced"])
    def test_uncertified_step_exit_2(self, tmp_path, capsys, flags, code):
        """The step certificate refuses a plan that passes ``dt_max``; the forced run reports it."""
        out = tmp_path / "o.csv"
        with pytest.warns(UserWarning, match="decay rate lam"):
            assert cli.main(["--config", uncertified_step_config(tmp_path), "--out", str(out),
                             *flags]) == code
        if code == cli.EXIT_ADMISSIBILITY:
            assert capsys.readouterr().err == (
                "admissibility failure: assumption (PD) violated: step matrix Mf + T_e dt C not "
                "certified positive definite for dt in (0, 0.20193001263336097]\n")
            assert not out.exists()
        else:
            report = dict(line[2:].split(": ") for line in out.read_text().splitlines()
                          if line.startswith("# "))
            assert report["dt_max"] == "0.22436668070373439"
            assert (report["pd_V"], report["min_sym_eig_V"]) == ("false", "-0.0010082460122283659")

    def test_step_count_above_limit_exit_3(self, tmp_path, capsys):
        """K = ceil(1/dt) of about 1.3e201 is refused before the output file opens."""
        cfg = huge_d_config(tmp_path)
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: time step")
        assert not out.exists()
        config = cli.load_config(cfg)
        with pytest.raises(ValidationError, match="limit"):
            firngas.run(config.mesh, config.f_profile, config.d_profile, config.context,
                        config.atmosphere)
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_OK
        assert "dt_max: 8.3333333333309605e-202\n" in capsys.readouterr().out

    @pytest.mark.parametrize("n, stride", [(257, "1"), (258, "1"), (258, "4")],
                             ids=["propagator", "substitution", "substitution_strided"])
    def test_overflowing_level_exit_3(self, tmp_path, capsys, n, stride):
        """v = 500 at README scale amplifies the surface value about 1,000-fold: 1e306 overflows.

        Both sides of the size rule exit 3 at the first level that is not
        finite, with one message, and the rows before it stay in the CSV.
        Nothing silences numpy: a stride steps on from the non-finite level
        before the writer sees it, and an overflow warning fails the test.
        """
        cfg = edit_config(write_config(tmp_path, z_F=80.0, T_e=30.0, n=n, dt="0.3"),
                          "\nv = 0.5\n", "\nv = 500.0\n")
        cfg = edit_config(cfg, "amplitude = 1.0", "amplitude = 1e306")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out), "--force",
                         "--stride", stride]) == cli.EXIT_NUMERICAL
        assert re.fullmatch(r"numerical failure: singular matrix: entry \d+ of the level at "
                            r"t = \S+ is not finite\n", capsys.readouterr().err)
        rows = [row for row in out.read_text().splitlines() if not row.startswith("#")]
        assert rows[0].startswith("t,0,") and rows[1].startswith("0,0,")
        assert all(row.count("inf") == row.count("nan") == 0 for row in rows)

    @pytest.mark.parametrize("make_config, dt, above_bound", [
        (lambda tmp_path: write_config(tmp_path, z_F=80.0, T_e=30.0, n=2001), "1e-9", False),
        (huge_d_config, "1e-8", True),
    ], ids=["readme_n2001", "above_bound"])
    def test_explicit_step_above_limit_exit_3(self, tmp_path, capsys, monkeypatch, make_config,
                                              dt, above_bound):
        """A ``--dt`` past the step limit is refused before any check or assembly.

        A step also above ``dt_max`` is refused for its step count, exit 3,
        not as a step above the bound.  ``--check-only`` reports at the auto
        step and ignores ``--dt``.
        """
        cfg = make_config(tmp_path)
        out = tmp_path / "o.csv"
        integrals = count_calls(monkeypatch, analysis, "_inverse_integral")
        assemblies = count_calls(monkeypatch, assembly, "assemble_system")
        assert cli.main(["--config", cfg, "--out", str(out), "--dt", dt]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: time step ")
        assert err.endswith("more than the limit of 10,000,000\n")
        assert integrals == [] and assemblies == [] and not out.exists()
        assert cli.main(["--config", cfg, "--check-only", "--dt", dt]) == cli.EXIT_OK
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert (float(report["dt_max"]) < float(dt)) == above_bound

    def test_diffusivity_tiny_between_nodes(self, tmp_path):
        """D = 1e-200 there passes; the continuity constant overflows to inf in the report."""
        cfg = vanishing_d_config(tmp_path, "1e-200")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        assert "# continuity_C: inf\n" in out.read_text()

    def test_force_overrides(self, tmp_path):
        cfg = write_config(tmp_path, dt="0.5")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out), "--force"]) == cli.EXIT_OK
        assert out.exists()

    def test_byte_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["--config", cfg, "--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(["--config", cfg, "--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_stride(self, tmp_path):
        cfg = write_config(tmp_path)
        full, strided = tmp_path / "full.csv", tmp_path / "strided.csv"
        cli.main(["--config", cfg, "--out", str(full)])
        cli.main(["--config", cfg, "--out", str(strided), "--stride", "25"])
        assert len(strided.read_text().splitlines()) < len(full.read_text().splitlines())

    def test_long_run_at_readme_scale(self, tmp_path):
        cfg = write_config(tmp_path, z_F=80.0, T_e=30.0)
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out), "--n", "5",
                         "--dt", "1e-4"]) == cli.EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 10001  # header plus K+1 levels

    def test_mesh_file(self, tmp_path):
        """A node file of the uniform nodes reports as ``n = 11``; a graded one runs."""
        nodes = tmp_path / "nodes.csv"
        cfg = write_config(tmp_path)
        reports = [tmp_path / "n.txt", tmp_path / "file.txt"]
        assert cli.main(["--config", cfg, "--check-only", "--out", str(reports[0])]) == cli.EXIT_OK
        nodes.write_text("".join(f"{z:.17g}\n" for z in np.linspace(0.0, 1.0, 11)))
        edit_config(cfg, "n = 11", f"file = {nodes}")
        assert cli.main(["--config", cfg, "--check-only", "--out", str(reports[1])]) == cli.EXIT_OK
        assert reports[1].read_bytes() == reports[0].read_bytes()

        graded = [0.0, 0.1, 0.25, 0.45, 0.7, 1.0]
        nodes.write_text("".join(f"{z:.17g}\n" for z in graded))
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        header = next(ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
        assert [float(z) for z in header.split(",")[1:]] == graded

    def test_two_column_mesh_file_exit_1(self, tmp_path, capsys):
        """A mesh file with more than one column exits 1, naming the shape it read."""
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0.0,0.0\n0.5,0.5\n1.0,1.0\n")
        cfg = edit_config(write_config(tmp_path), "n = 11", f"file = {nodes}")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out), "--force"]) == cli.EXIT_IO
        assert "(3, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_mesh_file_exit_1(self, tmp_path, capsys):
        """A one-row mesh file has three columns, not three nodes."""
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0,0.5,1\n")
        cfg = edit_config(write_config(tmp_path), "n = 11", f"file = {nodes}")
        out = tmp_path / "o.csv"
        assert cli.main(["--config", cfg, "--out", str(out)]) == cli.EXIT_IO
        assert "(1, 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_two_node_mesh_file_exit_1(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("0.0\n1.0\n")
        cfg = edit_config(write_config(tmp_path), "n = 11", f"file = {nodes}")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv")]) == cli.EXIT_IO
        assert "at least 3 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--check-only",), ()], ids=["check_only", "run"])
    def test_output_in_missing_directory_exit_1(self, tmp_path, capsys, flags):
        """The output file cannot be opened: ``main`` reports the ``OSError`` and exits 1."""
        out = tmp_path / "missing" / "o.csv"
        assert cli.main(["--config", write_config(tmp_path), "--out", str(out),
                         *flags]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.parent.exists()

    def test_n_override(self, tmp_path):
        cfg = write_config(tmp_path, n=11)
        out = tmp_path / "o.csv"
        cli.main(["--config", cfg, "--out", str(out), "--n", "6"])
        header = [ln for ln in out.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert len(header.split(",")) == 7  # t plus 6 node columns


class TestCmdCheck:
    def test_constant_profiles_report_B0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f_kind="constant", f_value=1.0, d_kind="constant")
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        b0 = [ln for ln in out.splitlines() if ln.startswith("B0:")][0]
        assert float(b0.split(":")[1]) == pytest.approx(0.5, abs=1e-6)

    def test_no_trajectory_emitted(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        report_path = tmp_path / "report.txt"
        assert cli.main(["--config", cfg, "--check-only",
                         "--out", str(report_path)]) == cli.EXIT_OK
        assert "t," not in report_path.read_text()

    def test_admissibility_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f_kind="constant", f_value=-1.0)
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_ADMISSIBILITY

    def test_dt_and_force_ignored(self, tmp_path, capsys):
        """The report is the unforced auto step's: ``--dt``, above or below ``dt_max``, and
        ``--force`` change nothing, and a config a check refuses still exits 2."""
        cfg = write_config(tmp_path)
        reports = {}
        for name, flags in [("plain", []), ("above_bound", ["--dt", "0.5"]),
                            ("below_bound", ["--dt", "0.001"])]:
            reports[name] = tmp_path / f"{name}.txt"
            assert cli.main(["--config", cfg, "--check-only", "--out", str(reports[name]),
                             *flags]) == cli.EXIT_OK
        assert float(dict(line.split(": ") for line in
                          reports["plain"].read_text().splitlines())["dt_max"]) < 0.5
        assert {path.read_bytes() for path in reports.values()} == {reports["plain"].read_bytes()}
        (tmp_path / "refused").mkdir()
        refused = write_config(tmp_path / "refused", f_kind="constant", f_value=-1.0)
        assert cli.main(["--config", refused, "--check-only", "--force"]) == \
            cli.EXIT_ADMISSIBILITY
        assert "(5)" in capsys.readouterr().err

    @pytest.mark.parametrize("n, code, message", [
        ("101", cli.EXIT_ADMISSIBILITY, "assumption (9)"),
        ("2002", cli.EXIT_ADMISSIBILITY, "assumption (9)"),
    ])
    def test_error_order(self, tmp_path, capsys, n, code, message):
        """The (9) check runs after the step bound and before the PD verdicts, at any size."""
        cfg = continuity_failure_config(tmp_path)
        assert cli.main(["--config", cfg, "--check-only", "--n", n]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code", [
        (["--check-only"], cli.EXIT_ADMISSIBILITY),
        (["--force"], cli.EXIT_ADMISSIBILITY),  # an auto step needs the failed step bound
        (["--force", "--dt", "0.01"], cli.EXIT_OK),
    ], ids=["check_only", "forced_auto", "forced_dt"])
    def test_pore_fraction_negative_between_nodes_exit_2(self, tmp_path, capsys, flags, code):
        """f dips below 0 between the nodes 0.5 and 0.6: the step bound's min of f refuses it."""
        table = tmp_path / "f.csv"
        table.write_text("0,1\n0.52,0.5\n0.55,-0.1\n0.58,0.4\n1,0\n")
        cfg = edit_config(write_config(tmp_path), AFFINE, f"kind = sampled\nfile = {table}")
        out = tmp_path / "trajectory.csv"
        assert cli.main(["--config", cfg, "--out", str(out), *flags]) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_OK:
            assert err == "" and out.read_text().startswith("t,")
        else:
            assert "(5) violated: pore fraction not strictly positive away from the bottom" in err

    def test_finite_inverse_integral_with_positive_bottom(self, tmp_path, capsys):
        """D = 1 - 0.999999 z has D(1) > 0 and the finite int 1/D = -ln(1e-6) / 0.999999."""
        cfg = write_config(tmp_path, d_slope=-0.999999)
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_OK
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert report["I_D_divergent"] == "false"
        assert float(report["I_D"]) == pytest.approx(-np.log(1e-6) / 0.999999, rel=1e-5)

    def test_readme_config_past_dense_size(self, tmp_path, capsys):
        """n = 5001 certifies all seven matrices; only B, which vanishes as f(1) = 0, fails."""
        cfg = write_config(tmp_path, z_F=80.0, T_e=30.0)
        assert cli.main(["--config", cfg, "--check-only", "--n", "5001"]) == cli.EXIT_OK
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        verdicts = {key: value for key, value in report.items() if key.startswith("pd_")}
        assert verdicts == {f"pd_{name}": "false" if name == "B" else "true"
                            for name in ("M", "Mf", "Kf", "A", "S", "B", "V")}

    def test_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cli.main(["--config", cfg, "--check-only", "--out", str(a)])
        cli.main(["--config", cfg, "--check-only", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestCmdOracleCompare:
    def test_smooth_profiles_pass(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "oracle.csv"
        assert cli.main(["--config", cfg, "--oracle-compare",
                         "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("kind,")
        assert any(ln.startswith("Mf,") for ln in lines)
        assert any(ln.startswith("# pd_M: true") for ln in lines)

    def test_constant_weight_at_rounding_level(self, tmp_path):
        cfg = write_config(tmp_path, f_kind="constant", f_value=1.0, d_kind="constant")
        out = tmp_path / "oracle.csv"
        assert cli.main(["--config", cfg, "--oracle-compare",
                         "--out", str(out)]) == cli.EXIT_OK
        mf = [ln for ln in out.read_text().splitlines() if ln.startswith("Mf,")][0]
        assert float(mf.split(",")[1]) <= 1e-13

    @pytest.mark.parametrize("n", [201, 1001])
    def test_exact_stiffness_at_rounding_level_relative_to_its_band(self, tmp_path, capsys, n):
        """S is exact for the affine D of the README config, so its deviation is rounding.

        It exceeds ``1e-13`` in absolute terms from n = 201 on; the floor scales with the band.
        """
        cfg = write_config(tmp_path, z_F=80.0, T_e=30.0)
        assert cli.main(["--config", cfg, "--oracle-compare", "--n", str(n)]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        stiffness = [ln for ln in out.splitlines() if ln.startswith("S,")]
        assert len(stiffness) == 1 and stiffness[0].endswith(",nan,1,true")
        assert float(stiffness[0].split(",")[1]) > 1e-13
        assert err == ""

    def test_missed_band_names_the_kinds(self, tmp_path, capsys):
        """D drops tenfold over 1e-4 between nodes: the orders of A and S fall to about 0.4."""
        table = tmp_path / "d.csv"
        table.write_text("0,1\n0.52,1\n0.5201,0.1\n1,0.05\n")
        cfg = edit_config(write_config(tmp_path), "[profile.D]\n" + AFFINE,
                          f"[profile.D]\nkind = sampled\nfile = {table}")
        assert cli.main(["--config", cfg, "--oracle-compare"]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        failing = [ln.split(",")[0] for ln in out.splitlines() if ln.endswith(",false")]
        assert failing == ["A", "S"]
        assert err == "numerical failure: observed order outside its band for A, S\n"

    def test_deviations_on_uniform_meshes_of_the_node_count(self, tmp_path):
        """A mesh file sets only n for the deviation rows; the PD lines use its nodes."""
        cfg = write_config(tmp_path)
        uniform, graded = tmp_path / "uniform.csv", tmp_path / "graded.csv"
        assert cli.main(["--config", cfg, "--oracle-compare", "--out", str(uniform)]) == cli.EXIT_OK
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("".join(f"{z:.17g}\n" for z in np.linspace(0.0, 1.0, 11) ** 2))
        edit_config(cfg, "n = 11", f"file = {nodes}")
        assert cli.main(["--config", cfg, "--oracle-compare", "--out", str(graded)]) == cli.EXIT_OK
        lines = uniform.read_text().splitlines(), graded.read_text().splitlines()
        deviations = [[ln for ln in out if not ln.startswith("#")] for out in lines]
        verdicts = [[ln for ln in out if ln.startswith("# pd_")] for out in lines]
        assert deviations[0] == deviations[1]
        assert verdicts[0] != verdicts[1]

    def test_underflowing_z_F_refused_as_by_check_only(self, tmp_path, capsys):
        """z_F**2 underflows to 0, so ``assemble_system`` refuses the diffusion weight 1/z_F**2."""
        cfg = write_config(tmp_path, z_F=1e-200)
        errors = []
        for flag in ("--check-only", "--oracle-compare"):
            assert cli.main(["--config", cfg, flag]) == cli.EXIT_NUMERICAL
            errors.append(capsys.readouterr().err)
        assert errors == ["numerical failure: non-finite matrix entry\n"] * 2


class TestOneAssemblyPerPlan:
    """A run assembles its operators once; every other step matrix is derived from them.

    The PD verdicts are derived when the report is read: once per CLI run, never by ``firngas.run``.
    """

    @pytest.mark.parametrize("flags", [[], ["--dt", "0.003"], ["--force", "--dt", "0.5"],
                                       ["--check-only"]],
                             ids=["auto", "user_dt", "forced_dt", "check_only"])
    def test_cli(self, tmp_path, monkeypatch, flags):
        cfg = write_config(tmp_path)
        out = tmp_path / "o.csv"
        calls = count_calls(monkeypatch, assembly, "assemble_system")
        verdicts = count_calls(monkeypatch, analysis, "check_pd_all")
        assert cli.main(["--config", cfg, "--out", str(out), *flags]) == cli.EXIT_OK
        assert len(calls) == len(verdicts) == 1
        if flags[:1] == ["--dt"] or not flags:  # both runs end on a shortened step
            times = [float(ln.split(",")[0]) for ln in out.read_text().splitlines()
                     if not ln.startswith(("#", "t,"))]
            assert times[-1] - times[-2] < times[1] - times[0]

    def test_library_run(self, tmp_path, monkeypatch):
        config = cli.load_config(write_config(tmp_path))
        clear_plan_slot(monkeypatch)  # a kept plan would assemble nothing
        calls = count_calls(monkeypatch, assembly, "assemble_system")
        verdicts = count_calls(monkeypatch, analysis, "check_pd_all")
        firngas.run(config.mesh, config.f_profile, config.d_profile, config.context,
                    config.atmosphere)
        assert len(calls) == 1
        assert not verdicts

    @pytest.mark.parametrize("make_config", [
        continuity_failure_config,
        lambda tmp_path: edit_config(write_config(tmp_path, T_e=0.001), AFFINE,
                                     AFFINE + "\nupper_bound = 0.5"),  # f fails (5)
    ], ids=["continuity", "capped_f"])
    def test_forced_past_failed_check(self, tmp_path, monkeypatch, make_config):
        """A forced run past a failed check computes the step bound at most once, and assembles once."""
        cfg = make_config(tmp_path)
        assemblies = count_calls(monkeypatch, assembly, "assemble_system")
        bounds = count_calls(monkeypatch, analysis, "_step_bound")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv"), "--force"]) == \
            cli.EXIT_OK
        assert len(assemblies) == 1
        assert len(bounds) <= 1


# Configs that every caller refuses, with the exit code the CLI gives them.
REFUSED = {
    "continuity": (continuity_failure_config, cli.EXIT_ADMISSIBILITY),
    "cond_WI": (strongly_degenerate_d_config, cli.EXIT_NUMERICAL),
    "vanishing_d": (lambda tmp_path: vanishing_d_config(tmp_path, "0"), cli.EXIT_ADMISSIBILITY),
    "dt_above_bound": (lambda tmp_path: write_config(tmp_path, dt="0.5"), cli.EXIT_ADMISSIBILITY),
    "overflowing_ratio": (overflowing_ratio_config, cli.EXIT_ADMISSIBILITY),
}


class TestLibraryParity:
    """``firngas.run`` refuses exactly what the CLI refuses, and ``force`` runs both."""

    @pytest.mark.parametrize("name", REFUSED)
    def test_refused_alike(self, tmp_path, name):
        make_config, code = REFUSED[name]
        cfg = make_config(tmp_path)
        out = str(tmp_path / "o.csv")
        config = cli.load_config(cfg)
        args = (config.mesh, config.f_profile, config.d_profile, rescale(config.params),
                config.atmosphere, config.dt)
        assert cli.main(["--config", cfg, "--out", out]) == code
        with pytest.raises(FirngasError) as refused:
            firngas.run(*args, c_D=config.c_D)
        admissibility = isinstance(refused.value, (AssumptionError, TimeStepError))
        assert code == (cli.EXIT_ADMISSIBILITY if admissibility else cli.EXIT_NUMERICAL)

        assert cli.main(["--config", cfg, "--out", out, "--force"]) == cli.EXIT_OK
        assert firngas.run(*args, force=True, c_D=config.c_D).times[-1] == 1.0

    @pytest.mark.parametrize("dt", ["auto", 0.01])
    def test_c_D_refused_under_force(self, tmp_path, dt):
        config = cli.load_config(write_config(tmp_path))
        with pytest.raises(ValidationError, match="c_D"):
            firngas.run(config.mesh, config.f_profile, config.d_profile, config.context,
                        config.atmosphere, dt, force=True, c_D=5.0)

    def test_dt_above_unit_interval_refused(self, tmp_path):
        """A ``dt`` above 1 is refused as such, not as a step above ``dt_max``."""
        config = cli.load_config(write_config(tmp_path))
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            firngas.run(config.mesh, config.f_profile, config.d_profile, config.context,
                        config.atmosphere, 2.0)


# Each [params] value in turn at an extreme, and R*T underflowing to 0.
EXTREME_PARAMS = [((name,), value)
                  for name in ("M_alpha", "g", "R", "T", "tau", "lam", "v", "w_air", "z_F", "T_e")
                  for value in ("1e-300", "1e-200", "1e160", "1e300")] + [(("R", "T"), "1e-200")]


@pytest.mark.parametrize("flags", [["--check-only"], [], ["--force", "--dt", "0.5"],
                                   ["--oracle-compare"]],
                         ids=["check_only", "run", "forced", "oracle_compare"])
def test_extreme_parameter_values_exit_cleanly(tmp_path, capsys, flags):
    """Every extreme value runs or fails with a documented code, on at most one stderr line.

    The README config at physical scale (5 nodes, to keep the plain runs
    short); only a ``lam`` input may warn, and only about its range.
    """
    documented = (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_ADMISSIBILITY, cli.EXIT_NUMERICAL)
    failures = []
    for names, value in EXTREME_PARAMS:
        cfg = write_config(tmp_path, z_F=80.0, T_e=30.0, n=5)
        text = Path(cfg).read_text()
        for name in names:
            text = re.sub(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.MULTILINE)
        Path(cfg).write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(["--config", cfg, "--out", str(tmp_path / "o.csv"), *flags])
            except Exception as exc:
                code = f"raised {exc!r}"
        err = capsys.readouterr().err
        unexpected = [str(w.message) for w in caught
                      if names != ("lam",) or "decay rate lam" not in str(w.message)]
        if code not in documented or err.count("\n") > 1 or unexpected:
            failures.append((names, value, code, err, unexpected))
    assert not failures
