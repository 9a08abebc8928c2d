from pathlib import Path

import numpy as np
import pytest

import firngas
from firngas import analysis, assembly, cli
from firngas.errors import AssumptionError, FirngasError, TimeStepError, ValidationError
from firngas.model import rescale

BASE_PARAMS = """\
[params]
M_alpha = 0.04
g = 9.81
R = 8.314
T = 250.0
tau = 0.3
lam = 0.7
v = 0.5
w_air = 0.1
"""


def write_config(tmp_path, f_kind="affine", d_kind="affine", atmosphere="ramp",
                 dt="auto", n=11, f_value=None, f_intercept=1.0, z_F=1.0, T_e=1.0,
                 c_D=1.0, d_slope=-1.0):
    if f_kind == "affine":
        f_section = f"[profile.f]\nkind = affine\nintercept = {f_intercept}\nslope = -1.0\n"
    else:
        f_section = f"[profile.f]\nkind = constant\nvalue = {f_value}\n"
    if d_kind == "affine":
        d_section = f"[profile.D]\nkind = affine\nintercept = 1.0\nslope = {d_slope}\n"
    else:
        d_section = "[profile.D]\nkind = constant\nvalue = 1.0\n"
    text = (BASE_PARAMS + f"z_F = {z_F}\nT_e = {T_e}\n"
            + f"[mesh]\nn = {n}\n[time]\ndt = {dt}\n"
            + f_section + d_section
            + f"[atmosphere]\nkind = {atmosphere}\namplitude = 1.0\n"
            + f"[analysis]\nc_D = {c_D}\n")
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


AFFINE = "kind = affine\nintercept = 1.0\nslope = -1.0"  # f's section, then D's


def edit_config(path, old, new):
    """Replace the first ``old`` in the config file at ``path`` by ``new``."""
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))
    return path


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


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` from now on."""
    calls = []
    function = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestConfig:
    def test_missing_file(self, capsys):
        assert cli.main(["--config", "/nonexistent/run.ini"]) == cli.EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[params]\ng = 9.81\n")
        assert cli.main(["--config", str(path)]) == cli.EXIT_IO

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
    ], ids=["negative_z_F", "nan_T", "mesh_off_unit", "atmosphere_nonzero_at_0",
            "sampled_short", "no_section_header", "duplicate_key", "nan_amplitude",
            "atmosphere_file_nan", "bad_float", "unknown_profile_kind",
            "unknown_atmosphere_kind", "sampled_one_column", "atmosphere_file_one_column",
            "sampled_three_columns", "nan_intercept", "sampled_file_nan",
            "overflowing_params"])
    def test_rejected_input_exit_1(self, tmp_path, capsys, old, new, table):
        """A file the INI parser or a model constructor rejects on reading exits 1."""
        table_path = tmp_path / "table.csv"
        if table is not None:
            table_path.write_text(table)
        cfg = edit_config(write_config(tmp_path), old, new.format(table=table_path))
        assert cli.main(["--config", cfg, "--check-only"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("error:")


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

    @pytest.mark.parametrize("n, code, message", [
        ("101", cli.EXIT_ADMISSIBILITY, "assumption (9)"),
        ("2002", cli.EXIT_ADMISSIBILITY, "assumption (9)"),
    ])
    def test_error_order(self, tmp_path, capsys, n, code, message):
        """The (9) check runs after the step bound and before the PD verdicts, at any size."""
        cfg = continuity_failure_config(tmp_path)
        assert cli.main(["--config", cfg, "--check-only", "--n", n]) == code
        assert message in capsys.readouterr().err

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
