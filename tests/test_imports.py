"""Import-time budget, the production path (no scipy, no oracle) and the exports.

scipy adds about 0.3-0.4 s and 27 MB of resident memory to ``import
firngas.cli``, which would dominate the start-up time and the peak memory of
short runs.  The verification oracle stays off the production path: ``import
firngas`` does not load it, and the report calls no dense eigensolver or
solve.  The import checks run in a fresh interpreter so that other tests'
imports cannot mask or cause a failure.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import firngas
from firngas import analysis, cli
from firngas.model import rescale
from reference import fresh_output, write_config


def firngas_modules():
    """The package and each of its modules."""
    return [firngas] + [importlib.import_module(f"firngas.{info.name}")
                        for info in pkgutil.iter_modules(firngas.__path__)]


def test_package_and_cli_import_without_scipy():
    assert fresh_output("import sys, firngas, firngas.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
                         ) == "[]"


def test_every_export_resolves():
    """A name left in an ``__all__`` after its definition is deleted fails here."""
    missing = [f"{module.__name__}.{name}" for module in firngas_modules()
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_export_has_a_caller():
    """An exported name that no module, benchmark file or README example uses is dead code.

    A use is a ``Name``, an ``Attribute`` or an imported name anywhere in
    ``src/firngas``, ``perfbench`` or a README ``python`` block; the tests
    do not count, so a reference only the tests need lives with the tests.
    """
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    sources = [path.read_text() for folder in (root / "src" / "firngas", root / "perfbench")
               for path in sorted(folder.glob("*.py"))]
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    used = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    unused = [f"{module.__name__}.{name}" for module in firngas_modules()
              for name in getattr(module, "__all__", ())
              if not name.startswith("__") and name not in used]
    assert unused == []


def test_package_import_leaves_oracle_unloaded():
    for module in ("firngas", "firngas.cli"):
        assert fresh_output(f"import sys, {module}; print('firngas.oracle' in sys.modules)"
                             ) == "False", module


def test_oracle_import_leaves_numpy_polynomial_unloaded():
    """The benchmark harness imports the oracle; ``numpy.polynomial`` adds about 1 MB to it."""
    assert fresh_output("import sys, firngas.oracle; "
                         "print('numpy.polynomial' in sys.modules)") == "False"


def test_report_leaves_numpy_ma_unloaded(tmp_path):
    """``numpy.ma`` costs 20-40 ms and about 1 MB to import; the report path does not need it."""
    path = write_config(tmp_path, z_F=80.0, T_e=30.0, n=101)
    assert fresh_output(
        "import sys; from firngas import analysis, cli; from firngas.model import rescale; "
        f"c = cli.load_config({path!r}); "
        "analysis.build_report(c.f_profile, c.d_profile, c.mesh, rescale(c.params), c_D=c.c_D); "
        "print('numpy.ma' in sys.modules)") == "False"


def test_report_path_never_calls_dense_eigensolver(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra called on the report path")

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    path = write_config(tmp_path, z_F=80.0, T_e=30.0, n=101)
    config = cli.load_config(path)
    report = analysis.build_report(config.f_profile, config.d_profile, config.mesh,
                                   rescale(config.params), c_D=config.c_D)
    assert report.pd_verdicts["V"].positive_definite
    assert cli.main(["--config", path, "--check-only"]) == cli.EXIT_OK
    assert "pd_V: true" in capsys.readouterr().out


def test_assumption_errors_raised_only_by_the_analysis():
    """The admissibility checks have one owner: no other module raises ``AssumptionError``."""
    raisers = {path.name for path in Path(firngas.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Raise)
               and re.match(r"raise ([\w.]+\.)?AssumptionError\b", ast.unparse(node))}
    assert raisers == {"analysis.py"}


def test_integer_rule_lives_in_the_model():
    """One module decides what an integer is: only ``model.py`` names ``numbers.Integral``."""
    users = {path.name for path in Path(firngas.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Attribute, ast.ImportFrom))
             and re.search(r"\bIntegral\b", ast.unparse(node))}
    assert users == {"model.py"}


def test_caller_values_converted_only_where_allowed():
    """No module keeps a number rule of its own: ``asarray`` and ``astype`` appear in three.

    ``model.py`` holds the rule (``model._real``), ``assembly.py`` converts node samples that
    ``analysis`` has already checked, and ``oracle.py`` is the independent verifier.  A
    conversion in ``mesh``, ``analysis``, ``cli`` or ``solver`` fails here.
    """
    converters = {path.name for path in Path(firngas.__file__).parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("asarray", "astype")}
    assert converters <= {"model.py", "assembly.py", "oracle.py"}


def test_bands_assembled_only_by_the_assembly():
    """One wiring from node samples to bands: no module but ``assembly.py`` calls a band assembler.

    Every other module takes its bands from ``assembly.assemble_system``.
    """
    assemblers = {f"assemble_{kind}" for kind in ("M", "Mf", "Kf", "A", "S", "B")}
    callers = {path.name for path in Path(firngas.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and ast.unparse(node.func).split(".")[-1] in assemblers}
    assert callers == {"assembly.py"}


def test_numpy_private_modules_stay_behind_one_guarded_import():
    """Only ``solver`` imports from a private NumPy module: ``c_einsum``, with a fallback."""
    private = []
    for path in sorted(Path(firngas.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        guarded = {id(node) for handler in ast.walk(tree) if isinstance(handler, ast.Try)
                   and any(ast.unparse(h.type) == "ImportError" for h in handler.handlers)
                   for node in handler.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(re.match(r"numpy\._", module) for module in modules):
                private.append((path.name, ast.unparse(node), id(node) in guarded))
    assert private == [("solver.py", "from numpy._core.multiarray import c_einsum as _EINSUM",
                        True)]


def test_einsum_fallback_runs_bitwise_as_the_c_function():
    """With the private import failing, ``solver`` steps through ``np.einsum``'s wrapper, same bits."""
    run = ("from firngas import run, solver; from firngas.mesh import build_uniform; "
           "from firngas.model import AtmosphereSeries, CoefficientProfile, RescaledContext; "
           "profile = CoefficientProfile.affine(1.0, -1.0); "
           "context = RescaledContext(T_e=1.0, z_F=1.0, mcoef=0.0, gcoef=1.0, fcoef=1.0); "
           "levels = run(build_uniform(21), profile, profile, context, AtmosphereSeries.ramp()); "
           "print(solver._EINSUM.__name__, hashlib.sha256(levels.interior.tobytes()).hexdigest())")
    fallback = ("import hashlib, numpy._core.multiarray as multiarray; "
                "del multiarray.c_einsum; "  # the guarded import in solver now fails
                + run)
    c_name, c_digest = fresh_output("import hashlib; " + run).split()
    wrapper_name, wrapper_digest = fresh_output(fallback).split()
    assert (c_name, wrapper_name) == ("c_einsum", "einsum")
    assert wrapper_digest == c_digest
