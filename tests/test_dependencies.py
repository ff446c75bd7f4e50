import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sisbox


def test_import_pulls_in_no_scipy():
    # importing scipy.signal alone used to cost ~1 s of every CLI call
    env = dict(os.environ)
    src = str(Path(sisbox.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, sisbox, sisbox.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_library_modules_have_no_unused_imports():
    # __init__ is left out: its imports are the package's re-exports
    unused = []
    for path in sorted(Path(sisbox.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_module_name_has_a_reader():
    # a constant or name bound at module level in a library module that no name
    # or attribute in the library reads is left behind by the change that
    # removed its last reader (__init__ is left out: its names are re-exports)
    package = Path(sisbox.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(name, target.id) for name, tree in trees.items() if name != "__init__.py" for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)]
    assert bound
    assert [f"{name}: {target}" for name, target in bound if target not in read] == []


def test_every_private_function_has_a_caller():
    # a module-level _helper that no name or attribute in the library refers
    # to is dead code left behind by a change that removed its last caller
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(sisbox.__file__).resolve().parent.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    helpers = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert helpers
    assert [f"{name}: {helper}" for name, helper in helpers if helper not in used] == []


def test_fft_calls_pass_no_out_buffer():
    # numpy.fft takes out= only from numpy 2.0, and the package declares numpy >= 1.24,
    # where such a call raises TypeError; the installed numpy cannot show it
    calls = [f"{path.name}:{node.lineno}" for path in sorted(Path(sisbox.__file__).resolve().parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             and "fft." in ast.unparse(node.func) and any(k.arg == "out" for k in node.keywords)]
    assert calls == []


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call: 8-11 ms of every command that reached it;
    # np.random.default_rng imported numpy.random, 6 MB and ~10 ms. After the whole matrix, the
    # numpy modules loaded are those `import numpy` loads, and numpy.fft's
    from sisbox import FrequencyGrid, PiecewiseConstantSpectrum, ShiftCombination, TimeSamples, build_signal
    from sisbox import io as sio

    grid = FrequencyGrid(32, 1024)
    member = ShiftCombination(build_signal("shannon", grid), TimeSamples(np.arange(-2, 3), np.arange(1.0, 6.0), 2))
    sio.write_samples(member.integer_samples(grid, 512), tmp_path / "samples.csv")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, -0.125, 1.0), (-0.125, 0.5, 2.0)]),
                                 tmp_path / "member.json")
    sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], tmp_path / "halves.json")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), tmp_path / "low.json")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)]), tmp_path / "high.json")
    commands = [*(["analyze", name] for name in ("shannon", "blhat", "ex2", "ex3", "hat")),
                *(["membership", "ex2", "--theorem", t] for t in ("2", "5", "sz04")),
                ["membership", "member.json", "--theorem", "1", "--space", "shannon"],
                ["reconstruct", "--space", "shannon", "--samples", "samples.csv", "--out", "rec.csv"],
                ["decompose", "--space", "shannon", "--partition", "halves.json", "--out-prefix", "comp"],
                ["determine", "--space", "shannon", "--functions", "low.json,high.json", "--out-prefix", "det"]]
    env = dict(os.environ)
    src = str(Path(sisbox.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import contextlib, io, sys, numpy; core = set(sys.modules); from sisbox.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(main(argv), file=sys.stderr)\n"
            "print('numpy.ma' in sys.modules, sorted(m for m in set(sys.modules) - core\n"
            "      if m.split('.')[0] == 'numpy' and m.split('.')[:2] != ['numpy', 'fft']))")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    assert done.stderr.split() == [*"0000000", "2", *"0000"]  # ex2 fails the sufficient pair
    assert done.stdout.strip() == "False []"


def test_certificates_at_default_probes_leave_numpy_random_unloaded():
    # the probe offsets are integer arithmetic: no certificate loads numpy.random
    env = dict(os.environ)
    src = str(Path(sisbox.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from sisbox import *\n"
            "grid, fine = FrequencyGrid(32, 1024), FrequencyGrid(64, 1024)\n"
            "reports = [check_sz99(build_signal('blhat', grid), grid), check_theorem2(build_signal('ex2', fine), fine),\n"
            "           check_theorem5(build_signal('hat', grid), grid), check_theorem5(build_signal('ex2', fine), fine)]\n"
            "print([r.passed for r in reports], 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[True, True, True, True] False"
