"""Byte-for-byte comparison of sisbox's outputs under two source trees.

    python bench/identical.py PARENT_SRC CHANGE_SRC

Each SRC is a ``src`` directory (this checkout's, or another commit's).  A worker
process per tree, in a fresh interpreter with BLAS on one thread, imports sisbox from
SRC and dumps its outputs by key:

* at the grids (32, 1024), (64, 1024) and (64, 4096), for each catalog signal, a
  combination over hat, a combination over that combination and a time kernel on
  [0, 1.7]: the ``fibers`` record and its profile, ``check_sz99``, theorems 2 and 5, sz04,
  ``build_space`` (unchecked) with the kernel's rows, samples and values, two seeded
  members' samples, exact time values and reconstructions, and ``construct_s_from_f``;
  values at 1,000 uniform points in [-8, 8] and at 7 others;
* at the same grids, ``decompose`` of the shannon and hat spaces into halves,
  ``check_determining_set`` of shannon by its low and high halves, and theorem 1
  (``induced_subspace``) of a seeded interval member of shannon;
* the text ``write_piecewise_spectrum`` writes for five interval spectra (shannon,
  [0, 300), a member whose interval crosses 0, ex2 at ``n_max`` 47 and 60) and the
  pieces read back from each file;
* the 13 commands of perfbench's cli_mix workload (``cli_matrix`` of
  ``perfbench/workloads.py``, loaded read-only) at one seed, each in a fresh interpreter
  on the inputs the same tree writes (``write_cli_inputs``): the inputs, each command's
  exit code, stdout and stderr, its ``--json`` report less ``timing_s``, and every file
  it writes.

A float is dumped exactly (``float.hex``), an array as the SHA-256 of its dtype, shape
and bytes, an error as its type and message.  Every key whose dumps differ, or that one
dump lacks, is printed; the exit status is 1 if there is any, else 0.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from cli import load_workloads
from harness import BLAS_PINS

GRIDS = [(32, 1024), (64, 1024), (64, 4096)]
SEED = 5101  # the probe seed of every check, and the members' and the CLI's seed


def _leaf(obj) -> str:
    import numpy as np

    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return f"{a.dtype.str}{a.shape} {hashlib.sha256(a.tobytes()).hexdigest()}"
    if obj is None or isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, (bool, np.bool_)):  # before int: a bool is an int
        return repr(bool(obj))
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (complex, np.complexfloating)):
        return f"{complex(obj).real.hex()} {complex(obj).imag.hex()}"
    raise TypeError(f"no dump of {type(obj).__name__}")


def flatten(out: dict, key: str, obj) -> None:
    """out[key/...] = the exact text of each leaf of obj."""
    import sisbox

    if isinstance(obj, dict):
        for k, v in obj.items():
            flatten(out, f"{key}/{k}", v)
    elif isinstance(obj, (list, tuple)):
        out[f"{key}/len"] = str(len(obj))
        for i, v in enumerate(obj):
            flatten(out, f"{key}/{i}", v)
    elif isinstance(obj, sisbox.Signal):
        out[key] = type(obj).__name__
    elif isinstance(obj, sisbox.signals.PeriodizedProfile):
        for name in ("starts", "lengths", "shifts", "coeffs", "exact", "z", "abs_sum", "sq_sum"):
            flatten(out, f"{key}/{name}", getattr(obj, name))
    elif isinstance(obj, slice):
        out[key] = f"{obj.start}:{obj.stop}"
    elif isinstance(obj, BaseException):
        out[key] = f"{type(obj).__name__}: {obj}"
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            flatten(out, f"{key}/{field.name}", getattr(obj, field.name))
    else:
        out[key] = _leaf(obj)


def _signals(grid, workloads) -> dict:
    import numpy as np
    import sisbox

    hat, coeffs = sisbox.build_signal("hat", grid), workloads.member_coefficients(SEED, 2)
    out = {name: sisbox.build_signal(name, grid) for name in sisbox.catalog_names()}
    out["comb_hat"] = sisbox.ShiftCombination(hat, coeffs)
    out["comb_comb_hat"] = sisbox.ShiftCombination(out["comb_hat"], sisbox.TimeSamples(np.array([-3, 0, 2]),
                                                                                        np.array([0.5, 1, -2j]), 3))
    out["kernel_0_1.7"] = sisbox.TimeKernel((0.0, 1.7), lambda x: np.sin(np.pi * np.asarray(x) / 1.7) ** 2,
                                            integrable_spectrum=True)
    return out


def library_dump(grids, out: dict) -> None:
    """The in-process outputs at each grid (see the module docstring)."""
    import numpy as np
    import sisbox
    from sisbox import io as sio

    workloads = load_workloads()
    points = {"uniform": np.linspace(-8.0, 8.0, 1000), "odd": np.array([-3.3, -0.5, 0.0, 1e-9, 0.25, 2.75, 40.5])}

    def run(key, call):
        try:
            result = call()
        except Exception as exc:  # a refusal is an output too
            result = exc
        flatten(out, key, result)
        return None if isinstance(result, Exception) else result

    for kn in grids:
        grid = sisbox.FrequencyGrid(*kn)
        for name, sig in _signals(grid, workloads).items():
            at = f"{kn[0]}x{kn[1]} {name}"
            if fib := run(f"{at} fibers", lambda: sisbox.spectral.fibers(sig, grid)):
                run(f"{at} fibers profile", lambda: fib.profile)
            run(f"{at} check_sz99", lambda: sisbox.check_sz99(sig, grid, seed=SEED))
            run(f"{at} check_theorem2", lambda: sisbox.check_theorem2(sig, grid, seed=SEED))
            run(f"{at} check_theorem5", lambda: sisbox.check_theorem5(sig, grid, seed=SEED))
            run(f"{at} check_sz04", lambda: sisbox.check_sz04(sig, grid))
            run(f"{at} construct_s_from_f", lambda: sisbox.construct_s_from_f(sig, grid, seed=SEED))
            space = run(f"{at} build_space", lambda: sisbox.build_space(sig, grid, seed=SEED, checked=False))
            if space is None:
                continue
            run(f"{at} kernel rows", lambda: space.sampling_spectrum.band_values(grid))
            run(f"{at} kernel samples", space.kernel_samples)
            for where, xs in points.items():
                run(f"{at} kernel values {where}", lambda: space.kernel_values(xs))
            for index in range(2):
                member = sisbox.synthesize(space, workloads.member_coefficients(SEED, index))
                samples = run(f"{at} member {index} samples",
                              lambda: sisbox.integer_samples(member, grid, space.k_max))
                for where, xs in points.items():
                    run(f"{at} member {index} time values {where}", lambda: member.time_values(xs))
                    if samples is not None:
                        run(f"{at} member {index} reconstruct {where}",
                            lambda: sisbox.reconstruct(space, samples, xs))
        partition = sisbox.PeriodicPartition.from_intervals([[(0.0, 0.5)], [(0.5, 1.0)]], grid)
        spaces = {name: sisbox.build_space(sisbox.build_signal(name, grid), grid, seed=SEED)
                  for name in ("hat", "shannon")}
        for name, space in spaces.items():
            run(f"{kn[0]}x{kn[1]} {name} decompose", lambda: sisbox.decompose(space, partition))
        space, halves = spaces["shannon"], [sisbox.PiecewiseConstantSpectrum([(a, a + 0.5, 1.0)]) for a in (-0.5, 0.0)]
        run(f"{kn[0]}x{kn[1]} shannon determine", lambda: sisbox.check_determining_set(space, halves))
        run(f"{kn[0]}x{kn[1]} shannon theorem 1",
            lambda: sisbox.induced_subspace(space, workloads.band_member(SEED)))
    grid = sisbox.FrequencyGrid(*grids[0])
    spectra = {"shannon": sisbox.build_signal("shannon", grid),
               "0-300": sisbox.PiecewiseConstantSpectrum([(0.0, 300.0, 1.0)]),
               "zero-crossing member": sisbox.PiecewiseConstantSpectrum([(-0.3, 0.2, 1 - 0.5j), (0.2, 0.5, 2.0)]),
               "ex2 47": sisbox.build_signal("ex2", grid, 47), "ex2 60": sisbox.build_signal("ex2", grid, 60)}

    def written(sig, path) -> str:
        sio.write_piecewise_spectrum(sig, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    with tempfile.TemporaryDirectory(prefix="sisbox-identical-") as workdir:
        for name, sig in spectra.items():
            path = Path(workdir) / f"{name}.json"
            if run(f"writer {name} text", lambda: written(sig, path)):
                run(f"writer {name} read back", lambda: sio.read_piecewise_spectrum(path).pieces)


def cli_dump(src: str, out: dict) -> None:
    """cli_mix's commands, each in a fresh interpreter in a copy of the inputs this tree writes."""
    workloads = load_workloads()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("SISBOX_GRID", None)  # perfbench's commands run without it
    with tempfile.TemporaryDirectory(prefix="sisbox-identical-") as workdir:
        inputs = Path(workdir) / "inputs"
        inputs.mkdir()
        workloads.write_cli_inputs(inputs, SEED)
        for path in sorted(inputs.iterdir()):
            out[f"cli input {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        for i, (key, argv) in enumerate(workloads.cli_matrix(SEED)):
            run_dir = Path(shutil.copytree(inputs, Path(workdir) / str(i)))
            done = subprocess.run([sys.executable, "-m", "sisbox.cli", *argv], env=env, cwd=run_dir,
                                  capture_output=True, text=True)
            out[f"cli {key} exit"], out[f"cli {key} stdout"] = str(done.returncode), done.stdout
            out[f"cli {key} stderr"] = done.stderr
            report = run_dir / argv[-1]
            if report.exists():
                doc = json.loads(report.read_text())
                doc.pop("timing_s", None)
                flatten(out, f"cli {key} report", doc)
            for path in sorted(run_dir.iterdir()):
                if path != report and not (inputs / path.name).exists():
                    out[f"cli {key} file {path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()


def worker(src: str, grids, cli: bool) -> dict:
    """{key: exact text} of every output of the sisbox under src."""
    sys.path.insert(0, str(Path(src).resolve()))
    out = {}
    library_dump(grids, out)
    if cli:
        cli_dump(str(Path(src).resolve()), out)
    return out


def differing(a: dict, b: dict) -> list[str]:
    """The keys whose texts differ, or that one dump lacks, in order."""
    return [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def dumps(sources, grids=GRIDS, cli: bool = True) -> list[dict]:
    """One worker's dump per tree, each in a fresh interpreter with BLAS on one thread."""
    out = []
    with tempfile.TemporaryDirectory(prefix="sisbox-identical-") as workdir:
        for src in sources:
            path = Path(workdir) / "dump.json"
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(Path(src).resolve()),
                            json.dumps([grids, cli]), str(path)], env={**os.environ, **BLAS_PINS}, cwd=workdir,
                           check=True)
            out.append(json.loads(path.read_text()))
    return out


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        grids, cli = json.loads(sys.argv[3])
        Path(sys.argv[4]).write_text(json.dumps(worker(sys.argv[2], [tuple(kn) for kn in grids], cli)))
        sys.exit(0)
    parent, change = dumps(sys.argv[1:3])
    diff = differing(parent, change)
    for key in diff:
        print(f"{key}: {parent.get(key, '<missing>')!r} != {change.get(key, '<missing>')!r}")
    print(f"{len(diff)} of {len(parent.keys() | change.keys())} keys differ")
    sys.exit(1 if diff else 0)
