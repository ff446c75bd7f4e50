"""End-to-end timings of sisbox's CLI commands, one commit against another.

    python bench/cli.py OUT.json LABEL=SRC [LABEL=SRC ...] [--rounds R]

Each SRC is a ``src`` directory (this checkout's, or another commit's).  The commands
are the 13 of perfbench's cli_mix workload (``cli_matrix`` of ``perfbench/workloads.py``,
loaded read-only), on the input files its ``write_cli_inputs`` writes once, in a child
process of its own, with the first label's sisbox.  A worker process per (round, label)
runs each command in a fresh interpreter (``python -m sisbox.cli``, sisbox from SRC),
checks its output against perfbench's golden record, and reads with ``os.wait4`` the
command's wall time, CPU time (user + system), minor page faults and ``ru_maxrss``; it
interleaves its repeats over the matrix, in a seeded order new for each repeat.
``harness`` writes the medians and spreads per command, their sums over the matrix and
the largest ``ru_maxrss``.

The worker imports neither numpy nor sisbox.  On Linux a child's ``ru_maxrss`` starts
from the resident size of the process it was forked from (``subprocess`` forks with
vfork, and exec keeps the old address space's high-water mark), so a worker holding
numpy's ~43 MB would read at least that for every command, whatever the command's
own peak.
"""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

from harness import main

REPEATS = 4  # per worker, after one warm-up pass
SEED = 5101  # the inputs' seed, and every command's --seed
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STDERR = "stderr.txt"


def load_workloads():
    """``perfbench/workloads.py`` as a module (its numpy and sisbox imports are in its functions)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup(workdir: Path, src: str) -> None:
    """The matrix's input files, written into workdir by a child that imports sisbox from src."""
    code = ("import sys; from pathlib import Path\n"
            f"sys.path[:0] = [{src!r}, {str(PERFBENCH)!r}]\n"
            f"import workloads; workloads.write_cli_inputs(Path.cwd(), {SEED})")
    subprocess.run([sys.executable, "-c", code], cwd=workdir, check=True)


def run(argv: list[str], src: str) -> tuple[int, list]:
    """(exit code, [wall s, minor faults, CPU s, ru_maxrss kB]) of one command, its stderr in STDERR."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("SISBOX_GRID", None)  # perfbench's commands run without it
    with open(STDERR, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sisbox.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, [wall, usage.ru_minflt, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]


def worker(src: str, order) -> dict:
    """{"command": [[wall s, minor faults, CPU s, max RSS kB] per repeat]} for the sisbox under src."""
    workloads = load_workloads()
    matrix, workdir = workloads.cli_matrix(SEED), Path.cwd()
    out = {key: [] for key, _ in matrix}
    for repeat in range(REPEATS + 1):
        for key, argv in order.sample(matrix, len(matrix)):
            for name in workloads.checked_files(key, argv):
                (workdir / name).unlink(missing_ok=True)
            rc, took = run(argv, src)
            problems = workloads.check_cli(key, rc, Path(STDERR).read_text(errors="replace"), workdir, argv[-1])
            if problems:
                raise RuntimeError(f"{key} under {src}: {problems}")
            if repeat:
                out[key].append(took)
    return out


if __name__ == "__main__":
    main(__file__, worker, REPEATS, setup)
