"""The end-to-end bench (``bench/cli.py``), the summaries ``bench/harness.py`` writes and the
byte-for-byte comparison of two trees (``bench/identical.py``)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sisbox

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    try:
        import harness
    finally:
        sys.path.remove(str(BENCH))
    return harness


@pytest.fixture(scope="module")
def identical():
    sys.path.insert(0, str(BENCH))
    try:
        import identical
    finally:
        sys.path.remove(str(BENCH))
    return identical


def test_cli_worker_imports_neither_numpy_nor_sisbox(tmp_path):
    # a child's ru_maxrss starts from the resident size of the process that forked it, so the
    # worker that spawns the commands must stay small: one command, a warm-up and one repeat
    src = str(Path(sisbox.__file__).resolve().parents[1])
    code = ("import importlib.util, json, random, sys\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            f"spec = importlib.util.spec_from_file_location('bench_cli', {str(BENCH / 'cli.py')!r})\n"
            "cli = importlib.util.module_from_spec(spec); spec.loader.exec_module(cli)\n"
            "workloads = cli.load_workloads(); matrix = workloads.cli_matrix\n"
            "workloads.cli_matrix = lambda seed: [c for c in matrix(seed) if c[0] == 'analyze shannon']\n"
            "cli.load_workloads, cli.REPEATS = (lambda: workloads), 1\n"
            f"out = cli.worker({src!r}, random.Random(0))\n"
            "print(json.dumps([out, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'sisbox'))]))")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
                          text=True, check=True)
    out, modules = json.loads(done.stdout)
    assert modules == []
    assert list(out) == ["analyze shannon"] and len(out["analyze shannon"]) == 1
    wall, faults, cpu, maxrss_kb = out["analyze shannon"][0]
    assert 0 < cpu and 0 < wall < 30 and faults > 0 and maxrss_kb > 0


def test_benchmark_cli_path_imports_neither_numpy_nor_sisbox():
    # perfbench's cli_mix reads peak_rss_mb from the commands it spawns, whose ru_maxrss starts
    # from the resident size of the process that forked them: that process must stay small
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import importlib.util, json, sys\n"
            f"sys.path.insert(0, {str(perfbench)!r})\n"
            f"spec = importlib.util.spec_from_file_location('perfbench_run', {str(perfbench / 'run.py')!r})\n"
            "run = importlib.util.module_from_spec(spec); spec.loader.exec_module(run)\n"
            "import tracing, workloads\n"
            "argvs = [run.cli_command(argv) for _, argv in workloads.cli_matrix(0)]\n"
            "print(json.dumps([len(argvs), sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'sisbox'))]))")
    done = subprocess.run([sys.executable, "-c", code], cwd=perfbench.parent, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [13, []]


def test_summary_reads_cpu_and_the_largest_max_rss(harness):
    repeats = [[0.2, 10, 0.15, 30000], [0.4, 30, 0.25, 32000], [0.3, 20, 0.2, 31000]]
    summary = harness._summary({"cmd": repeats, "other": repeats[:2]})
    assert summary["cmd"] == {"ms": 300.0, "iqr_ms": 100.0, "minflt": 20, "cpu_ms": 200.0,
                              "iqr_cpu_ms": 50.0, "maxrss_kb": 32000}
    assert harness._totals(harness._rows(summary)) == {"ms": 600.0, "minflt": 40, "cpu_ms": 400.0,
                                                        "maxrss_kb": 32000}


def test_summary_of_seconds_alone(harness):
    assert harness._summary([0.001, 0.003, 0.002]) == {"ms": 2.0, "iqr_ms": 1.0}
    assert harness._totals({"a": {"ms": 2.0, "iqr_ms": 1.0}}) == {"ms": 2.0}


def test_identical_reads_no_difference_between_a_tree_and_itself(identical):
    # an A/A run on one small grid: two workers, each in a fresh interpreter
    src = str(Path(sisbox.__file__).resolve().parents[1])
    a, b = identical.dumps([src, src], grids=[(16, 256)], cli=False)
    assert len(a) > 1000 and identical.differing(a, b) == []
    assert a["16x256 hat build_space/sampling_spectrum"] == "TimeKernel"
    assert a["16x256 ex2 fibers"].startswith("BandwidthOverflowError")  # a refusal is dumped too


def test_identical_flags_a_float_one_ulp_off(identical):
    grid = sisbox.FrequencyGrid(16, 256)
    space = sisbox.build_space(sisbox.build_signal("shannon", grid), grid)
    low, high = space.frame_bounds
    bumped = dataclasses.replace(space, frame_bounds=(np.nextafter(low, 2.0), high))
    a, b = {}, {}
    identical.flatten(a, "space", space)
    identical.flatten(b, "space", bumped)
    assert identical.differing(a, b) == ["space/frame_bounds/0"]
    values = space.grammian.values.copy()
    values[3] = np.nextafter(values[3], np.inf)
    identical.flatten(b, "space/grammian/values", values)
    assert identical.differing(a, b) == ["space/frame_bounds/0", "space/grammian/values"]
    assert identical.differing(a, {**a, "new key": "0"}) == ["new key"]
