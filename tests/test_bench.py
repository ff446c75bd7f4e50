"""The end-to-end bench (``bench/cli.py``) and the summaries ``bench/harness.py`` writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
