"""One pass of each benchmark workload through the benchmark's own checks.

``perfbench/workloads.py`` (loaded read-only, as ``test_tracing`` loads the
tracer) holds every workload's operations and the checks that compare their
outputs with ``perfbench/golden.json``.  A benchmark run counts an operation
with any problem as failed; here no operation of one pass may have one:
certify_fine's library calls, the reconstruct pass, and cli_mix's commands,
run in-process through ``sisbox.cli.main`` in a directory of their inputs.
"""

import importlib.util
from pathlib import Path

import pytest

import sisbox.cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 28001


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failed(problems: dict) -> dict:
    return {key: found for key, found in problems.items() if found}


def test_certify_fine_pass_matches_golden(workloads):
    problems = {}
    for fn, name in workloads.CERTIFY_OPS:
        outcome = workloads.certify_outcome(fn, workloads.certify_call(fn, name, SEED))
        problems[f"{fn} {name}"] = workloads.compare(outcome, workloads.GOLDEN["certify_fine"][f"{fn} {name}"])
    assert len(problems) == 11 and failed(problems) == {}


def test_reconstruct_pass_matches_golden(workloads):
    spaces = workloads.build_recon_spaces(SEED)
    problems = {}
    for index, name in enumerate(workloads.RECON_PASS):
        _, route, errors, grid_errors = workloads.reconstruct_op(spaces[name], SEED, index)
        problems[f"{index} {name}"] = workloads.check_reconstruct(name, route, errors | grid_errors())
    assert failed(problems) == {}


def test_cli_mix_pass_matches_golden(workloads, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SISBOX_GRID", raising=False)  # the benchmark's children run without it
    monkeypatch.chdir(tmp_path)  # the commands name their files relative to their inputs
    workloads.write_cli_inputs(tmp_path, SEED)
    problems = {}
    for key, argv in workloads.cli_matrix(SEED):
        for name in workloads.checked_files(key, argv):
            (tmp_path / name).unlink(missing_ok=True)
        capsys.readouterr()
        rc = sisbox.cli.main(argv)
        problems[key] = workloads.check_cli(key, rc, capsys.readouterr().err, tmp_path, argv[-1])
    assert len(problems) == 13 and failed(problems) == {}
