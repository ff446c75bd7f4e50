"""The benchmark's tracer (perfbench/tracing.py, loaded read-only) installs
over this tree and reads the names it records: the probe offsets ``x_grid``
and the ``grid`` of the shift-square sum, and the ``route`` of its result and
of a reconstruction."""

import importlib.util
from pathlib import Path

import numpy as np

import sisbox
import sisbox.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_routes(tmp_path):
    # calls go through module attributes, which the tracer wraps
    tracer = load_tracing().Tracer()
    tracer.install(include_cli=True)
    try:
        tracer.begin_op()
        grid = sisbox.FrequencyGrid(32, 1024)
        for name in ("hat", "blhat"):
            sisbox.check_sz99(sisbox.build_signal(name, grid), grid)
        space = sisbox.build_space(sisbox.build_signal("shannon", grid), grid)
        sisbox.reconstruct(space, sisbox.TimeSamples.delta(0), np.linspace(-2, 2, 9))
        assert sisbox.cli.main(["analyze", "shannon", "--json", str(tmp_path / "r.json")]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    sss = layers["spectral.shift_square_sum"]
    assert sss["direct_calls"] >= 1 and sss["parseval_calls"] >= 1
    assert sss["probes"] == 128 * sss["calls"]
    assert sss["parseval_probe_nodes"] > 0
    assert layers["spaces.reconstruct"]["time_calls"] == 1
    assert layers["cli.main"]["calls"] == 1
