"""Random command lines over the five commands.

Flag values are drawn from edge cases (0, -1, nan, +-inf, 1e308, a
non-number) and plain ones; input files are valid, missing, empty,
truncated, garbled or hold the wrong number of fields.  Every run must
return exit code 0, 1 or 2 without raising, and a run given a non-finite
number must not exit 0.  The default grid is small (SISBOX_GRID) so that
runs which get past their arguments stay cheap.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisbox import PiecewiseConstantSpectrum
from sisbox import io as sio
from sisbox.cli import main

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "abc", "0.5", "2", "64"]
NON_FINITE = {"nan", "inf", "-inf"}
COMMON = ["--K", "--N", "--eps", "--kmax", "--seed", "--nmax"]
RECONSTRUCT = ["--from", "--to", "--points"]
LATTICES = ["1,0", "2,0.5", "0,0", "-1,0", "nan,0", "1,inf", "1e308,0", "1,1e308", "abc", "1"]
SIGNALS = ["shannon", "hat", "ex2", "blhat", "nosuch"]
FILES = {
    "spectrum.json": '[{"a": 0, "b": 0.5, "re": 1, "im": 0}]\n',
    "samples.csv": "k,re,im\n0,1,0\n1,0.5,0\n",
    "halves.json": "[[[0, 0.5]], [[0.5, 1]]]\n",
    "empty.json": "",
    "nothing.json": "[]\n",
    "empty.csv": "",
    "truncated.json": '[{"a": 0, "b": 0.5',
    "fields.json": '[{"a": 0}]\n',
    "pairs.json": "[[[0, 0.5, 1]]]\n",
    "fields.csv": "k,re,im\n0,1\n",
}
INPUT_JSON = ["spectrum.json", "halves.json", "empty.json", "nothing.json", "truncated.json",
              "fields.json", "pairs.json", "missing.json", "garbled.json"]
INPUT_CSV = ["samples.csv", "empty.csv", "fields.csv", "missing.csv", "garbled.csv"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (d / name).write_text(text)
    for name in ("garbled.json", "garbled.csv"):
        (d / name).write_bytes(b"\xff\xfe\x00k,re\x9d\n")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), d / "low.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SISBOX_GRID", "8,128")
        yield d


@st.composite
def command_lines(draw):
    """(argv with {d} for the input directory, whether a number in it is non-finite)."""
    command = draw(st.sampled_from(["analyze", "membership", "reconstruct", "decompose", "determine"]))
    signal = draw(st.sampled_from(SIGNALS + ["{d}/" + f for f in INPUT_JSON + INPUT_CSV]))
    space = draw(st.sampled_from(SIGNALS + ["{d}/spectrum.json", "{d}/missing.json"]))
    argv = {
        "analyze": ["analyze", signal, "--csv", "{d}/out.csv"],
        "membership": ["membership", signal, "--space", space, "--emit-s", "{d}/s.csv",
                       "--theorem", draw(st.sampled_from(["1", "2", "5", "sz04"]))],
        "reconstruct": ["reconstruct", "--space", space, "--out", "{d}/rec.csv",
                        "--samples", "{d}/" + draw(st.sampled_from(INPUT_CSV))],
        "decompose": ["decompose", "--space", space, "--out-prefix", "{d}/comp",
                      "--partition", "{d}/" + draw(st.sampled_from(INPUT_JSON))],
        "determine": ["determine", "--space", space, "--out-prefix", "{d}/det",
                      "--functions", ",".join([signal, "{d}/low.json"])],
    }[command]
    flags = COMMON + (RECONSTRUCT if command == "reconstruct" else [])
    values = draw(st.dictionaries(st.sampled_from(flags), st.sampled_from(NUMBERS), max_size=3))
    if command == "reconstruct" and draw(st.booleans()):
        values["--lattice"] = draw(st.sampled_from(LATTICES))
    argv += [f"{flag}={value}" for flag, value in values.items()]
    non_finite = any(part in NON_FINITE for v in values.values() for part in v.split(","))
    return argv, non_finite


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(command_lines())
def test_cli_exits_0_1_or_2(fuzz_dir, case):
    argv, non_finite = case
    argv = [a.format(d=fuzz_dir) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not (non_finite and rc == 0), argv
