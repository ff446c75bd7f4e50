import functools
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import SYNTHESIS_POINTS
from sisbox import (
    FrequencyGrid,
    GridSpectrum,
    PeriodicPartition,
    PiecewiseConstantSpectrum,
    TimeSamples,
    build_signal,
    build_space,
    check_sz04,
    check_sz99,
    construct_s_from_f,
    decompose,
    integer_samples,
)
from sisbox import io as sio
from sisbox.cli import main
from sisbox.errors import BandwidthOverflowError, FileFormatError, PreconditionError
from sisbox.reports import ConditionCheck, ReportDocument


class TestFileFormats:
    def test_piecewise_roundtrip(self, tmp_path):
        sig = PiecewiseConstantSpectrum([(-0.5, 0.25, 1.0 + 2.0j), (0.25, 1.0, -0.5)])
        path = tmp_path / "spec.json"
        sio.write_piecewise_spectrum(sig, path)
        back = sio.read_piecewise_spectrum(path)
        grid = FrequencyGrid(4, 64)
        np.testing.assert_allclose(back.grid_values(grid), sig.grid_values(grid))

    @pytest.mark.parametrize("sig", [
        pytest.param(build_signal("ex2", FrequencyGrid(), 47), id="ex2-47"),
        pytest.param(PiecewiseConstantSpectrum([(0.0, 300.0, 1.0)]), id="0-300"),
        pytest.param(PiecewiseConstantSpectrum([(-3.25, -1.0, 1.0), (-1.0, 0.375, 2j), (2.0, 7.0, -0.5)]),
                     id="several-units")])
    def test_interval_file_reads_back_the_records_written(self, tmp_path, sig):
        # one record per interval held (ex2-47's every block is exact in a double): the
        # file holds the records, and reads back to the same records and unit pieces
        sio.write_piecewise_spectrum(sig, tmp_path / "spec.json")
        assert len(json.loads((tmp_path / "spec.json").read_text())) == len(sig.records)
        back = sio.read_piecewise_spectrum(tmp_path / "spec.json")
        assert back.records == sig.records and back.pieces == sig.pieces

    def test_interval_writer_refuses_a_block_its_reader_cannot_read_back(self, tmp_path):
        # ex2's block [48, 48 + 2^-48) is narrower than a double at 48: written, it reads
        # [48.0, 48.0), which the reader refuses; the writer refuses it first, naming it
        with pytest.raises(PreconditionError, match=r"interval \[48 \+ 0\.0, 48 \+ "):
            sio.write_piecewise_spectrum(build_signal("ex2", FrequencyGrid()), tmp_path / "ex2.json")
        assert not (tmp_path / "ex2.json").exists()

    def test_grid_roundtrip(self, tmp_path):
        grid = FrequencyGrid(4, 64)
        rng = np.random.default_rng(1)
        sig = GridSpectrum(rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size), grid)
        path = tmp_path / "spec.csv"
        sio.write_grid_spectrum(sig, path)
        back = sio.read_grid_spectrum(path, grid)
        assert back.grid == grid and back.band == sig.band
        np.testing.assert_array_equal(back.values, sig.values)

    def test_samples_roundtrip(self, tmp_path):
        ts = TimeSamples(np.array([-3, 0, 5]), np.array([1j, 2.0, -0.25]), 5)
        path = tmp_path / "samples.csv"
        sio.write_samples(ts, path)
        back = sio.read_samples(path)
        np.testing.assert_array_equal(back.ks, ts.ks)
        np.testing.assert_array_equal(back.values, ts.values)

    def test_partition_roundtrip(self, tmp_path):
        groups = [[[0.0, 0.5]], [[0.5, 0.75], [0.75, 1.0]]]
        path = tmp_path / "parts.json"
        sio.write_partition(groups, path)
        back = sio.read_partition(path)
        assert back == [[(0.0, 0.5)], [(0.5, 0.75), (0.75, 1.0)]]

    def test_reconstruction_roundtrip(self, tmp_path):
        xs = np.linspace(-1, 1, 5)
        vals = xs + 1j * xs ** 2
        path = tmp_path / "rec.csv"
        sio.write_reconstruction_csv(xs, vals, path)
        xs2, vals2 = sio.read_reconstruction_csv(path)
        np.testing.assert_array_equal(xs2, xs)
        np.testing.assert_array_equal(vals2, vals)

    def test_writers_text(self, tmp_path):
        # each table writer: the header, then the repr of every number of a row
        grid = FrequencyGrid(1, 2)
        sio.write_grid_spectrum(GridSpectrum(np.array([1.0, -0.5j, 0.1 + 0.2j, 0.0]), grid),
                                tmp_path / "g.csv")
        sio.write_samples(TimeSamples(np.array([3, -2]), np.array([0.25, 1 / 3 - 1j]), 4),
                          tmp_path / "s.csv")
        sio.write_periodic_csv(grid, {"grammian": np.array([1.0, 2.5]),
                                      "re": np.array([1 + 1j, -0.0])}, tmp_path / "p.csv")
        sio.write_reconstruction_csv([0, 0.1], [2, 1e-300 - 1.5j], tmp_path / "r.csv")
        assert (tmp_path / "g.csv").read_text() == (
            "omega,re,im\n-1.0,1.0,0.0\n-0.5,-0.0,-0.5\n0.0,0.1,0.2\n0.5,0.0,0.0\n")
        assert (tmp_path / "s.csv").read_text() == (
            "k,re,im\n-2,0.3333333333333333,-1.0\n3,0.25,0.0\n")
        assert (tmp_path / "p.csv").read_text() == "omega,grammian,re\n0.0,1.0,1.0\n0.5,2.5,-0.0\n"
        assert (tmp_path / "r.csv").read_text() == "x,re,im\n0.0,2.0,0.0\n0.1,1e-300,-1.5\n"
        # rows are written in blocks: a table longer than one block reads the same
        ks = np.arange(-2500, 2600)
        sio.write_samples(TimeSamples(ks, ks / 3, 2600), tmp_path / "long.csv")
        assert (tmp_path / "long.csv").read_text() == "k,re,im\n" + "".join(
            f"{k},{k / 3!r},0.0\n" for k in ks.tolist())

    def test_table_bytes_match_the_row_by_row_reference(self, tmp_path):
        # formatted a column at a time, over two full blocks and part of a third
        special = np.array([-0.0, 5e-324, 1e-05, 1e16, 1.2345678901234568e+17, -2.5])
        n = 2 * 4096 + 7
        ks = np.arange(n) - n // 2
        re, im = np.resize(special, n), np.resize(special[::-1], n)
        sio._write_table(tmp_path / "t.csv", "k,re,im", ks, re, im)
        rows = zip(ks.tolist(), re.tolist(), im.tolist())
        want = "k,re,im\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("reader", [
        sio.read_samples, sio.read_reconstruction_csv, sio.read_periodic_csv,
        pytest.param(functools.partial(sio.read_grid_spectrum, grid=FrequencyGrid(1, 2)), id="read_grid_spectrum"),
        sio.read_piecewise_spectrum, sio.read_partition])
    def test_missing_file_is_a_format_error(self, tmp_path, reader):
        with pytest.raises(FileFormatError, match="cannot read"):
            reader(tmp_path / "missing.txt")

    def test_malformed_samples_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,re,im\n0,1,0\nbroken line\n")
        with pytest.raises(FileFormatError) as err:
            sio.read_samples(path)
        assert err.value.line == 3

    def test_periodic_csv_needs_an_omega_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("grammian,abs_zak\n1,1\n")
        with pytest.raises(FileFormatError, match="expected an omega") as err:
            sio.read_periodic_csv(path)
        assert err.value.line == 1

    def test_non_integer_sample_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1,0\n")
        with pytest.raises(FileFormatError) as err:
            sio.read_samples(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("reader, text, line", [
        (sio.read_samples, "k,re,im\n0,1,0\n1,nan,0\n", 3),
        (sio.read_samples, "k,re,im\n0,1,-inf\n", 2),
        (sio.read_reconstruction_csv, "x,re,im\n0.5,1,0\ninf,0,0\n", 3),
        (sio.read_periodic_csv, "omega,grammian\n0,1\n0.5,NaN\n", 3),
        (functools.partial(sio.read_grid_spectrum, grid=FrequencyGrid(1, 2)),
         "omega,re,im\n-1,1,0\n-0.5,1,0\n0,nan,0\n0.5,1,0\n", 4),
        (sio.read_piecewise_spectrum, '[{"a": 0, "b": 1, "re": 1},\n {"a": 1, "b": 2, "re": NaN}]', "record 1 re: "),
        (sio.read_piecewise_spectrum, '[{"a": 0, "b": Infinity, "re": 1}]', "record 0 b: "),
    ], ids=["samples-nan", "samples-inf", "reconstruction-inf", "periodic-nan", "grid-nan",
            "spectrum-nan", "spectrum-infinite-end"])
    def test_non_finite_number_reports_line(self, tmp_path, reader, text, line):
        # a table names its line; a JSON value, which json gives no position for, its record
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="non-finite") as err:
            reader(path)
        if isinstance(line, str):
            assert err.value.line is None and str(err.value).startswith(line)
        else:
            assert err.value.line == line

    def test_json_faults_name_the_record_not_a_line(self, tmp_path, capsys):
        # NaN in record 1 of a writer-made file sits at line 11; a bad pair of a partition at line 4
        sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, 2.0)]),
                                     path := tmp_path / "spec.json")
        lines = path.read_text().splitlines()
        assert lines[10].strip() == '"re": 2.0,'
        lines[10] = lines[10].replace("2.0", "NaN")
        path.write_text("\n".join(lines) + "\n")
        parts = tmp_path / "parts.json"
        parts.write_text('[\n  [[0.0, 0.5]],\n  [[0.5, 0.75],\n   [0.75, 1.5]]\n]\n')
        for argv, reader, message in [
                (["analyze", str(path)], sio.read_piecewise_spectrum, "record 1 re: non-finite number nan"),
                (["decompose", "--space", "shannon", "--partition", str(parts)], sio.read_partition,
                 "mask 1 pair 1 [0.75, 1.5) must sit inside [0, 1]")]:
            with pytest.raises(FileFormatError) as err:
                reader(argv[-1])
            assert err.value.line is None and str(err.value) == message
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"a": 0, "b": }\n]\n')
        with pytest.raises(FileFormatError) as err:
            sio.read_piecewise_spectrum(path)
        assert err.value.line == 2


def spectrum_on_rows(grid, rows, seed=0):
    """A grid spectrum with seeded nonzero values on the given fold rows alone."""
    rng, folded = np.random.default_rng(seed), np.zeros((2 * grid.half_bandwidth, grid.resolution), dtype=complex)
    shape = (len(rows), grid.resolution)
    folded[rows] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridSpectrum(folded.ravel(), grid)


class TestBandFiles:
    """A grid spectrum's file holds the whole fold rows of its band, read onto the caller's grid."""

    GRID = FrequencyGrid(8, 64)

    @pytest.mark.parametrize("make", [
        lambda g: build_signal("blhat", g),
        lambda g: GridSpectrum(np.zeros(g.size), g),  # the header alone
        lambda g: spectrum_on_rows(g, [0, 2]),  # from row 0, a zero row inside the band
        lambda g: spectrum_on_rows(g, [2 * g.half_bandwidth - 1]),
        lambda g: GridSpectrum.from_band(*build_signal("hat", g).band_values(g), g),  # all 2K rows
    ], ids=["blhat", "zero", "row-0", "row-2K-1", "hat"])
    def test_roundtrip_keeps_the_rows(self, tmp_path, make):
        sig, path = make(self.GRID), tmp_path / "s.csv"
        sio.write_grid_spectrum(sig, path)
        back = sio.read_grid_spectrum(path, self.GRID)
        n = self.GRID.resolution
        assert len(path.read_text().splitlines()) == 1 + (sig.band.stop - sig.band.start) * n
        assert back.band == sig.band
        np.testing.assert_array_equal(back.rows, sig.rows)

    @pytest.mark.parametrize("rows", [[7, 8], [8], [0, 15], [3, 4, 6]])
    def test_full_grid_file_reads_as_its_band(self, tmp_path, rows):
        # the layout of every earlier writer: one line per node of the grid
        grid, path = self.GRID, tmp_path / "full.csv"
        v = spectrum_on_rows(grid, rows).values
        sio._write_table(path, "omega,re,im", grid.omegas, v.real, v.imag)
        back, want = sio.read_grid_spectrum(path, grid), GridSpectrum(v, grid)
        assert back.band == want.band
        np.testing.assert_array_equal(back.rows, want.rows)

    def test_zero_edge_rows_are_written_and_trimmed(self, tmp_path):
        # a band given with a zero edge row (a decompose component's) is held without it, and
        # written without it; a file that holds one (an earlier writer's) reads back trimmed
        grid, rows = self.GRID, spectrum_on_rows(self.GRID, [8]).rows
        padded = np.vstack([np.zeros((1, grid.resolution)), rows])
        held = GridSpectrum.from_band(slice(7, 9), padded, grid)
        assert held.band == slice(8, 9)
        sio.write_grid_spectrum(held, tmp_path / "c.csv")
        assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + grid.resolution
        sio._write_table(tmp_path / "old.csv", "omega,re,im", np.arange(-1, 1, grid.step), padded.real.ravel(),
                         padded.imag.ravel())
        for path in ("c.csv", "old.csv"):
            back = sio.read_grid_spectrum(tmp_path / path, grid)
            assert back.band == slice(8, 9)
            np.testing.assert_array_equal(back.rows, rows)

    def test_a_wider_grid_reads_the_same_function(self, tmp_path, grid):
        blhat = build_signal("blhat", grid)
        sio.write_grid_spectrum(blhat, tmp_path / "b.csv")
        wide = FrequencyGrid(64, grid.resolution)
        back = sio.read_grid_spectrum(tmp_path / "b.csv", wide)
        assert back.grid == wide and back.band == slice(63, 65)
        xs = np.concatenate([np.linspace(-8.0, 8.0, 1000), SYNTHESIS_POINTS])
        np.testing.assert_array_equal(back.time_values(xs), blhat.time_values(xs))

    @pytest.mark.parametrize("text, argv, error, line", [
        ("-1,1,0\n-0.5,1,0\n0,1,0\n", [], FileFormatError, 4),  # a partial fold row
        ("-1,1,0\n-0.25,1,0\n", [], FileFormatError, 3),  # an omega off its node
        ("-1,1,0\n-0.75,1,0\n-0.5,1,0\n-0.25,1,0\n", [], FileFormatError, 3),  # written at N = 4
        ("0,0,0\n0.5,0,0\n1,1,0\n1.5,1,0\n", [], BandwidthOverflowError, None),  # the row m = 1, past K = 1
        ("-0.5,1,0\n0,1,0\n", [], FileFormatError, 2),  # a row must start at an integer
        ("-1,1,0\n-0.5,1,0\n0,1,0\n0.5,1,0\n", ["--N", "4"], FileFormatError, 3),  # written at N = 2
    ], ids=["partial-row", "off-node", "wrong-N", "past-K", "mid-row-start", "wrong-N-cli"])
    def test_refusals_are_typed_and_exit_1(self, tmp_path, capsys, monkeypatch, text, argv, error, line):
        path = tmp_path / "bad.csv"
        path.write_text("omega,re,im\n" + text)
        grid = FrequencyGrid(1, 4 if argv else 2)
        if error is BandwidthOverflowError:
            # rows past K are read onto a wider K of the same N, and refused where placed on K = 1:
            # under an explicit --K 1, while without --K the grid widens to them
            back = sio.read_grid_spectrum(path, grid)
            assert back.grid == FrequencyGrid(2, 2) and back.required_half_bandwidth() == 2
            with pytest.raises(error) as err:
                back.band_values(grid)
            assert err.value.required_k == 2 and err.value.actual_k == 1
            assert main(["analyze", str(path), "--K", "1", "--N", "2"]) == 1
            assert capsys.readouterr().err.startswith("error: spectrum support needs half-bandwidth K >= 2, "
                                                      "grid has K = 1")
            monkeypatch.setenv("SISBOX_GRID", "1,2")
            assert main(["analyze", str(path), "--json", str(tmp_path / "r.json")]) in (0, 2)
            assert json.loads((tmp_path / "r.json").read_text())["grid"] == {"K": 2, "N": 2}
            return
        with pytest.raises(error) as err:
            sio.read_grid_spectrum(path, grid)
        assert err.value.line == line
        assert main(["analyze", str(path), "--K", "1", "--N", "2", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")


class TestReportDocument:
    def test_roundtrip_is_lossless(self):
        doc = ReportDocument(
            command="analyze",
            grid={"K": 32, "N": 1024},
            params={"signal": "shannon"},
            results={"frame_bounds": {"A": 1.0, "B": 1.0},
                     "gauged": {"value": 0.123456789012345, "tolerance": 1e-9, "passed": True}},
            tails={"spectral": 0.0},
            timing_s=0.25,
            seed=7,
            verdict="pass",
        )
        back = ReportDocument.from_json(doc.to_json())
        assert back == doc
        assert back.schema == 1

    def test_from_json_ignores_unknown_keys(self):
        doc = ReportDocument(command="analyze", grid={"K": 32, "N": 1024})
        text = json.dumps({**json.loads(doc.to_json()), "extra": 1})
        assert ReportDocument.from_json(text) == doc

    def test_to_json_encodes_numpy_values_tuples_and_infinities(self):
        doc = ReportDocument(command="c", grid={"K": 32, "N": 1024}, results={
            "scalar": np.float64(0.1), "count": np.int64(3), "flag": np.bool_(True),
            "array": np.array([1.5, -2.0]), "pair": (np.float64(2.5), np.int64(4)),
            "inf": float("inf"), "neg_inf": -np.inf,
            "check": ConditionCheck("c", True, np.float64(1.0), 1e-9)})
        text = doc.to_json()
        assert json.loads(text)["results"] == {
            "scalar": 0.1, "count": 3, "flag": True, "array": [1.5, -2.0], "pair": [2.5, 4],
            "inf": float("inf"), "neg_inf": float("-inf"),
            "check": {"name": "c", "passed": True, "value": 1.0, "tolerance": 1e-9, "detail": ""}}
        assert '"inf": Infinity' in text and '"neg_inf": -Infinity' in text

    def test_to_json_refuses_an_unknown_object(self):
        doc = ReportDocument(command="c", grid={}, results={"x": object()})
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            doc.to_json()

    def test_records_serialize_from_their_fields(self, shannon, ex2, grid, wide_grid):
        # a condition report as its fields; the certificate in its nested shape
        rep, cert = check_sz04(ex2, wide_grid), check_sz99(shannon, grid)
        doc = ReportDocument(command="c", grid={}, results={"report": rep, "certificate": cert})
        data = json.loads(doc.to_json())["results"]
        assert data["report"]["checks"] == [
            {"name": c.name, "passed": c.passed, "value": c.value, "tolerance": c.tolerance,
             "detail": c.detail} for c in rep.checks]
        consts = data["report"]["constants"]
        assert consts["piece_ratios"] == rep.constants["piece_ratios"].tolist()
        worst = rep.constants["worst_piece"]
        assert consts["worst_piece"] == (None if worst is None else list(worst))
        assert data["certificate"] == json.loads(json.dumps(cert.to_dict()))
        assert data["certificate"]["zak_bound"]["lower"] == cert.zak_lower


def run_cli(args):
    return main(args)


class TestCLI:
    def test_analyze_shannon(self, tmp_path, capsys):
        rc = run_cli(["analyze", "shannon", "--json", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["schema"] == 1
        assert data["verdict"] == "pass"
        assert data["results"]["frame_bounds"] == {"A": 1.0, "B": 1.0}

    def test_analyze_csv_emission_reparses(self, tmp_path):
        out = tmp_path / "gz.csv"
        rc = run_cli(["analyze", "shannon", "--csv", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0] == "omega,grammian,abs_zak"
        assert len(text) == 1 + 1024

    def test_analyze_ex3_passes(self):
        assert run_cli(["analyze", "ex3"]) == 0

    def test_analyze_ex2_widens_grid(self, tmp_path):
        rc = run_cli(["analyze", "ex2", "--nmax", "60", "--json", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["grid"]["K"] == 64
        a = data["results"]["frame_bounds"]["A"]
        b = data["results"]["frame_bounds"]["B"]
        assert 1.0 <= a <= b <= 6.6

    def test_unknown_signal_lists_catalog(self, capsys):
        rc = run_cli(["analyze", "nosuch"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "shannon" in err and "ex2" in err

    def test_membership_theorem5_pass_and_emit(self, tmp_path):
        out = tmp_path / "kernel.csv"
        rc = run_cli(["membership", "ex2", "--theorem", "5", "--emit-s", str(out)])
        assert rc == 0
        grid = FrequencyGrid(64, 1024)  # ex2 widens the default grid to K = 64
        want = construct_s_from_f(build_signal("ex2", grid), grid).sampling_spectrum
        for read_at in (grid, FrequencyGrid(32, 1024)):  # a narrower grid reads it onto K = 64
            kernel = sio.read_grid_spectrum(out, read_at)
            assert kernel.grid == grid and kernel.required_half_bandwidth() == 64
            band, rows = kernel.band_values(grid)
            assert band == want.band
            np.testing.assert_array_equal(rows, want.rows)
        with pytest.raises(BandwidthOverflowError) as err:
            kernel.band_values(FrequencyGrid(32, 1024))
        assert err.value.required_k == 64

    def test_emitted_kernel_analyzes_at_the_widened_grid(self, tmp_path, capsys):
        # the kernel a theorem-5 run writes at K = 64 is analyzed there with no --K, and
        # refused under --K 32; its certificate is the one the same run prints under --K 64
        out = tmp_path / "k.csv"
        assert run_cli(["membership", "ex2", "--theorem", "5", "--emit-s", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(["analyze", str(out), "--json", str(tmp_path / "r.json")]) == 0
        widened = [line for line in capsys.readouterr().out.splitlines() if "certificate" in line]
        assert json.loads((tmp_path / "r.json").read_text())["grid"] == {"K": 64, "N": 1024}
        assert run_cli(["analyze", str(out), "--K", "64"]) == 0
        assert [line for line in capsys.readouterr().out.splitlines() if "certificate" in line] == widened
        assert main(["analyze", str(out), "--K", "32"]) == 1
        assert capsys.readouterr().err == ("error: spectrum support needs half-bandwidth K >= 64, "
                                           "grid has K = 32\n")

    def test_membership_theorem5_emits_truncated_time_kernel(self, tmp_path):
        out = tmp_path / "hat_kernel.csv"
        rc = run_cli(["membership", "hat", "--theorem", "5", "--emit-s", str(out)])
        assert rc == 0
        kernel = sio.read_grid_spectrum(out, FrequencyGrid(32, 1024))
        samples = integer_samples(kernel, kernel.grid, 512)
        delta = np.where(samples.ks == 0, 1.0, 0.0)
        assert float(np.max(np.abs(samples.values - delta))) < 1e-6

    def test_membership_sz04_fails(self):
        assert run_cli(["membership", "ex2", "--theorem", "sz04"]) == 2

    def test_membership_theorem5_precondition(self, capsys):
        rc = run_cli(["membership", "ex3", "--theorem", "5"])
        assert rc == 1
        assert "theorem-2" in capsys.readouterr().err

    def test_membership_theorem2_shannon(self):
        assert run_cli(["membership", "shannon", "--theorem", "2"]) == 0

    def test_membership_theorem1(self):
        assert run_cli(["membership", "blhat", "--theorem", "1", "--space", "shannon"]) == 0

    def test_reconstruct_delta_gives_kernel(self, tmp_path):
        samples = tmp_path / "delta0.csv"
        samples.write_text("k,re,im\n0,1,0\n")
        out = tmp_path / "rec.csv"
        rc = run_cli(["reconstruct", "--space", "shannon", "--samples", str(samples),
                      "--from", "-2", "--to", "2", "--points", "41", "--out", str(out)])
        assert rc == 0
        xs, vals = sio.read_reconstruction_csv(out)
        np.testing.assert_allclose(vals, np.sinc(xs), atol=1e-12)

    def test_reconstruct_lattice(self, tmp_path):
        # half-integer sampling of sqrt(2) sinc(2x): delta at lattice point 0
        samples = tmp_path / "s.csv"
        ks = np.arange(-40, 41)
        vals = np.sqrt(2) * np.sinc(ks / 2.0 * 2)
        sio.write_samples(TimeSamples(ks, vals, 512), samples)
        out = tmp_path / "rec.csv"
        rc = run_cli(["reconstruct", "--space", "shannon", "--samples", str(samples),
                      "--lattice", "2,0", "--from", "-1", "--to", "1",
                      "--points", "21", "--out", str(out)])
        assert rc == 0
        xs, got = sio.read_reconstruction_csv(out)
        np.testing.assert_allclose(got, np.sqrt(2) * np.sinc(2 * xs), atol=1e-9)

    def test_decompose_halves(self, tmp_path):
        parts = tmp_path / "halves.json"
        sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], parts)
        prefix = str(tmp_path / "comp")
        rc = run_cli(["decompose", "--space", "shannon", "--partition", str(parts),
                      "--out-prefix", prefix])
        assert rc == 0
        grid = FrequencyGrid(32, 1024)
        space = build_space(build_signal("shannon", grid), grid)
        halves = PeriodicPartition.from_intervals([[(0.0, 0.5)], [(0.5, 1.0)]], grid)
        for j, comp in enumerate(decompose(space, halves)):
            # the band's one occupied fold row (the other of shifts -1 and 0 is zero on this half,
            # and trimmed): 1,024 nodes and the header
            assert len((tmp_path / f"comp_{j}.csv").read_text().splitlines()) == 1025
            kernel = sio.read_grid_spectrum(f"{prefix}_{j}.csv", grid)
            want_band, want_rows = comp.sampling_spectrum.band_values(grid)
            band, rows = kernel.band_values(grid)
            assert band == want_band and band.stop - band.start == 1
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(kernel.values, comp.sampling_spectrum.values)

    @pytest.mark.parametrize("space", ["hat", "ex3"])
    def test_decompose_time_kernel_halves(self, tmp_path, space):
        # each component's Zak fiber is the masked parent fiber, not one
        # derived again from its spectrum truncated at K
        parts = tmp_path / "halves.json"
        sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], parts)
        rc = run_cli(["decompose", "--space", space, "--partition", str(parts),
                      "--out-prefix", str(tmp_path / "comp")])
        assert rc == 0

    def test_decompose_bad_partition(self, tmp_path):
        parts = tmp_path / "bad.json"
        sio.write_partition([[[0.0, 0.7]], [[0.5, 1.0]]], parts)
        rc = run_cli(["decompose", "--space", "shannon", "--partition", str(parts)])
        assert rc == 2

    def test_determine_pair_and_single(self, tmp_path):
        f1 = tmp_path / "f1.json"
        f2 = tmp_path / "f2.json"
        sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)]), f1)
        sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), f2)
        prefix = str(tmp_path / "det")
        rc = run_cli(["determine", "--space", "shannon",
                      "--functions", f"{f1},{f2}", "--out-prefix", prefix])
        assert rc == 0
        # mask files re-parse under the partition reader
        masks = sio.read_partition(tmp_path / "det_mask_0.json")
        assert masks == [[(0.0, 0.5)]]
        alphas = sio.read_periodic_csv(tmp_path / "det_alpha_0.csv")
        assert set(alphas) == {"omega", "re", "im"}
        rc_single = run_cli(["determine", "--space", "shannon", "--functions", str(f1)])
        assert rc_single == 2

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_determine_holds_the_kernel_residual(self, tmp_path, capsys, n):
        # the half-band pair covers the support set at both resolutions; at
        # N = 4096 the multipliers divide by the Zak fiber of samples cut at the
        # default --kmax 512, the recovered kernel misses by 0.6, and that fails
        for name, piece in (("low", (-0.5, 0.0, 1.0)), ("high", (0.0, 0.5, 1.0))):
            sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([piece]), tmp_path / f"{name}.json")
        report = tmp_path / "r.json"
        rc = run_cli(["determine", "--space", "shannon", "--functions",
                      f"{tmp_path}/low.json,{tmp_path}/high.json", "--N", str(n), "--json", str(report)])
        err = capsys.readouterr().err
        checks = json.loads(report.read_text())["results"]["checks"]
        assert [c["name"] for c in checks] == ["symmetric_difference", "kernel_residual"]
        assert checks[0]["passed"]
        if n == 1024:
            assert rc == 0 and checks[1]["passed"] and err == ""
        else:
            assert rc == 2 and not checks[1]["passed"]
            assert err.startswith("  failed check kernel_residual: value=0.6")

    def test_analyze_csv_reparses(self, tmp_path):
        out = tmp_path / "gz.csv"
        assert run_cli(["analyze", "shannon", "--csv", str(out)]) == 0
        cols = sio.read_periodic_csv(out)
        np.testing.assert_allclose(cols["grammian"], 1.0)
        np.testing.assert_allclose(cols["abs_zak"], 1.0)

    def test_analyze_grid_spectrum_file(self, tmp_path, capsys, grid):
        path = tmp_path / "b.csv"
        sio.write_grid_spectrum(build_signal("blhat", grid), path)
        assert run_cli(["analyze", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert run_cli(["analyze", "blhat"]) == 0
        assert from_file == capsys.readouterr().out.replace("signal=blhat", f"signal={path}")
        assert run_cli(["analyze", str(path), "--N", "2048"]) == 1
        assert capsys.readouterr().err == "error: line 3: expected omega -0.99951171875 (N = 2048)\n"

    def test_env_grid_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SISBOX_GRID", "16,512")
        rc = run_cli(["analyze", "shannon", "--json", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["grid"] == {"K": 16, "N": 512}

    def test_malformed_env_grid_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("SISBOX_GRID", "16")
        assert run_cli(["analyze", "shannon"]) == 1
        assert capsys.readouterr().err == "usage error: SISBOX_GRID must be 'K,N', got '16'\n"

    def test_flags_beat_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SISBOX_GRID", "16,512")
        rc = run_cli(["analyze", "shannon", "--K", "32", "--N", "1024",
                      "--json", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["grid"] == {"K": 32, "N": 1024}

    def test_deterministic_given_same_flags(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["membership", "ex2", "--theorem", "5", "--seed", "3",
                        "--json", str(p1)]) == 0
        assert run_cli(["membership", "ex2", "--theorem", "5", "--seed", "3",
                        "--json", str(p2)]) == 0
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("timing_s")
        d2.pop("timing_s")
        assert d1 == d2

    def test_reconstruct_refuses_uncertified_space(self, tmp_path, capsys):
        # cancelling periodization: positive Grammian but vanishing Zak
        # fiber, so the space certificate fails and the command refuses
        gen = tmp_path / "bad_gen.json"
        sio.write_piecewise_spectrum(
            PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)]), gen)
        samples = tmp_path / "delta0.csv"
        samples.write_text("k,re,im\n0,1,0\n")
        rc = run_cli(["reconstruct", "--space", str(gen), "--samples", str(samples)])
        assert rc == 2
        assert "refused" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli(["membership", "shannon"]) == 1  # missing --theorem

    def test_malformed_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,re,im\n0,nope,0\n")
        rc = run_cli(["reconstruct", "--space", "shannon", "--samples", str(bad)])
        assert rc == 1
        assert "line" in capsys.readouterr().err


ERROR_CASES = [
    # (argv, exit code, stderr prefix); {d} is a directory holding the inputs
    (["analyze", "{d}/far.json", "--K", "32"], 1, "error: spectrum support needs"),
    (["analyze", "shannon", "--eps", "0"], 1, "usage error: argument --eps"),
    (["analyze", "shannon", "--eps", "-1"], 1, "usage error: argument --eps"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--points", "0",
      "--out", "{d}/rec.csv"], 1, "usage error: argument --points"),
    (["reconstruct", "--space", "ex2", "--samples", "{d}/far_samples.csv",
      "--out", "{d}/rec.csv"], 1, "error: sample indices"),
    (["analyze", "shannon", "--kmax", "-5"], 1, "usage error: argument --kmax"),
    (["analyze", "ex2", "--nmax", "-1"], 1, "usage error: argument --nmax"),
    (["analyze", "shannon", "--seed", "-1"], 1, "usage error: argument --seed"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--lattice", "0,0",
      "--out", "{d}/rec.csv"], 1, "usage error: --lattice"),
    (["membership", "ex3", "--theorem", "5"], 1, "error:"),
    (["reconstruct", "--space", "{d}/bad_gen.json", "--samples", "{d}/delta0.csv"], 2, "refused:"),
    (["decompose", "--space", "shannon", "--partition", "{d}/overlap.json"], 2, "failed:"),
    # a band past the auto-widening limit is refused, not allocated
    (["analyze", "{d}/very_far.json"], 1, "error: spectrum support needs"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/missing.csv",
      "--out", "{d}/rec.csv"], 1, "error: cannot read"),
    (["decompose", "--space", "shannon", "--partition", "{d}/missing.json"], 1, "error: cannot read"),
    # the width 2^-n of ex2's last block is 0 from n = 1075 on
    (["analyze", "ex2", "--nmax", "1100"], 1, "error: n_max = 1100"),
    # the block [64, 64 + 2^-64) does not fit K = 64
    (["analyze", "ex2", "--nmax", "64", "--K", "64"], 1, "error: spectrum support needs"),
    (["analyze", "{d}/tiny_step.csv", "--K", "1", "--N", "2"], 1, "error: line 3: expected omega 0.5 (N = 2)"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/huge_index.csv",
      "--out", "{d}/rec.csv"], 1, "error: line 2: sample index 1e+300 is not a machine integer"),
    # at eps >= 1 every support set is empty and every criterion vacuous
    (["membership", "ex2", "--theorem", "sz04", "--eps", "1"], 1, "usage error: argument --eps"),
    (["analyze", "shannon", "--eps", "inf"], 1, "usage error: argument --eps"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--from", "nan",
      "--out", "{d}/rec.csv"], 1, "usage error: argument --from"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--to", "inf",
      "--out", "{d}/rec.csv"], 1, "usage error: argument --to"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--lattice", "1,nan",
      "--out", "{d}/rec.csv"], 1, "usage error: --lattice"),
    # samples whose sum overflows at x = 1/2: no inf or nan rows are written
    (["reconstruct", "--space", "shannon", "--samples", "{d}/huge_values.csv", "--from", "0",
      "--to", "1", "--points", "3", "--out", "{d}/rec.csv"], 1, "error: reconstruction is not finite"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/delta0.csv", "--lattice", "2",
      "--out", "{d}/rec.csv"], 1, "usage error: --lattice expects 'a,b'"),
    (["analyze", "{d}/not_a_list.json"], 1, "error: line 1: expected a JSON list"),
    (["analyze", "{d}/no_ends.json"], 1, "error: record 0 must carry keys a, b"),
    (["analyze", "{d}/overlapping.json"], 1, "error: intervals overlap near 0.5"),
    (["analyze", "{d}/three_rows.csv"], 1, "error: line 2: a fold row has N = 1024 nodes, the last 3"),
    (["analyze", "{d}/uneven_omega.csv", "--K", "1", "--N", "2"], 1, "error: line 4: expected omega 0.0 (N = 2)"),
    (["analyze", "{d}/five_rows.csv", "--K", "1", "--N", "2"], 1,
     "error: line 6: a fold row has N = 2 nodes, the last 1"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/duplicate.csv",
      "--out", "{d}/rec.csv"], 1, "error: line 1: duplicate sample indices"),
    (["decompose", "--space", "shannon", "--partition", "{d}/no_masks.json"], 1,
     "error: line 1: expected a nonempty JSON list"),
    (["decompose", "--space", "shannon", "--partition", "{d}/past_one.json"], 1,
     "error: mask 0 pair 0 [0.5, 1.5) must sit inside [0, 1]"),
]


@pytest.fixture
def error_inputs(tmp_path):
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(40.0, 41.0, 1.0)]),
                                 tmp_path / "far.json")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(1e6, 1e6 + 1.0, 1.0)]),
                                 tmp_path / "very_far.json")
    sio.write_piecewise_spectrum(
        PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)]), tmp_path / "bad_gen.json")
    (tmp_path / "delta0.csv").write_text("k,re,im\n0,1,0\n")
    (tmp_path / "far_samples.csv").write_text("k,re,im\n0,1,0\n1024,1,0\n")
    (tmp_path / "huge_index.csv").write_text("k,re,im\n1e300,1,0\n")
    (tmp_path / "huge_values.csv").write_text("k,re,im\n0,1.7e308,0\n1,1.7e308,0\n")
    (tmp_path / "tiny_step.csv").write_text("omega,re,im\n0,1,0\n1e-320,1,0\n2e-320,1,0\n3e-320,1,0\n")
    (tmp_path / "huge_step.csv").write_text("omega,re,im\n1.7e308,1,0\n-1.7e308,1,0\n")
    sio.write_partition([[[0.0, 0.7]], [[0.5, 1.0]]], tmp_path / "overlap.json")
    (tmp_path / "not_a_list.json").write_text('{"a": 0, "b": 1}')
    (tmp_path / "no_ends.json").write_text('[{"re": 1}]')
    (tmp_path / "overlapping.json").write_text('[{"a": 0, "b": 1, "re": 1}, {"a": 0.5, "b": 2, "re": 1}]')
    (tmp_path / "three_rows.csv").write_text("omega,re,im\n-1,1,0\n-0.5,1,0\n0,1,0\n")
    (tmp_path / "uneven_omega.csv").write_text("omega,re,im\n-1,1,0\n-0.5,1,0\n0.25,1,0\n0.5,1,0\n")
    (tmp_path / "five_rows.csv").write_text("omega,re,im\n" + "".join(
        f"{w},1,0\n" for w in (-1, -0.5, 0, 0.5, 1)))
    (tmp_path / "duplicate.csv").write_text("k,re,im\n0,1,0\n0,2,0\n")
    sio.write_partition([], tmp_path / "no_masks.json")
    sio.write_partition([[[0.5, 1.5]]], tmp_path / "past_one.json")
    return tmp_path


@pytest.mark.parametrize("argv, code, prefix", ERROR_CASES)
def test_error_exit_codes_without_traceback(error_inputs, capsys, argv, code, prefix):
    rc = main([a.format(d=error_inputs) for a in argv])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, prefix", [
    (["reconstruct", "--space", "shannon", "--samples", "{d}/huge_index.csv", "--out", "{d}/rec.csv"],
     "error: line 2: sample index 1e+300 is not a machine integer"),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/huge_values.csv", "--from", "0",
      "--to", "1", "--points", "3", "--out", "{d}/rec.csv"], "error: reconstruction is not finite"),
    (["analyze", "{d}/huge_step.csv", "--K", "1", "--N", "2"], "error: line 3: expected omega 1.7e+308 (N = 2)")],
    ids=["index-cast", "value-overflow", "step-overflow"])
def test_refusal_raises_no_numpy_warning(error_inputs, capsys, argv, prefix):
    # the error line is all stderr carries: no cast or overflow warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([a.format(d=error_inputs) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err.startswith(prefix)


def test_points_past_the_split_overflow_reconstruct(error_inputs, capsys):
    # Dekker's split overflowed past |x| ~ 1.34e300: this run exited 1 ("not finite")
    out = error_inputs / "rec.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["reconstruct", "--space", "shannon", "--samples", str(error_inputs / "delta0.csv"),
                   "--from", "1.5e300", "--to", "1.6e300", "--points", "3", "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 1:], np.zeros((3, 2)))  # sinc at integers


def test_file_spectrum_widens_grid(error_inputs, capsys):
    # without --K the grid widens to the band the file's spectrum needs
    report = error_inputs / "far_report.json"
    rc = main(["analyze", str(error_inputs / "far.json"), "--json", str(report)])
    out, err = capsys.readouterr()
    assert rc in (0, 2)
    assert "grid K=64" in out
    assert json.loads(report.read_text())["grid"] == {"K": 64, "N": 1024}
    assert "error:" not in err and "Traceback" not in err


def test_each_input_is_loaded_once(error_inputs, monkeypatch, capsys):
    # every command loads each of its inputs once, whatever its kind, and widens K from it
    # (far.json and ex2 need K = 64)
    from sisbox import cli

    loads = []

    def counted(load):
        def wrapper(ref, *args, **kwargs):
            loads.append(os.path.basename(str(ref)))
            return load(ref, *args, **kwargs)
        return wrapper

    for module, name in ((sio, "read_piecewise_spectrum"), (sio, "read_grid_spectrum"), (cli, "build_signal")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    d = error_inputs
    sio.write_grid_spectrum(build_signal("blhat", FrequencyGrid(32, 1024)), d / "blhat.csv")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), d / "low.json")
    sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], d / "halves.json")
    for argv, inputs, k in [
            (["analyze", f"{d}/far.json"], ["far.json"], 64),
            (["analyze", f"{d}/blhat.csv"], ["blhat.csv"], 32),
            (["membership", f"{d}/low.json", "--theorem", "1", "--space", "shannon"], ["low.json", "shannon"], 32),
            (["membership", "ex2", "--theorem", "sz04"], ["ex2"], 64),
            (["reconstruct", "--space", "shannon", "--samples", f"{d}/delta0.csv", "--out", f"{d}/r.csv"],
             ["shannon"], 32),
            (["decompose", "--space", f"{d}/blhat.csv", "--partition", f"{d}/halves.json",
              "--out-prefix", f"{d}/c"], ["blhat.csv"], 32),
            (["determine", "--space", "shannon", "--functions", f"{d}/low.json,blhat"],
             ["shannon", "low.json", "blhat"], 32)]:
        loads.clear()
        (d / "r.json").unlink(missing_ok=True)
        assert main(argv + ["--json", f"{d}/r.json"]) in (0, 2), argv
        assert loads == inputs, argv
        assert json.loads((d / "r.json").read_text())["grid"] == {"K": k, "N": 1024}, argv


def test_space_is_loaded_only_where_theorem_1_reads_it(capsys):
    # --space names theorem 1's ambient space; no other criterion reads it, or loads it
    assert main(["membership", "shannon", "--theorem", "2", "--space", "nosuch"]) == 0
    assert main(["membership", "shannon", "--theorem", "1", "--space", "nosuch"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown signal 'nosuch'")


def test_a_wide_interval_file_is_refused_before_it_is_cut_up(tmp_path, capsys):
    # [0, 1e12) and [1e300, 1e300 + 2^996) would be cut into 10^12 and ~2^996 unit pieces
    (tmp_path / "wide.json").write_text(json.dumps(
        [{"a": 0, "b": 1e12, "re": 1}, {"a": 1e300, "b": 1e300 + 2.0 ** 996, "re": 1}]))
    started = time.monotonic()
    assert main(["analyze", str(tmp_path / "wide.json")]) == 1
    assert time.monotonic() - started < 5
    # the need of the far interval, 2^998 (1e300 + 2^996 lies in (2^997, 2^998]), past any widening
    want = f"error: spectrum support needs half-bandwidth K >= {2 ** 998}, grid has K = 32\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("argv", [
    ["analyze", "shannon", "--N", str(2 ** 40)],  # a 32 TiB band
    ["analyze", "shannon", "--K", str(2 ** 61), "--N", "2"],  # 2KN nodes past any one array
    ["reconstruct", "--space", "shannon", "--samples", "s.csv", "--points", "4000000000"]])  # 29.8 GiB of points
def test_an_oversized_input_ends_in_one_error_line(tmp_path, argv):
    # each command runs in a child whose address space is held to 2 GiB, so nothing of
    # these sizes is ever allocated: a grid that cannot be one array is a usage error, and
    # an allocation past the machine's memory is an error, exit 1, with no traceback
    (tmp_path / "s.csv").write_text("k,re,im\n0,1,0\n")
    code = ("import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from sisbox.cli import main\nsys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(sio.__file__).resolve().parents[1]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "error: " in done.stderr


def test_a_grid_spectrum_no_grid_holds_is_refused(tmp_path, capsys):
    # rows at omega = 1e300 need K ~ 2^997, which no grid of 2KN nodes reaches: the reader
    # refuses the spectrum's band, as for one past the widening
    (tmp_path / "far.csv").write_text("omega,re,im\n1e300,1,0\n1e300,1,0\n")
    assert main(["analyze", str(tmp_path / "far.csv"), "--N", "2"]) == 1
    assert capsys.readouterr().err.startswith("error: spectrum support needs half-bandwidth K >= ")


def test_refusal_stderr_is_short(tmp_path, capsys):
    # theorem 5 passes on the exact pieces, but inside one grid cell the
    # periodization cancels, so the kernel construction refuses
    sio.write_piecewise_spectrum(
        PiecewiseConstantSpectrum([(0.0, 2 ** -11, 1.0), (1 + 2 ** -11, 1 + 2 ** -10, -1.0)]),
        tmp_path / "subcell.json")
    rc = main(["membership", str(tmp_path / "subcell.json"), "--theorem", "5",
               "--emit-s", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("refused:")
    assert len(err.splitlines()) <= 10
    assert "Traceback" not in err


def test_refusal_lists_each_failed_check(error_inputs, capsys):
    # one stderr line for each check the library's certificate fails, none for a passed one
    rc = main(["reconstruct", "--space", str(error_inputs / "bad_gen.json"), "--K", "32", "--N", "1024",
               "--samples", str(error_inputs / "delta0.csv"), "--out", str(error_inputs / "r.csv")])
    lines = capsys.readouterr().err.splitlines()
    report = check_sz99(sio.read_piecewise_spectrum(error_inputs / "bad_gen.json"), FrequencyGrid(32, 1024))
    assert rc == 2
    assert lines[0] == "refused: sampling-space certificate failed"
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"  failed check {c.name}" for c in report.checks if not c.passed] == ["  failed check zak_two_sided"]


def test_grid_spectrum_keeps_the_continuity_falsifier(error_inputs, capsys):
    # far.json's block sampled on its grid is a grid spectrum, which keeps the
    # falsifier: its time function's fast slope fails it, and only it
    grid = FrequencyGrid(64, 1024)
    far = GridSpectrum(sio.read_piecewise_spectrum(error_inputs / "far.json").grid_values(grid), grid)
    sio.write_grid_spectrum(far, error_inputs / "far.csv")
    report = check_sz99(far, grid)
    assert report.continuity_verdict == "fail" and report.continuity_threshold == 0.125
    assert report.checks[0].detail == "fail" and report.continuity_max_jump > 0.125
    rc = main(["reconstruct", "--space", str(error_inputs / "far.csv"), "--K", "64", "--N", "1024",
               "--samples", str(error_inputs / "delta0.csv"), "--out", str(error_inputs / "r.csv")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert lines[0] == "refused: sampling-space certificate failed"
    assert len(lines) == 2 and lines[1].startswith("  failed check continuity: value=")
    assert "tolerance=0.125" in lines[1]
    assert lines[1].endswith(" (fail)")  # the check's detail: the continuity verdict


@pytest.mark.parametrize("piece, k", [((40.0, 41.0, 1.0), None), ((10.0, 11.0, 1.0), "16")])
def test_wide_band_interval_spectrum_reconstructs(tmp_path, capsys, piece, k):
    # continuous by proof: the certificate no longer refuses a fast slope (far.json's
    # [40, 41) block widens the grid to K = 64), and the delta sample rebuilds the kernel
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([piece]), tmp_path / "far.json")
    (tmp_path / "delta0.csv").write_text("k,re,im\n0,1,0\n")
    rc = main(["reconstruct", "--space", str(tmp_path / "far.json"), "--samples", str(tmp_path / "delta0.csv"),
               "--N", "1024", *(["--K", k] if k else []), "--from", "-2", "--to", "2", "--points", "9",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 0 and "refused" not in capsys.readouterr().err
    rows = np.loadtxt(tmp_path / "r.csv", delimiter=",", skiprows=1)
    want = PiecewiseConstantSpectrum([piece]).time_values(rows[:, 0])
    np.testing.assert_allclose(rows[:, 1] + 1j * rows[:, 2], want, atol=1e-12)


def test_vanishing_zak_is_refused_by_the_certificate(error_inputs, capsys):
    # bad_gen.json's Zak fiber vanishes on its support set: the certificate's
    # zak_two_sided check refuses it and names where A_Z is attained
    rc = main(["reconstruct", "--space", str(error_inputs / "bad_gen.json"),
               "--samples", str(error_inputs / "delta0.csv"), "--out", str(error_inputs / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "refused: sampling-space certificate failed",
        "  failed check zak_two_sided: value=0.0 tolerance=0.0 "
        "(A at omega = 0, B = 0, off-support max 0 vs limit 0)"]


@pytest.mark.parametrize("argv, prefix", [
    (["membership", "{d}/nan.json", "--theorem", "5"], "error: record 0 re: "),
    (["membership", "{d}/nan.json", "--theorem", "2"], "error: record 0 re: "),
    (["analyze", "{d}/inf.json"], "error: record 0 re: "),
    (["reconstruct", "--space", "shannon", "--samples", "{d}/nan_samples.csv",
      "--out", "{d}/rec.csv"], "error: line 3: "),
], ids=["theorem5-nan", "theorem2-nan", "analyze-inf", "reconstruct-nan-sample"])
def test_non_finite_input_exits_1_without_traceback(tmp_path, capsys, argv, prefix):
    # NaN spectra used to pass theorem 5 vacuously, NaN samples to reconstruct NaN
    (tmp_path / "nan.json").write_text('[{"a": -0.5, "b": 0.5, "re": NaN, "im": 0}]\n')
    (tmp_path / "inf.json").write_text('[{"a": -0.5, "b": 0.5, "re": 1e999, "im": 0}]\n')
    (tmp_path / "nan_samples.csv").write_text("k,re,im\n0,1,0\n1,nan,0\n")
    rc = main([a.format(d=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith(prefix) and "non-finite" in err
    assert "Traceback" not in err and "verdict: pass" not in out
    assert not (tmp_path / "rec.csv").exists()


# every report field the benchmark's golden comparison reads, by command
REPORT_KEYS = {
    "analyze": [("results", "frame_bounds", "A"), ("results", "frame_bounds", "B"),
                ("results", "support_measure"), ("results", "certificate", "continuity", "verdict"),
                ("results", "certificate", "zak_bound", "lower"),
                ("results", "certificate", "zak_bound", "upper"),
                ("results", "certificate", "shift_square_sum", "passed")],
    "theorem": [("results", "report", "checks"), ("results", "report", "constants", "A"),
                ("results", "report", "constants", "B")],
    "induced": [("results", "induced", "member_residual"),
                ("results", "induced", "kernel_mask_residual"),
                ("results", "induced", "kernel_projection_residual"),
                ("results", "induced", "subspace_measure")],
    "reconstruct": [("results", "route")],
    "decompose": [("results", "components"), ("results", "component_measures"),
                  ("results", "kernel_sum_gap", "passed")],
    "determine": [("results", "union_measure"), ("results", "member_measures")],
}


def check_records(results: dict) -> list[dict]:
    if "report" in results:
        return results["report"]["checks"]
    if "induced" in results:
        return [v for v in results["induced"].values() if isinstance(v, dict)]
    return [results["kernel_sum_gap"]] if "kernel_sum_gap" in results else []


def test_every_command_report_keeps_its_shape(tmp_path, capsys):
    (tmp_path / "delta0.csv").write_text("k,re,im\n0,1,0\n")
    sio.write_partition([[[0.0, 0.5]], [[0.5, 1.0]]], tmp_path / "halves.json")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(-0.5, 0.0, 1.0)]), tmp_path / "low.json")
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(0.0, 0.5, 1.0)]), tmp_path / "high.json")
    d = str(tmp_path)
    runs = [("analyze", ["analyze", "shannon"]),
            ("induced", ["membership", f"{d}/low.json", "--theorem", "1", "--space", "shannon"]),
            *[("theorem", ["membership", "ex2", "--theorem", t]) for t in ("2", "5", "sz04")],
            ("reconstruct", ["reconstruct", "--space", "shannon", "--samples", f"{d}/delta0.csv",
                             "--points", "11", "--out", f"{d}/rec.csv"]),
            ("decompose", ["decompose", "--space", "shannon", "--partition", f"{d}/halves.json",
                           "--out-prefix", f"{d}/comp"]),
            ("determine", ["determine", "--space", "shannon", "--functions",
                           f"{d}/low.json,{d}/high.json"])]
    for i, (kind, argv) in enumerate(runs):
        report = tmp_path / f"report_{i}.json"
        assert main([*argv, "--json", str(report)]) in (0, 2), argv
        data = json.loads(report.read_text())
        for key in ("schema", "command", "grid", "params", "tails", "timing_s", "seed", "verdict"):
            assert key in data, (argv, key)
        assert set(data["grid"]) == {"K", "N"}
        for path in REPORT_KEYS[kind]:
            node = data
            for key in path:
                assert key in node, (argv, path)
                node = node[key]
        for record in check_records(data["results"]):
            assert set(record) == {"name", "passed", "value", "tolerance", "detail"}, (argv, record)
    assert "Traceback" not in capsys.readouterr().err
