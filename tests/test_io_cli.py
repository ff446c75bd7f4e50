import json
import os

import numpy as np
import pytest

from sisbox import FrequencyGrid, GridSpectrum, PiecewiseConstantSpectrum, TimeSamples
from sisbox import io as sio
from sisbox.cli import main
from sisbox.errors import FileFormatError
from sisbox.reports import ReportDocument


class TestFileFormats:
    def test_piecewise_roundtrip(self, tmp_path):
        sig = PiecewiseConstantSpectrum([(-0.5, 0.25, 1.0 + 2.0j), (0.25, 1.0, -0.5)])
        path = tmp_path / "spec.json"
        sio.write_piecewise_spectrum(sig, path)
        back = sio.read_piecewise_spectrum(path)
        grid = FrequencyGrid(4, 64)
        np.testing.assert_allclose(back.grid_values(grid), sig.grid_values(grid))

    def test_grid_roundtrip(self, tmp_path):
        grid = FrequencyGrid(4, 64)
        rng = np.random.default_rng(1)
        sig = GridSpectrum(rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size), grid)
        path = tmp_path / "spec.csv"
        sio.write_grid_spectrum(sig, path)
        back = sio.read_grid_spectrum(path)
        assert back.grid == grid
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

    def test_malformed_samples_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,re,im\n0,1,0\nbroken line\n")
        with pytest.raises(FileFormatError) as err:
            sio.read_samples(path)
        assert err.value.line == 3

    def test_non_integer_sample_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1,0\n")
        with pytest.raises(FileFormatError) as err:
            sio.read_samples(path)
        assert err.value.line == 1

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"a": 0, "b": }\n]\n')
        with pytest.raises(FileFormatError) as err:
            sio.read_piecewise_spectrum(path)
        assert err.value.line == 2


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
        kernel = sio.read_grid_spectrum(out)
        assert kernel.grid.half_bandwidth == 64

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
        for j in range(2):
            kernel = sio.read_grid_spectrum(f"{prefix}_{j}.csv")
            assert kernel.grid == FrequencyGrid(32, 1024)

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

    def test_analyze_csv_reparses(self, tmp_path):
        out = tmp_path / "gz.csv"
        assert run_cli(["analyze", "shannon", "--csv", str(out)]) == 0
        cols = sio.read_periodic_csv(out)
        np.testing.assert_allclose(cols["grammian"], 1.0)
        np.testing.assert_allclose(cols["abs_zak"], 1.0)

    def test_env_grid_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SISBOX_GRID", "16,512")
        rc = run_cli(["analyze", "shannon", "--json", str(tmp_path / "r.json")])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["grid"] == {"K": 16, "N": 512}

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
    (["analyze", "{d}/far.json"], 1, "error: spectrum support needs"),
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
]


@pytest.fixture
def error_inputs(tmp_path):
    sio.write_piecewise_spectrum(PiecewiseConstantSpectrum([(40.0, 41.0, 1.0)]),
                                 tmp_path / "far.json")
    sio.write_piecewise_spectrum(
        PiecewiseConstantSpectrum([(0.0, 0.5, 1.0), (1.0, 1.5, -1.0)]), tmp_path / "bad_gen.json")
    (tmp_path / "delta0.csv").write_text("k,re,im\n0,1,0\n")
    (tmp_path / "far_samples.csv").write_text("k,re,im\n0,1,0\n1024,1,0\n")
    sio.write_partition([[[0.0, 0.7]], [[0.5, 1.0]]], tmp_path / "overlap.json")
    return tmp_path


@pytest.mark.parametrize("argv, code, prefix", ERROR_CASES)
def test_error_exit_codes_without_traceback(error_inputs, capsys, argv, code, prefix):
    rc = main([a.format(d=error_inputs) for a in argv])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix)
    assert "Traceback" not in err
