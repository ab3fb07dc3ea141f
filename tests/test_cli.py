"""Command-line driver: exit codes, CSV formats, round trips, determinism."""
import math
import subprocess
import sys

import numpy as np
import pytest

from xft import GaussianParams, asymptotic_zeros, gaussian_sample
from xft.calibration import FIGURE1_MAX_ABS
from xft.cli import main


def read_csv(path, header):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class TestGrid:
    def test_asymptotic_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--n", "4", "--output", str(out)]) == 0
        rows = read_csv(out, "k,x")
        assert rows[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rows[:, 1] == pytest.approx(asymptotic_zeros(4).nodes, abs=1e-15)

    def test_exact_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--n", "3", "--exact", "--output", str(out)]) == 0
        rows = read_csv(out, "k,x")
        assert rows[:, 1] == pytest.approx([-1.2247449, 0.0, 1.2247449], abs=1e-6)


class TestTransform:
    def test_figure_configuration_rows(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["transform", "--n", "512", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,2,3", "--output", str(out)])
        assert rc == 0
        rows = read_csv(out, "y,re,im")
        assert rows.shape == (512, 3)
        grid = asymptotic_zeros(512)
        assert rows[:, 0] == pytest.approx((8 / np.pi) * grid.nodes, abs=1e-12)

    def test_identity_branch(self, tmp_path):
        out = tmp_path / "id.csv"
        rc = main(["transform", "--n", "4", "--params", "1,0,0,1",
                   "--function", "gaussian:1,0,0", "--output", str(out)])
        assert rc == 0
        rows = read_csv(out, "y,re,im")
        samples = gaussian_sample(GaussianParams(1, 0, 0), asymptotic_zeros(4))
        assert rows[:, 1] == pytest.approx(samples.values.real, abs=1e-15)
        assert rows[:, 2] == pytest.approx(samples.values.imag, abs=1e-15)
        assert rows[:, 0] == pytest.approx(asymptotic_zeros(4).nodes, abs=1e-15)

    def test_non_unimodular_exits_3(self):
        assert main(["transform", "--n", "8", "--params", "1,1,1,1",
                     "--function", "gaussian:1,0,0"]) == 3

    @pytest.mark.parametrize("check", [[], ["--no-unimodular-check"]])
    @pytest.mark.parametrize("spec", [["--params", "nan,1,0,1"],
                                      ["--params", "1,1,nan,1"],
                                      ["--preset", "fresnel:inf"],
                                      ["--preset", "frft:inf"]])
    def test_nonfinite_params_exit_3(self, spec, check):
        assert main(["transform", "--n", "8", *spec, *check,
                     "--function", "gaussian:1,0,0"]) == 3

    def test_unimodular_escape_hatch(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["transform", "--n", "8", "--params", "1,1,1,1.0000005",
                   "--function", "gaussian:1,0,0", "--no-unimodular-check",
                   "--output", str(out)])
        assert rc == 0

    def test_b_zero_with_csv_input_exits_3(self, tmp_path):
        src = tmp_path / "in.csv"
        main(["transform", "--n", "4", "--params", "1,0,0,1",
              "--function", "gaussian:1,0,0", "--output", str(src)])
        body = src.read_text(encoding="utf-8").replace("y,re,im", "x,re,im")
        src.write_text(body, encoding="utf-8")
        assert main(["transform", "--n", "4", "--params", "1,0,0,1",
                     "--input", str(src)]) == 3

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,re,im\n1,2\n", encoding="utf-8")
        assert main(["transform", "--n", "1", "--preset", "fourier",
                     "--input", str(bad)]) == 2

    def test_grid_mismatch_exits_4_and_prints_grid(self, tmp_path, capsys):
        bad = tmp_path / "off.csv"
        bad.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n", encoding="utf-8")
        assert main(["transform", "--n", "2", "--preset", "fourier",
                     "--input", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "expected grid" in err

    def test_missing_input_choice_exits_2(self):
        assert main(["transform", "--n", "4", "--preset", "fourier"]) == 2
        assert main(["transform", "--n", "4", "--params", "0,1,-1,0",
                     "--preset", "fourier", "--function", "gaussian:1,0,0"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["transform", "--n", "64", "--preset", "frft:0.6",
                "--function", "gaussian:1,0.5,0"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format_lossless(self, tmp_path):
        out = tmp_path / "fmt.csv"
        main(["transform", "--n", "16", "--preset", "fourier",
              "--function", "gaussian:1,0.25,0", "--output", str(out)])
        data = out.read_bytes()
        assert b"\r" not in data  # LF endings only
        rows = read_csv(out, "y,re,im")
        # 17 significant digits round-trip doubles exactly
        from xft import LctParams, fast_lct
        sig = gaussian_sample(GaussianParams(1, 0.25, 0), asymptotic_zeros(16))
        res = fast_lct(LctParams.fourier(), sig)
        assert np.array_equal(rows[:, 1], res.values.real)
        assert np.array_equal(rows[:, 2], res.values.imag)

    def test_csv_round_trip_through_inverse_params(self, tmp_path):
        # b = pi/4 scales the output grid onto the input grid, so the
        # transform CSV re-reads directly; the plain inverse quadruple
        # (d, -b, -c, a) then lands on the reversed grid.
        b = math.pi / 4
        fwd_csv = tmp_path / "fwd.csv"
        back_csv = tmp_path / "back.csv"
        n = 128
        rc = main(["transform", "--n", str(n), "--params", f"1,{b!r},0,1",
                   "--function", "gaussian:1,0,0", "--output", str(fwd_csv)])
        assert rc == 0
        body = fwd_csv.read_text(encoding="utf-8").replace("y,re,im", "x,re,im")
        fwd_csv.write_text(body, encoding="utf-8")
        rc = main(["transform", "--n", str(n), "--params", f"1,{-b!r},0,1",
                   "--input", str(fwd_csv), "--output", str(back_csv)])
        assert rc == 0
        rows = read_csv(back_csv, "y,re,im")
        recovered = (rows[:, 1] + 1j * rows[:, 2])[::-1]
        original = gaussian_sample(GaussianParams(1, 0, 0), asymptotic_zeros(n)).values
        assert np.max(np.abs(recovered - original)) <= 1e-10


class TestCompare:
    def test_figure1_closed_form_under_threshold(self, tmp_path, capsys):
        rc = main(["compare", "--n", "512", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,2,3", "--oracle", "closed-form",
                   "--max-abs", str(FIGURE1_MAX_ABS),
                   "--output", str(tmp_path / "err.csv")])
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        n, max_abs, rms, rel = summary.split(",")
        assert int(n) == 512
        assert float(max_abs) <= FIGURE1_MAX_ABS
        assert float(rms) <= float(max_abs)

    def test_dense_oracle_small_n(self, tmp_path, capsys):
        rc = main(["compare", "--n", "8", "--params", "0.8,1.7,-0.2,0.825",
                   "--no-unimodular-check", "--function", "gaussian:1,0,0",
                   "--oracle", "dense", "--output", str(tmp_path / "e.csv")])
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(summary.split(",")[1]) <= 1e-12

    def test_threshold_violation_exits_5(self, tmp_path):
        rc = main(["compare", "--n", "64", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,2,3", "--oracle", "closed-form",
                   "--max-abs", "1e-30", "--output", str(tmp_path / "e.csv")])
        assert rc == 5

    def test_quadrature_oracle(self, tmp_path, capsys):
        rc = main(["compare", "--n", "64", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,2,3", "--oracle", "quadrature",
                   "--oracle-tol", "1e-10",
                   "--max-abs", "1e-9", "--output", str(tmp_path / "e.csv")])
        assert rc == 0

    def test_inverse_round_trip(self, tmp_path, capsys):
        rc = main(["compare", "--n", "256", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,0.3,0.1", "--inverse",
                   "--max-abs", "1e-10", "--output", str(tmp_path / "inv.csv")])
        assert rc == 0

    def test_inverse_requires_positive_b(self, tmp_path):
        rc = main(["compare", "--n", "32", "--params", "1,-2,0.5,-2.25",
                   "--no-unimodular-check", "--function", "gaussian:1,0,0",
                   "--inverse", "--output", str(tmp_path / "inv.csv")])
        assert rc == 3

    def test_csv_input_needs_compatible_oracle(self, tmp_path):
        src = tmp_path / "in.csv"
        main(["transform", "--n", "8", "--params", f"1,{math.pi/4!r},0,1",
              "--function", "gaussian:1,0,0", "--output", str(src)])
        body = src.read_text(encoding="utf-8").replace("y,re,im", "x,re,im")
        src.write_text(body, encoding="utf-8")
        rc = main(["compare", "--n", "8", "--preset", "fourier",
                   "--input", str(src), "--oracle", "closed-form"])
        assert rc == 3


class TestBench:
    def test_single_size_row(self, tmp_path):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--sizes", "512", "--repeats", "2",
                     "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n\tseconds\tratio_vs_half"
        n, seconds, ratio = lines[1].split("\t")
        assert n == "512"
        assert float(seconds) > 0
        assert ratio == ""

    def test_doubling_pair_has_ratio(self, tmp_path):
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--sizes", "256,512", "--repeats", "2",
                     "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[2].split("\t")[2] != ""

    def test_non_power_of_two_completes(self, tmp_path):
        # 3 * 2^16: a composite, non-power-of-two length at benchmark scale
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--sizes", "196608", "--repeats", "1",
                     "--output", str(out)]) == 0


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xft.cli", "grid", "--n", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "k,x"

    def test_bad_usage_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xft.cli", "transform"],
            capture_output=True, text=True)
        assert proc.returncode == 2
