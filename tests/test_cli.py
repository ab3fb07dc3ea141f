"""Command-line driver: exit codes, CSV formats, round trips, determinism."""
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import xft
import xft.cli
from xft import (
    GaussianParams,
    LctParams,
    asymptotic_zeros,
    compare,
    dense_lct_matrix,
    exact_hermite_zeros,
    fast_lct,
    gaussian_lct_closed_form,
    gaussian_sample,
)
from xft.calibration import FIGURE1_MAX_ABS
from xft.cli import main


def read_csv(path, header):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def csv_text(header, *columns):
    """The CLI's table bytes, built by hand: header, then 17-digit rows."""
    rows = (",".join(format(float(v), ".17g") for v in row) for row in zip(*columns))
    return "".join(line + "\n" for line in (header, *rows))


def grid_csv(path, n, header="x,re,im", sep="\n"):
    nodes = asymptotic_zeros(n).nodes
    path.write_text(header + sep + "".join(f"{x!r},{math.exp(-x * x)!r},0{sep}"
                                           for x in nodes.tolist()), encoding="utf-8")
    return path


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

    def test_exact_grid_beyond_dense_guard_exits_2(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--n", "4097", "--exact", "--output", str(out)]) == 2

    @pytest.mark.parametrize("exact", [False, True])
    def test_bytes(self, exact, capsys):
        nodes = exact_hermite_zeros(9) if exact else asymptotic_zeros(9).nodes
        assert main(["grid", "--n", "9", *(["--exact"] if exact else [])]) == 0
        assert capsys.readouterr().out == csv_text("k,x", range(9), nodes)


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
        # c is read only by the check: (1, 2, 0.5, 2) passes, c = 999 does not
        assert main(["transform", "--n", "64", "--params", "1,2,999,2",
                     "--function", "gaussian:1,2,3"]) == 3

    def test_unimodular_check_has_no_bypass_flag(self, capsys):
        assert main(["transform", "--n", "64", "--params", "1,2,0.5,2",
                     "--no-unimodular-check", "--function", "gaussian:1,2,3"]) == 2
        assert "unrecognized arguments: --no-unimodular-check" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [["--params", "nan,1,0,1"],
                                      ["--params", "1,1,nan,1"],
                                      ["--preset", "fresnel:inf"],
                                      ["--preset", "frft:inf"]])
    def test_nonfinite_params_exit_3(self, spec):
        assert main(["transform", "--n", "8", *spec,
                     "--function", "gaussian:1,0,0"]) == 3

    @pytest.mark.parametrize("spec", [
        # finite samples near 1.6e308: the DFT sum overflows
        ["--params", "1,1,0,1", "--function", "gaussian:1e-30,0,-709.7"],
        # a/(2b) = inf: the input chirp's phase is not finite
        ["--params", "1e300,1e-300,0,1e-300", "--function", "gaussian:1,0,0"],
    ])
    def test_non_finite_transform_exits_3(self, spec, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a shown warning would reach stderr
            assert main(["transform", "--n", "8", *spec]) == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the transform leaves the double range")
        assert err.count("\n") == 1

    def test_bytes(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["transform", "--n", "64", "--params", "1,2,0.5,2", "--function", "gaussian:1,2,3"]
        assert main(argv + ["--output", str(out)]) == 0
        assert main(argv) == 0
        res = fast_lct(LctParams(1, 2, 0.5, 2),
                       gaussian_sample(GaussianParams(1, 2, 3), asymptotic_zeros(64)))
        expected = csv_text("y,re,im", res.output_nodes, res.values.real, res.values.imag)
        assert out.read_bytes() == expected.encode("utf-8")
        assert capsys.readouterr().out == expected

    def test_aliasing_warning(self, capsys):
        assert main(["transform", "--n", "256", "--params", "40,0.1,0,0.025",
                     "--function", "gaussian:1,0,0"]) == 0
        assert "undersampled" in capsys.readouterr().err
        # a parameter error wins: no warning for parameters that are refused
        assert main(["transform", "--n", "256", "--params", "40,0.1,-5,0.04",
                     "--function", "gaussian:1,0,0"]) == 3
        err = capsys.readouterr().err
        assert "undersampled" not in err and err.startswith("error:")

    @pytest.mark.parametrize("params", ["1,1,0,1", "1,0,0,1"])
    def test_b_zero_non_finite_samples_exit_3(self, params, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a shown warning would reach stderr
            assert main(["transform", "--n", "8", "--params", params,
                         "--function", "gaussian:1,400,0"]) == 3
        assert caught == []
        assert capsys.readouterr() == ("", "error: signal values must be finite\n")

    def test_b_zero_overflowing_product_exits_3(self, capsys):
        # finite samples near exp(709), scaled by sqrt(d) = 1e5
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["transform", "--n", "4", "--params=1e-10,0,0,1e10",
                         "--function", "gaussian:1e-30,0,-709"]) == 3
        assert caught == []
        assert capsys.readouterr() == ("", "error: b = 0 branch: the scaled samples overflow\n")

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

    @pytest.mark.parametrize("spec,message", [
        (["--params", "1,2,x,4", "--function", "gaussian:1,0,0"],
         "bad --params '1,2,x,4': expected 4 comma-separated"),
        (["--params", "1,2,0.5", "--function", "gaussian:1,0,0"],
         "bad --params '1,2,0.5': expected 4 comma-separated"),
        (["--preset", "fourier:1", "--function", "gaussian:1,0,0"],
         "preset fourier takes no argument"),
        (["--preset", "hankel:1", "--function", "gaussian:1,0,0"], "unknown preset 'hankel'"),
        (["--preset", "fourier", "--function", "lorentzian:1"],
         "unknown builtin function 'lorentzian'"),
        (["--preset", "fourier", "--input", "{tmp}/y.csv"],
         "{tmp}/y.csv: expected header 'x,re,im', got 'y,re,im'"),
        (["--preset", "fourier", "--input", "{tmp}/missing.csv"], "cannot read {tmp}/missing.csv"),
    ], ids=["non-numeric-params", "three-params", "fourier-argument", "unknown-preset",
            "unknown-function", "csv-header", "unreadable-input"])
    def test_malformed_request_exits_2(self, tmp_path, spec, message, capsys):
        grid_csv(tmp_path / "y.csv", 4, header="y,re,im")
        assert main(["transform", "--n", "4", *(arg.format(tmp=tmp_path) for arg in spec)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message.format(tmp=tmp_path))
        assert err.count("\n") == 1

    def test_csv_header_spaces_and_blank_lines_accepted(self, tmp_path, capsys):
        plain = grid_csv(tmp_path / "plain.csv", 8)
        loose = grid_csv(tmp_path / "loose.csv", 8, header=" x , re , im ", sep="\n \n\n")
        assert main(["transform", "--n", "8", "--preset", "fourier", "--input", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["transform", "--n", "8", "--preset", "fourier", "--input", str(loose)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("body", ["# a comment line\n", "{x!r},abc,0\n", "{x!r},1\n"],
                             ids=["comment", "non-numeric", "two-columns"])
    def test_malformed_csv_rows_exit_2(self, tmp_path, body, capsys):
        src = grid_csv(tmp_path / "in.csv", 4)
        x = asymptotic_zeros(4).nodes[0].item()
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        src.write_text(lines[0] + body.format(x=x) + "".join(lines[2:]), encoding="utf-8")
        assert main(["transform", "--n", "4", "--preset", "fourier", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:") and err.count("\n") == 1

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        src = tmp_path / "latin1.csv"
        src.write_bytes(b"x,re,im\n\xff,1,0\n")
        assert main(["transform", "--n", "1", "--preset", "fourier", "--input", str(src)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {src}: 'utf-8' codec")

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_csv_exits_4_with_only_the_grid(self, tmp_path, body, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("x,re,im\n" + body, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a shown warning would reach stderr
            assert main(["transform", "--n", "4", "--preset", "fourier",
                         "--input", str(src)]) == 4
        assert caught == []
        grid = asymptotic_zeros(4).nodes
        assert capsys.readouterr().err == (csv_text("expected grid (k,x):", range(4), grid)
                                           + f"error: {src}: 0 rows, expected n=4\n")

    def test_nan_abscissae_exit_4_and_print_grid(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("x,re,im\n" + "nan,1,0\n" * 4, encoding="utf-8")
        assert main(["transform", "--n", "4", "--preset", "fourier", "--input", str(src)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(csv_text("expected grid (k,x):", range(4),
                                                asymptotic_zeros(4).nodes))

    def test_grid_mismatch_exits_4_and_prints_grid(self, tmp_path, capsys):
        bad = tmp_path / "off.csv"
        bad.write_text("x,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n", encoding="utf-8")
        assert main(["transform", "--n", "2", "--preset", "fourier",
                     "--input", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "expected grid" in err

    def test_missing_input_choice_exits_2(self, tmp_path, capsys):
        # argparse owns the flag grammar: its usage line, then its message
        for argv, message in [
            (["transform", "--n", "4", "--preset", "fourier"],
             "one of the arguments --function --input is required"),
            (["transform", "--n", "4", "--params", "0,1,-1,0", "--preset", "fourier",
              "--function", "gaussian:1,0,0"],
             "argument --preset: not allowed with argument --params"),
            (["transform", "--n", "4", "--preset", "fourier", "--function", "gaussian:1,0,0",
              "--input", str(grid_csv(tmp_path / "in.csv", 4))],
             "argument --input: not allowed with argument --function"),
            (["bench", "--sizes", "16", "--params", "0,1,-1,0", "--preset", "fresnel:1"],
             "argument --preset: not allowed with argument --params"),
            (["bench", "--sizes", "16", "--repeats", "1", "--params", "1,2,0.5,2",
              "--preset", "fourier"],
             "argument --preset: not allowed with argument --params"),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: xft ") and err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("command", ["transform", "compare"])
    def test_csv_then_parameters_then_abscissae(self, command, tmp_path):
        # CSV structure and row count fail first (4), then the quadruple (3),
        # then the abscissae (4), in both commands.
        off = tmp_path / "off.csv"
        off.write_text("x,re,im\n" + "0,1,0\n" * 8, encoding="utf-8")
        short = grid_csv(tmp_path / "short.csv", 7)
        argv = [command, "--n", "8", "--params", "1,1,1,1", "--input"]
        assert main(argv + [str(off)]) == 3
        assert main(argv + [str(short)]) == 4

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
                   "--function", "gaussian:1,0,0",
                   "--oracle", "dense", "--output", str(tmp_path / "e.csv")])
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(summary.split(",")[1]) <= 1e-12

    @pytest.mark.parametrize("oracle", ["closed-form", "dense"])
    def test_bytes(self, oracle, capsys):
        params, g = LctParams(1, 2, 0.5, 2), GaussianParams(1, 2, 3)
        assert main(["compare", "--n", "64", "--params", "1,2,0.5,2",
                     "--function", "gaussian:1,2,3", "--oracle", oracle]) == 0
        signal = gaussian_sample(g, asymptotic_zeros(64))
        res = fast_lct(params, signal)
        if oracle == "dense":
            ref = dense_lct_matrix(64, params) @ signal.values
        else:
            ref = gaussian_lct_closed_form(g, params, res.output_nodes)
        report = compare(res, ref)
        summary = ",".join([str(report.n)] + [format(v, ".17g") for v in
                                              (report.max_abs, report.rms,
                                               report.max_rel_central)])
        assert capsys.readouterr().out == (
            csv_text("y,abs_err", res.output_nodes, np.abs(res.values - ref)) + summary + "\n")

    def test_threshold_violation_exits_5(self, tmp_path):
        rc = main(["compare", "--n", "64", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,2,3", "--oracle", "closed-form",
                   "--max-abs", "1e-30", "--output", str(tmp_path / "e.csv")])
        assert rc == 5

    def test_quadrature_oracle(self, tmp_path, capsys):
        for n, function, max_abs in [
            ("64", "gaussian:1,2,3", "1e-9"),
            # centred at -beta/alpha = -5: a window of 12/sqrt(alpha) = 6 about 0 truncates it
            ("512", "gaussian:4,20,100", "1e-12"),
        ]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # a shown warning would reach stderr
                rc = main(["compare", "--n", n, "--params", "1,2,0.5,2",
                           "--function", function, "--oracle", "quadrature",
                           "--max-abs", max_abs, "--output", str(tmp_path / "e.csv")])
            assert rc == 0
            assert caught == [] and capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag", ["--oracle-radius", "--oracle-tol"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_quadrature_setting_exits_2(self, tmp_path, flag, value, capsys):
        # for_gaussian works the window out from the Gaussian itself, so
        # compare takes no quadrature setting at all
        assert main(["compare", "--n", "16", "--preset", "fourier",
                     "--function", "gaussian:1,0,0", "--oracle", "quadrature",
                     flag, value, "--output", str(tmp_path / "e.csv")]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert main(["compare", "--help"]) == 0
        assert flag not in capsys.readouterr().out

    def test_inverse_round_trip(self, tmp_path, capsys):
        rc = main(["compare", "--n", "256", "--params", "1,2,0.5,2",
                   "--function", "gaussian:1,0.3,0.1", "--inverse",
                   "--max-abs", "1e-10", "--output", str(tmp_path / "inv.csv")])
        assert rc == 0

    def test_inverse_round_trip_negative_b(self, tmp_path, capsys):
        rc = main(["compare", "--n", "32", "--params", "1,-2,1.625,-2.25",
                   "--function", "gaussian:1,0,0",
                   "--inverse", "--output", str(tmp_path / "inv.csv")])
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(summary.split(",")[1]) <= 1e-10

    @pytest.mark.parametrize("spec", [
        ["--preset", "fourier", "--function", "gaussian:1,30,0"],  # math.exp overflows
        ["--preset", "fresnel:1e-300", "--function", "gaussian:1,0,0"],  # 4b^2 underflows to 0
        ["--preset", "fresnel:1e-160", "--function", "gaussian:1,0,0"],  # a^2/(4b^2) = inf
    ])
    def test_closed_form_out_of_range_exits_3(self, spec, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", "--n", "8", *spec, "--oracle", "closed-form"]) == 3
        assert caught == []
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the closed form for ")
        assert err.endswith("leaves the double range\n") and err.count("\n") == 1

    def test_b_zero_exits_3(self, capsys):
        assert main(["compare", "--n", "8", "--params", "1,0,0,1",
                     "--function", "gaussian:1,0,0"]) == 3
        assert capsys.readouterr() == ("", "error: compare requires b != 0\n")

    def test_csv_input_needs_compatible_oracle(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        main(["transform", "--n", "8", "--params", f"1,{math.pi/4!r},0,1",
              "--function", "gaussian:1,0,0", "--output", str(src)])
        body = src.read_text(encoding="utf-8").replace("y,re,im", "x,re,im")
        src.write_text(body, encoding="utf-8")
        for oracle in ("closed-form", "quadrature"):
            assert main(["compare", "--n", "8", "--preset", "fourier",
                         "--input", str(src), "--oracle", oracle]) == 3
            assert capsys.readouterr().err.startswith(f"error: {oracle} oracle needs a ")


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

    def test_bytes(self, monkeypatch, capsys):
        # A fake clock makes the timings, and so the whole table, deterministic.
        ticks = iter([0.1, 0.3, 0.7, 1.1, 1.3, 1.9])
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(xft.cli, "time", clock)
        assert main(["bench", "--sizes", "16,32,48", "--repeats", "1"]) == 0
        t16, t32, t48 = 0.3 - 0.1, 1.1 - 0.7, 1.9 - 1.3
        assert capsys.readouterr().out == (
            "n\tseconds\tratio_vs_half\n"
            f"16\t{format(t16, '.17g')}\t\n"
            f"32\t{format(t32, '.17g')}\t{format(t32 / t16, '.17g')}\n"
            f"48\t{format(t48, '.17g')}\t\n")

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exits_2(self, repeats, capsys):
        assert main(["bench", "--sizes", "16", "--repeats", repeats]) == 2
        assert "--repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes,message", [("8,x", "bad --sizes: "),
                                               (",", "--sizes is empty")])
    def test_bad_sizes_exit_2(self, sizes, message, capsys):
        assert main(["bench", "--sizes", sizes, "--repeats", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: " + message)


def run_module(*args):
    """``python -m xft.cli args`` in a child that imports this xft, installed or not."""
    path = [str(Path(xft.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "xft.cli", *args],
                          capture_output=True, text=True, env=env)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("grid", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "k,x"

    def test_bad_usage_exits_2(self):
        proc = run_module("transform")
        assert proc.returncode == 2
