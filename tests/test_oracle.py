"""Oracles: closed-form Gaussian transform, brute-force quadrature, metrics."""
import math
import warnings

import numpy as np
import pytest

import xft.oracle
from xft import (
    ConvergenceError,
    DegenerateParameterError,
    ErrorReport,
    GaussianParams,
    LctParams,
    ParameterError,
    QuadratureConfig,
    ShapeError,
    TransformResult,
    TruncationWarning,
    asymptotic_zeros,
    compare,
    direct_quadrature_lct,
    gaussian_lct_closed_form,
    gaussian_sample,
)

FIG1 = (GaussianParams(1.0, 2.0, 3.0), LctParams(1.0, 2.0, 0.5, 2.0))
FIG2 = (GaussianParams(2.0, 1.0, 3.0), LctParams(1.0, 100.0, 0.0, 1.0))
# Centred at -beta/alpha = -5 with width 1/sqrt(alpha) = 0.5: a window of 12
# widths about 0, [-6, 6], cuts it 2 widths from its centre.
OFF_CENTRE = (GaussianParams(4.0, 20.0, 100.0), LctParams(1.0, 2.0, 0.5, 2.0))


class TestGaussianParams:
    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ParameterError):
            GaussianParams(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            GaussianParams(-2.0, 0.0, 0.0)

    def test_evaluate_values(self):
        assert GaussianParams(1, 2, 3).evaluate(0.0) == pytest.approx(
            math.exp(-3), rel=1e-14)
        assert GaussianParams(1, 2, 3).evaluate(0.0) == pytest.approx(0.0497871, abs=1e-7)
        assert GaussianParams(2, 1, 3).evaluate(1.0) == pytest.approx(
            math.exp(-7), rel=1e-14)
        assert GaussianParams(2, 1, 3).evaluate(1.0) == pytest.approx(0.0009119, abs=1e-7)


class TestGaussianSample:
    def test_center_node_value(self):
        grid = asymptotic_zeros(5)  # odd n: node 2 sits at x = 0
        sig = gaussian_sample(GaussianParams(1.0, 0.0, 0.0), grid)
        assert sig.values[2] == 1.0

    def test_matches_exponent_formula(self):
        grid = asymptotic_zeros(9)
        g = GaussianParams(1.3, -0.4, 0.2)
        sig = gaussian_sample(g, grid)
        x = grid.nodes
        expected = np.exp(-(1.3 * x ** 2 + 2 * -0.4 * x + 0.2))
        assert np.max(np.abs(sig.values - expected)) < 1e-15


class TestClosedForm:
    def test_fourier_gaussian_at_origin(self):
        val = gaussian_lct_closed_form(
            GaussianParams(0.5, 0.0, 0.0), LctParams.fourier(), 0.0)
        assert val == pytest.approx(np.exp(-1j * np.pi / 4), abs=1e-12)
        assert val == pytest.approx(0.70711 - 0.70711j, abs=1e-5)

    def test_rejects_b_zero(self):
        with pytest.raises(DegenerateParameterError):
            gaussian_lct_closed_form(GaussianParams(1, 0, 0),
                                     LctParams(1.0, 0.0, 0.0, 1.0), 0.0)

    @pytest.mark.parametrize("g,params", [
        (GaussianParams(1, 30, 0), LctParams.fourier()),  # math.exp overflows
        (GaussianParams(1, 0, 0), LctParams.fresnel(1e-300)),  # 4b^2 underflows to 0
        (GaussianParams(1, 0, 0), LctParams.fresnel(1e-160)),  # a^2/(4b^2) = inf
    ])
    def test_rejects_out_of_double_range(self, g, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="leaves the double range"):
                gaussian_lct_closed_form(g, params, np.linspace(-3.0, 3.0, 8))

    def test_underflowed_envelope_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = gaussian_lct_closed_form(GaussianParams(1, 0, 0), LctParams.fourier(),
                                           np.array([0.0, 100.0]))
        assert far[0] != 0 and far[1] == 0

    @pytest.mark.parametrize("g,params", [FIG1, FIG2])
    def test_modulus_is_log_concave_gaussian(self, g, params):
        y = np.linspace(-4.0, 4.0, 33)
        mag = np.abs(gaussian_lct_closed_form(g, params, y))
        logmag = np.log(mag)
        coeffs = np.polyfit(y, logmag, 2)
        residual = np.max(np.abs(np.polyval(coeffs, y) - logmag))
        assert coeffs[0] < 0  # concave
        assert residual <= 1e-9

    @pytest.mark.parametrize("g,params", [FIG1, FIG2, OFF_CENTRE])
    def test_cross_validated_against_quadrature(self, g, params):
        cfg = QuadratureConfig.for_gaussian(g)
        for y in (-8.0, -3.0, 0.0, 2.5, 7.0):
            closed = gaussian_lct_closed_form(g, params, y)
            brute = direct_quadrature_lct(params, g.evaluate, y, cfg)
            assert abs(closed - brute) <= 1e-8


class TestDirectQuadrature:
    def test_fourier_gaussian_at_origin(self):
        val = direct_quadrature_lct(
            LctParams.fourier(), GaussianParams(0.5, 0, 0).evaluate, 0.0)
        assert abs(val - np.exp(-1j * np.pi / 4)) <= 1e-10

    def test_zero_integrand(self):
        val = direct_quadrature_lct(
            LctParams.fourier(), lambda x: np.zeros_like(x), 1.0)
        assert val == 0

    def test_refinement_insensitive_to_start(self, monkeypatch):
        g, params = FIG1
        values = []
        for start in (513, 4097):
            monkeypatch.setattr(xft.oracle, "_INITIAL_POINTS", start)
            values.append(direct_quadrature_lct(params, g.evaluate, 1.5,
                                                QuadratureConfig(radius=12.0)))
        a, b = values
        assert abs(a - b) <= 1e-9

    def test_truncation_warning_on_slow_decay(self):
        with pytest.warns(TruncationWarning):
            direct_quadrature_lct(LctParams.fourier(),
                                  lambda x: 1.0 / (1.0 + x ** 2), 0.0)

    def test_convergence_error_when_capped(self, monkeypatch):
        g, params = FIG1
        monkeypatch.setattr(xft.oracle, "_INITIAL_POINTS", 65)
        monkeypatch.setattr(xft.oracle, "_MAX_POINTS", 257)
        cfg = QuadratureConfig(radius=12.0, tol=1e-30)
        with pytest.raises(ConvergenceError):
            direct_quadrature_lct(params, g.evaluate, 0.5, cfg)

    def test_rejects_b_zero(self):
        with pytest.raises(DegenerateParameterError):
            direct_quadrature_lct(LctParams(1.0, 0.0, 0.0, 1.0), np.exp, 0.0)

    @pytest.mark.parametrize("field", ["radius", "tol"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_config_rejects_bad_radius_or_tol(self, field, value):
        with pytest.raises(ParameterError):
            QuadratureConfig(**{field: value})

    @pytest.mark.parametrize("g", [FIG1[0], FIG2[0], OFF_CENTRE[0],
                                   GaussianParams(0.01, -3.0, 0.0)])
    def test_gaussian_window_holds_twelve_widths_about_the_centre(self, g):
        cfg = QuadratureConfig.for_gaussian(g)
        centre, width = -g.beta / g.alpha, 1.0 / math.sqrt(g.alpha)
        assert cfg.radius >= max(abs(centre - 12 * width), abs(centre + 12 * width))
        assert cfg.tol == QuadratureConfig().tol

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_output_points(self, shape):
        g, params = FIG1
        out = direct_quadrature_lct(params, g.evaluate, np.empty(shape))
        assert out.shape == shape and out.dtype == complex

    def test_array_matches_scalar(self):
        g, params = FIG1
        cfg = QuadratureConfig.for_gaussian(g)
        ys = np.array([-2.0, 0.0, 3.0])
        batch = direct_quadrature_lct(params, g.evaluate, ys, cfg)
        singles = [direct_quadrature_lct(params, g.evaluate, float(y), cfg) for y in ys]
        assert batch.shape == ys.shape
        assert all(isinstance(v, complex) for v in singles)
        assert np.max(np.abs(batch - singles)) <= 1e-9


def _result_with(values, nodes=None):
    values = np.asarray(values, dtype=complex)
    n = len(values)
    nodes = np.arange(n, dtype=float) if nodes is None else nodes
    return TransformResult(params=LctParams.fourier(), output_nodes=nodes,
                           values=values, n=n)


class TestCompare:
    def test_identical_vectors(self):
        values = np.exp(1j * np.linspace(0, 1, 20))
        rep = compare(_result_with(values), values)
        assert rep == ErrorReport(max_abs=0.0, rms=0.0, max_rel_central=0.0, n=20)

    def test_zero_oracle(self):
        values = np.zeros(10, dtype=complex)
        values[3] = 2.5j
        rep = compare(_result_with(values), np.zeros(10))
        assert rep.max_abs == 2.5
        assert math.isinf(rep.max_rel_central)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            compare(_result_with(np.zeros(4)), np.zeros(5))

    def test_rms_bounded_by_max(self):
        rng = np.random.default_rng(8)
        got = rng.normal(size=50) + 1j * rng.normal(size=50)
        ref = rng.normal(size=50) + 1j * rng.normal(size=50)
        rep = compare(_result_with(got), ref)
        assert 0 <= rep.rms <= rep.max_abs

    def test_central_window_excludes_edges(self):
        values = np.ones(20, dtype=complex)
        oracle = np.ones(20, dtype=complex)
        values[0] += 5.0  # edge-only deviation
        rep = compare(_result_with(values), oracle)
        assert rep.max_abs == 5.0
        assert rep.max_rel_central == 0.0
