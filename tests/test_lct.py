"""Fast transform path: equivalence with the dense oracle and special cases."""
import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
import sys
import threading
import warnings

import numpy as np
import pytest

import xft
from xft import (
    DFT_SIGN,
    DegenerateParameterError,
    GaussianParams,
    GridMismatchError,
    HermiteGrid,
    LctParams,
    ParameterError,
    QuadratureConfig,
    ShapeError,
    Signal,
    TransformResult,
    UnsupportedBranchError,
    asymptotic_zeros,
    chirp_phase_step,
    dense_lct_matrix,
    direct_quadrature_lct,
    fast_frft,
    fast_lct,
    gaussian_lct_closed_form,
    gaussian_sample,
    inverse_lct,
    lct_b_zero,
    xft_fourier,
)
from xft.calibration import FIGURE1_GAUSSIAN, FIGURE1_PARAMS
from xft.kernel import (
    boundary_phase,
    input_chirp,
    kernel_prefactor,
    output_chirp,
)
from xft.lct import _fused_factors


def random_unimodular(rng, b_low=0.1, b_high=100.0):
    b = rng.uniform(b_low, b_high) * rng.choice([-1.0, 1.0])
    a = rng.uniform(-2.0, 2.0)
    d = rng.uniform(-2.0, 2.0)
    c = (a * d - 1.0) / b
    return LctParams(a, b, c, d)


def random_signal(rng, n):
    grid = asymptotic_zeros(n)
    return Signal(grid, rng.normal(size=n) + 1j * rng.normal(size=n))


class TestLctParams:
    def test_determinant_and_presets(self):
        assert LctParams.fourier().as_tuple() == (0.0, 1.0, -1.0, 0.0)
        assert LctParams.fresnel(3.5).as_tuple() == (1.0, 3.5, 0.0, 1.0)
        assert LctParams(1, 2, 0.5, 2).det == pytest.approx(1.0)
        assert LctParams.frft(math.pi / 2).as_tuple() == (0.0, 1.0, -1.0, 0.0)

    def test_inverse_and_composition(self):
        p = LctParams(1.0, 2.0, 0.5, 2.0)
        q = p.matmul(p.inverse())
        assert q.as_tuple() == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-15)

    def test_unimodular_check(self):
        with pytest.raises(ParameterError):
            LctParams(1, 1, 1, 1).require_unimodular()
        LctParams(1, 1, 1, 2 + 5e-11).require_unimodular()
        assert LctParams(1, 1, 1, 2 + 5e-11).is_unimodular()
        assert not LctParams(1, 1, 1, 2 + 2e-10).is_unimodular()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(4))
    def test_rejects_nonfinite_entry(self, field, bad):
        # Rejected at construction, before any transform or check reads it.
        values = [1.0, 1.0, 0.0, 1.0]
        values[field] = bad
        with pytest.raises(ParameterError):
            LctParams(*values)


class TestSignal:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Signal(asymptotic_zeros(4), np.zeros(5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            Signal(asymptotic_zeros(2), np.array([1.0, np.nan]))

    def test_real_samples_kept_without_copy(self):
        samples = np.linspace(-1.0, 1.0, 4)
        assert np.shares_memory(Signal(asymptotic_zeros(4), samples).values, samples)
        samples[1] = np.nan
        with pytest.raises(ParameterError):
            Signal(asymptotic_zeros(4), samples)
        single = Signal(asymptotic_zeros(4), np.ones(4, dtype=np.float32))
        assert single.values.dtype == np.complex128


class TestFastLct:
    def test_fourier_gaussian_n256(self):
        grid = asymptotic_zeros(256)
        sig = gaussian_sample(GaussianParams(0.5, 0.0, 0.0), grid)
        res = fast_lct(LctParams.fourier(), sig)
        expected = np.exp(-1j * np.pi / 4) * np.exp(-res.output_nodes ** 2 / 2)
        j0 = int(np.argmin(np.abs(res.output_nodes)))
        assert res.values[j0] == pytest.approx(0.7071 - 0.7071j, abs=1e-2)
        lo, hi = 25, 231
        assert np.max(np.abs(res.values[lo:hi] - expected[lo:hi])) <= 1e-3

    def test_figure_configuration_matches_closed_form(self):
        g = GaussianParams(1.0, 2.0, 3.0)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        n = 512
        res = fast_lct(params, gaussian_sample(g, asymptotic_zeros(n)))
        lo, hi = n // 10, (9 * n) // 10
        oracle = gaussian_lct_closed_form(g, params, res.output_nodes[lo:hi])
        assert np.max(np.abs(res.values[lo:hi] - oracle)) <= 1e-12

    @pytest.mark.parametrize("n", [2 ** 18, 2 ** 20])
    def test_figure_configuration_accuracy_at_large_n(self, n):
        # Pins the phase precision of the chirps and the DFT at scale: the
        # error over every output node stays at the rounding floor.
        res = fast_lct(FIGURE1_PARAMS, gaussian_sample(FIGURE1_GAUSSIAN, asymptotic_zeros(n)))
        oracle = gaussian_lct_closed_form(FIGURE1_GAUSSIAN, FIGURE1_PARAMS, res.output_nodes)
        assert np.max(np.abs(res.values - oracle)) <= 5e-15

    def test_zero_input_gives_zero(self):
        sig = Signal(asymptotic_zeros(16), np.zeros(16, dtype=complex))
        res = fast_lct(LctParams(1.0, 2.0, 0.5, 2.0), sig)
        assert np.all(res.values == 0)

    def test_output_nodes_scaling(self):
        rng = np.random.default_rng(0)
        sig = random_signal(rng, 32)
        a, b, d = 1.0, -2.5, 0.6
        params = LctParams(a, b, (a * d - 1) / b, d)
        res = fast_lct(params, sig)
        expected = (4 * params.b / np.pi) * sig.grid.nodes
        assert np.max(np.abs(res.output_nodes - expected)) <= 1e-13

    def test_rejects_b_zero(self):
        sig = Signal(asymptotic_zeros(4), np.ones(4, dtype=complex))
        with pytest.raises(DegenerateParameterError):
            fast_lct(LctParams(1.0, 0.0, 0.0, 1.0), sig)

    def test_rejects_non_unimodular(self):
        sig = Signal(asymptotic_zeros(4), np.ones(4, dtype=complex))
        with pytest.raises(ParameterError):
            fast_lct(LctParams(1.0, 1.0, 1.0, 1.0), sig)

    def test_rejects_non_finite_result(self):
        # finite samples whose DFT sum overflows, forward and inverse; at 2^20
        # only in columns 2058 and up of the row route's 256 x 4096 split,
        # which the worker thread transforms
        params, grid = LctParams(1.0, 2.0, 0.5, 2.0), asymptotic_zeros(8)
        big = asymptotic_zeros(2**20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="double range"):
                fast_lct(params, Signal(grid, np.full(8, 1e308)))
            result = TransformResult(params, grid.nodes, np.full(8, 1e308 + 0j), 8)
            with pytest.raises(ParameterError, match="double range"):
                inverse_lct(result)
            samples = np.where(np.arange(big.n) % 4096 >= 2058, 1e308, 0.0)
            with pytest.raises(ParameterError, match="double range"):
                fast_lct(params, Signal(big, samples))

    def test_rejects_wrong_grid(self):
        nodes = np.linspace(-1, 1, 8)
        grid = HermiteGrid(n=8, nodes=nodes, spacing=nodes[1] - nodes[0])
        with pytest.raises(GridMismatchError):
            fast_lct(LctParams.fourier(), Signal(grid, np.ones(8, dtype=complex)))

    def test_hand_built_grid_is_compared_not_trusted(self):
        ref = asymptotic_zeros(8)
        values = np.ones(8, dtype=complex)
        close = HermiteGrid(n=8, nodes=ref.nodes.copy(), spacing=ref.spacing)
        assert np.array_equal(fast_lct(LctParams.fourier(), Signal(close, values)).values,
                              fast_lct(LctParams.fourier(), Signal(ref, values)).values)
        nodes = ref.nodes.copy()
        nodes[3] += 1e-6
        off = HermiteGrid(n=8, nodes=nodes, spacing=ref.spacing)
        with pytest.raises(GridMismatchError):
            fast_lct(LctParams.fourier(), Signal(off, values))

    def test_nan_grid_is_a_mismatch(self):
        ref = asymptotic_zeros(8)
        values = np.ones(8, dtype=complex)
        nodes = ref.nodes.copy()
        nodes[3] = np.nan
        for grid in (HermiteGrid(n=8, nodes=nodes, spacing=ref.spacing),
                     HermiteGrid(n=8, nodes=ref.nodes.copy(), spacing=math.nan)):
            with pytest.raises(GridMismatchError):
                fast_lct(LctParams.fourier(), Signal(grid, values))

    @pytest.mark.parametrize("n", [8, 64, 256, 769])  # 769: the Rader DFT route
    def test_matches_dense_path(self, n):
        rng = np.random.default_rng(100 + n)
        sig = random_signal(rng, n)
        for _ in range(5):
            params = random_unimodular(rng)
            fast = fast_lct(params, sig).values
            ref = dense_lct_matrix(n, params) @ sig.values
            assert np.linalg.norm(fast - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        n = 128
        u, v = random_signal(rng, n), random_signal(rng, n)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        alpha, beta = 0.3 - 1.2j, 2.0 + 0.1j
        mixed = Signal(u.grid, alpha * u.values + beta * v.values)
        lhs = fast_lct(params, mixed).values
        rhs = alpha * fast_lct(params, u).values + beta * fast_lct(params, v).values
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n", [7, 64, 1000])
    def test_kernel_stage_norm_scaling(self, n):
        # Undoing the output chirp leaves F @ (pre-chirped input), whose
        # squared norm is (pi^2/2) times the pre-chirped input's.
        rng = np.random.default_rng(n)
        sig = random_signal(rng, n)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        res = fast_lct(params, sig)
        from xft.kernel import input_chirp, output_chirp
        chirped = input_chirp(params.a, params.b, sig.grid.nodes) * sig.values
        kernel_out = res.values / output_chirp(params.d, params.b, res.output_nodes)
        lhs = np.sum(np.abs(kernel_out) ** 2)
        rhs = (np.pi ** 2 / 2) * np.sum(np.abs(chirped) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_convergence_is_at_floor_for_gaussians(self):
        # For Gaussian-class inputs the quadrature error decays faster than
        # any power of 1/n and bottoms out at rounding level well before
        # n = 128, so the error stays below a 1/n envelope trivially.  The
        # 1/n rate itself is measured on a kinked input by acceptance
        # criterion 4.
        g = GaussianParams(1.0, 0.5, 0.25)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        for n in (128, 256, 512, 1024):
            res = fast_lct(params, gaussian_sample(g, asymptotic_zeros(n)))
            lo, hi = n // 10, (9 * n) // 10
            oracle = gaussian_lct_closed_form(g, params, res.output_nodes[lo:hi])
            err = np.max(np.abs(res.values[lo:hi] - oracle))
            assert err <= 1e-12
            assert err <= 1.0 / n

    def test_approximate_semigroup(self):
        # Stage 1 with b = pi/4 lands its output exactly on the input grid,
        # so the composition is direct; the closed form resamples the
        # composed transform on each output grid.
        g = GaussianParams(1.0, 0.0, 0.0)
        m2 = LctParams(1.0, math.pi / 4, 0.0, 1.0)
        m1 = LctParams(1.0, 2.0, 0.5, 2.0)
        m12 = m1.matmul(m2)
        n = 512
        grid = asymptotic_zeros(n)
        lo, hi = n // 10, (9 * n) // 10

        stage1 = fast_lct(m2, gaussian_sample(g, grid))
        assert np.max(np.abs(stage1.output_nodes - grid.nodes)) < 1e-12
        composed = fast_lct(m1, Signal(grid, stage1.values))
        composed_err = np.max(np.abs(
            composed.values[lo:hi]
            - gaussian_lct_closed_form(g, m12, composed.output_nodes[lo:hi])))

        direct = fast_lct(m12, gaussian_sample(g, grid))
        direct_err = np.max(np.abs(
            direct.values[lo:hi]
            - gaussian_lct_closed_form(g, m12, direct.output_nodes[lo:hi])))

        assert composed_err <= 10 * max(direct_err, 1e-15)


class TestFactorCache:
    """pre, post and y are cached per (n, a, b, d); results stay independent."""

    def test_hit_is_bit_identical_to_cold_miss(self):
        rng = np.random.default_rng(51)
        sig = random_signal(rng, 1000)
        params = random_unimodular(rng)
        _fused_factors.cache_clear()
        cold = fast_lct(params, sig)
        warm = fast_lct(params, sig)
        assert _fused_factors.cache_info().hits == 1
        assert np.array_equal(cold.values, warm.values)

    def test_writing_into_values_leaves_next_call_alone(self):
        sig = random_signal(np.random.default_rng(52), 64)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        first = fast_lct(params, sig)
        keep = first.values.copy()
        first.values[:] = 0
        assert np.array_equal(fast_lct(params, sig).values, keep)

    def test_output_nodes_are_read_only(self):
        res = fast_lct(LctParams(1.0, 2.0, 0.5, 2.0),
                       random_signal(np.random.default_rng(53), 16))
        with pytest.raises(ValueError):
            res.output_nodes[0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 513, 1000])
    def test_mirrored_factors_match_full_grid_evaluation(self, n):
        a, b, d = 0.7, -1.3, 1.9
        pre, post, y = _fused_factors(n, a, b, d)
        x = asymptotic_zeros(n).nodes
        p = boundary_phase(n)
        assert np.array_equal(y, (4.0 * b / np.pi) * x)
        assert np.max(np.abs(pre - input_chirp(a, b, x) * p)) <= 1e-15
        assert np.max(np.abs(post - output_chirp(d, b, y) * kernel_prefactor(n) * p)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 513, 1000, 65537])
    def test_boundary_phase_matches_direct_formula(self, n):
        k = np.arange(n)
        direct = np.exp(-DFT_SIGN * 1j * np.pi * (((n - 1) * k) % (2 * n)) / n)
        assert np.max(np.abs(boundary_phase(n) - direct)) <= 2e-15
        assert not boundary_phase(n).flags.writeable

    def test_chirps_reject_b_zero(self):
        x = asymptotic_zeros(8).nodes
        for chirp in (input_chirp, output_chirp):
            with pytest.raises(ParameterError, match="b = 0"):
                chirp(1.0, 0.0, x)

    def test_concurrent_transforms_match_sequential(self):
        # More parameter sets than cache entries, so threads evict each
        # other's factors while they run.
        rng = np.random.default_rng(54)
        sig = random_signal(rng, 256)
        quads = [random_unimodular(rng) for _ in range(12)]
        expected = [fast_lct(q, sig).values for q in quads]
        agreed = {}

        def run(t):
            agreed[t] = all(
                np.array_equal(fast_lct(quads[j % 12], sig).values, expected[j % 12])
                for j in range(t, t + 48))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert agreed == dict.fromkeys(range(6), True)


class TestFrozenKernelSign:
    """The calibrated DFT-sign convention, pinned against the oracle."""

    def test_shipped_sign_matches_quadrature(self):
        g = GaussianParams(1.0, 2.0, 3.0)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        n = 64
        res = fast_lct(params, gaussian_sample(g, asymptotic_zeros(n)))
        for j in (20, 32, 45):
            ref = direct_quadrature_lct(params, g.evaluate, float(res.output_nodes[j]))
            assert abs(res.values[j] - ref) < 1e-10

    def test_conjugate_convention_is_wrong(self):
        # Rebuilding the transform with the opposite kernel sign (and no
        # output reversal) must NOT match the defining integral: the two
        # coherent conventions differ by an output reversal, and only the
        # shipped one evaluates at y_j = 4 b x_j / pi in ascending order.
        assert DFT_SIGN == -1
        g = GaussianParams(1.0, 2.0, 3.0)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        n = 64
        grid = asymptotic_zeros(n)
        sig = gaussian_sample(g, grid)
        y = (4 * params.b / np.pi) * grid.nodes
        fourier = np.sqrt(2j * np.pi) * dense_lct_matrix(n, LctParams.fourier())
        flipped = np.conj(fourier)  # the +1 sign kernel
        from xft.kernel import input_chirp, output_chirp
        wrong = (output_chirp(params.d, params.b, y)[:, None]
                 * flipped * input_chirp(params.a, params.b, grid.nodes)[None, :]
                 ) @ sig.values
        right = fast_lct(params, sig).values
        lo, hi = n // 10, (9 * n) // 10
        oracle = gaussian_lct_closed_form(g, params, y[lo:hi])
        wrong_err = np.max(np.abs(wrong[lo:hi] - oracle))
        right_err = np.max(np.abs(right[lo:hi] - oracle))
        assert right_err < 1e-12
        assert wrong_err > 1e3 * max(right_err, 1e-15)
        # ... and the flipped kernel is exactly the shipped one output-reversed
        assert np.max(np.abs(wrong[::-1] - right)) < 1e-12


class TestXftFourier:
    def test_scaling_identity_with_fast_lct(self):
        rng = np.random.default_rng(21)
        sig = random_signal(rng, 96)
        direct = fast_lct(LctParams.fourier(), sig).values
        scaled = xft_fourier(sig).values
        assert np.linalg.norm(scaled - np.sqrt(2j * np.pi) * direct) \
            <= 1e-12 * np.linalg.norm(scaled)

    def test_gaussian_transform(self):
        sig = gaussian_sample(GaussianParams(0.5, 0.0, 0.0), asymptotic_zeros(256))
        res = xft_fourier(sig)
        expected = np.sqrt(2 * np.pi) * np.exp(-res.output_nodes ** 2 / 2)
        j0 = int(np.argmin(np.abs(res.output_nodes)))
        assert res.values[j0] == pytest.approx(2.5066, abs=2e-2)
        assert np.max(np.abs(res.values - expected)) <= 1e-3

    def test_zero_input(self):
        sig = Signal(asymptotic_zeros(8), np.zeros(8, dtype=complex))
        assert np.all(xft_fourier(sig).values == 0)

    def test_error_already_below_floor_at_all_doublings(self):
        # Oracle: Integral exp(ixy) exp(-x^2) dx = sqrt(pi) exp(-y^2/4).
        # The error sits at rounding level for every tested n: no 1/n
        # halving is observable for Gaussian inputs, so acceptance
        # criterion 4 measures that rate on a kinked input instead.
        for n in (128, 256, 512):
            sig = gaussian_sample(GaussianParams(1.0, 0.0, 0.0), asymptotic_zeros(n))
            res = xft_fourier(sig)
            oracle = np.sqrt(np.pi) * np.exp(-res.output_nodes ** 2 / 4)
            assert np.max(np.abs(res.values - oracle)) <= 1e-12


class TestFastFrft:
    def test_quarter_turn_equals_fourier(self):
        rng = np.random.default_rng(31)
        sig = random_signal(rng, 64)
        a = fast_frft(math.pi / 2, sig)
        b = fast_lct(LctParams.fourier(), sig)
        assert np.array_equal(a.values, b.values)

    def test_eighth_turn_gaussian_matches_closed_form(self):
        n = 512
        theta = math.pi / 4
        params = LctParams.frft(theta)
        sig = gaussian_sample(GaussianParams(0.5, 0.0, 0.0), asymptotic_zeros(n))
        res = fast_frft(theta, sig)
        lo, hi = n // 10, (9 * n) // 10
        oracle = gaussian_lct_closed_form(
            GaussianParams(0.5, 0.0, 0.0), params, res.output_nodes[lo:hi])
        assert np.max(np.abs(res.values[lo:hi] - oracle)) <= 1e-3

    def test_opposite_angles_conjugate(self):
        # For real input, the -theta output is the complex conjugate of the
        # +theta output as a function of y; the output grids are mutually
        # reversed (y flips sign with b), hence the index reversal.
        n = 64
        grid = asymptotic_zeros(n)
        f = Signal(grid, (np.exp(-grid.nodes ** 2 / 2)
                          * (1 + 0.3 * grid.nodes)).astype(complex))
        theta = 0.7
        plus = fast_frft(theta, f)
        minus = fast_frft(-theta, f)
        assert np.max(np.abs(minus.output_nodes - plus.output_nodes[::-1])) < 1e-12
        assert np.max(np.abs(minus.values[::-1] - np.conj(plus.values))) <= 1e-10

    def test_degenerate_angle(self):
        sig = Signal(asymptotic_zeros(4), np.ones(4, dtype=complex))
        with pytest.raises(DegenerateParameterError):
            fast_frft(0.0, sig)


INVERSE_QUADRUPLES = [
    LctParams(1.0, 2.0, 0.5, 2.0),
    LctParams(0.5, 1.0, -0.75, 0.5),
    LctParams.fourier(),
    LctParams.frft(-0.7),
    LctParams(2.0, -0.5, 1.5, 0.125),
]


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 255, 256, 512])
    @pytest.mark.parametrize("params", INVERSE_QUADRUPLES, ids=lambda p: str(p.as_tuple()))
    def test_round_trip(self, params, n):
        gauss = gaussian_sample(GaussianParams(1.0, 0.3, 0.1), asymptotic_zeros(n))
        back = inverse_lct(fast_lct(params, gauss))
        assert np.max(np.abs(back.values - gauss.values)) <= 1e-12
        sig = random_signal(np.random.default_rng(n), n)
        back = inverse_lct(fast_lct(params, sig))
        assert (np.linalg.norm(back.values - sig.values)
                <= 1e-12 * np.linalg.norm(sig.values))

    def test_result_sits_on_the_input_grid(self):
        params = LctParams(2.0, -0.5, 1.5, 0.125)
        sig = random_signal(np.random.default_rng(3), 64)
        back = inverse_lct(fast_lct(params, sig))
        assert back.output_nodes is asymptotic_zeros(64).nodes
        assert back.params == params.inverse() and back.n == 64

    def test_rejects_wrong_value_count(self):
        grid = asymptotic_zeros(8)
        result = TransformResult(LctParams(1.0, 2.0, 0.5, 2.0), grid.nodes, np.ones(1, complex), 8)
        with pytest.raises(ShapeError):
            inverse_lct(result)

    def test_rejects_b_zero_result(self):
        res = lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0), np.exp, 8)
        with pytest.raises(DegenerateParameterError):
            inverse_lct(res)


class TestBZeroBranch:
    def test_identity(self):
        g = GaussianParams(1.0, 0.0, 0.0)
        res = lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0), g.evaluate, 16)
        assert np.max(np.abs(res.values - g.evaluate(res.output_nodes))) == 0.0

    def test_pure_scaling(self):
        res = lct_b_zero(LctParams(0.5, 0.0, 0.0, 2.0),
                         lambda x: np.exp(-x ** 2), 32)
        expected = math.sqrt(2) * np.exp(-4.0 * res.output_nodes ** 2)
        assert np.max(np.abs(res.values - expected)) <= 1e-14

    def test_pure_chirp(self):
        res = lct_b_zero(LctParams(1.0, 0.0, 3.0, 1.0),
                         lambda x: np.ones_like(x, dtype=complex), 32)
        expected = np.exp(1.5j * res.output_nodes ** 2)
        assert np.max(np.abs(res.values - expected)) <= 1e-14
        assert np.max(np.abs(np.abs(res.values) - 1.0)) <= 1e-14

    def test_rejects_negative_d(self):
        with pytest.raises(UnsupportedBranchError):
            lct_b_zero(LctParams(-1.0, 0.0, 0.0, -1.0), lambda x: x, 8)

    def test_rejects_nonzero_b(self):
        with pytest.raises(ParameterError):
            lct_b_zero(LctParams.fourier(), lambda x: x, 8)

    def test_rejects_non_unimodular(self):
        # det = a*d at b = 0; the same check and tolerance as every other branch
        with pytest.raises(ParameterError, match="determinant"):
            lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0000005), lambda x: x, 8)
        lct_b_zero(LctParams(0.5, 0.0, 7.0, 2.0 + 5e-11), lambda x: x, 8)

    def test_rejects_non_finite_samples(self):
        # exp(-(x^2 + 800 x)) overflows at the negative nodes
        g = GaussianParams(1.0, 400.0, 0.0)
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="finite"):
            lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0), g.evaluate, 8)

    def test_rejects_overflowing_product(self):
        # finite samples, but sqrt(d) * samples overflows
        with pytest.raises(ParameterError, match="overflow"):
            lct_b_zero(LctParams(1e-10, 0.0, 0.0, 1e10), lambda x: np.full(x.shape, 1e305), 8)

    def test_rejects_wrong_sample_shape(self):
        with pytest.raises(ShapeError):
            lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0), lambda x: x[:-1], 8)

    def test_rejects_non_callable_sampler(self):
        # the branch resamples f off-grid, so samples cannot stand in for it
        samples = gaussian_sample(GaussianParams(1.0, 0.0, 0.0), asymptotic_zeros(8))
        with pytest.raises(ParameterError, match="callable"):
            lct_b_zero(LctParams(1.0, 0.0, 0.0, 1.0), samples, 8)


class TestAliasingDiagnostic:
    def test_scales_with_chirp_rate(self):
        grid = asymptotic_zeros(64)
        mild = chirp_phase_step(LctParams.fresnel(10.0), grid)
        harsh = chirp_phase_step(LctParams(10.0, 0.1, 0.0, 0.1), grid)
        assert harsh > mild > 0
        assert harsh == pytest.approx(mild * 1000, rel=1e-12)

    def test_b_zero_and_one_node(self):
        with pytest.raises(DegenerateParameterError):
            chirp_phase_step(LctParams(1.0, 0.0, 0.0, 1.0), asymptotic_zeros(8))
        assert chirp_phase_step(LctParams(10.0, 0.1, 0.0, 0.1), asymptotic_zeros(1)) == 0.0

    def test_matches_hand_value(self):
        grid = asymptotic_zeros(8)
        params = LctParams(2.0, 1.0, 1.0, 1.0)
        sq = grid.nodes ** 2
        assert chirp_phase_step(params, grid) == pytest.approx(
            np.max(np.abs(np.diff(sq))), rel=1e-14)


def test_docstrings_give_no_durations():
    # Timings go stale with the host and numpy: they belong in README's cost
    # table, CHANGES and the BENCH files, not in a docstring.
    duration = re.compile(r"\d\s*(?:ms|µs|us|ns)\b")
    found = []
    modules = [xft] + [importlib.import_module(f"xft.{info.name}")
                       for info in pkgutil.iter_modules(xft.__path__)]
    for module in modules:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node) or ""
                found += [f"{module.__name__}:{getattr(node, 'name', '<module>')}: {match.group()!r}"
                          for match in duration.finditer(doc)]
    assert found == []


def test_public_names_resolve_and_removed_paths_stay_gone():
    for info in pkgutil.iter_modules(xft.__path__):
        module = importlib.import_module(f"xft.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"xft.{info.name}.__all__ names {name}"
    for name in xft.__all__:
        assert hasattr(xft, name), f"xft.__all__ names {name}"
    for removed in ("apply_scaled_fourier", "scaled_fourier_matrix"):
        assert not hasattr(xft, removed) and not hasattr(xft.kernel, removed)
    assert not hasattr(xft, "quadrature_on_nodes")
    assert not hasattr(xft.oracle, "quadrature_on_nodes")
    assert "threads" not in inspect.signature(direct_quadrature_lct).parameters
    assert not hasattr(Signal, "sample")
    assert list(inspect.signature(fast_lct).parameters) == ["params", "signal"]
    assert not hasattr(xft, "DenseTransform") and not hasattr(xft.dense, "DenseTransform")
    for method in (LctParams.is_unimodular, LctParams.require_unimodular):
        assert list(inspect.signature(method).parameters) == ["self"]
    modules = (xft.errors, xft.hermite, xft.fftcore, xft.kernel, xft.lct, xft.dense, xft.oracle)
    assert sorted(xft.__all__) == sorted({"__version__"}.union(*(m.__all__ for m in modules)))
    assert xft.inverse_lct is xft.lct.inverse_lct
    cli = importlib.import_module("xft.cli")
    for removed in ("_inverse_roundtrip", "_build_input", "_print_expected_grid"):
        assert not hasattr(cli, removed)
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["radius", "tol"]
    assert list(inspect.signature(QuadratureConfig.for_gaussian).parameters) == ["g"]
