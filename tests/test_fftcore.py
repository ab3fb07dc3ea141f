"""FFT engine: plan validation, naive-DFT oracle agreement, invariants."""
import threading

import numpy as np
import pytest

from xft import (
    InvalidSizeError,
    ParameterError,
    ShapeError,
    apply_dft,
    naive_dft,
    plan_dft,
)


def rel_err(got, ref):
    scale = np.linalg.norm(ref)
    return np.linalg.norm(got - ref) / (scale if scale else 1.0)


class TestPlanning:
    def test_identity_at_n1(self):
        plan = plan_dft(1, 1)
        assert plan.route == "numpy"
        assert apply_dft(plan, [3.0 - 1j]).tolist() == [3.0 - 1j]

    def test_route_selection(self):
        # One engine serves every length and both signs.
        for n in (1, 3, 1000, 1024):
            for sign in (1, -1):
                assert plan_dft(n, sign).route == "numpy"

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidSizeError):
            plan_dft(0, 1)
        with pytest.raises(ParameterError):
            plan_dft(8, 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_dft(plan_dft(8, 1), np.zeros(7))

    def test_single_precision_input_gives_double_output(self):
        v = np.arange(8, dtype=np.complex64) / 3
        for sign in (1, -1):
            out = apply_dft(plan_dft(8, sign), v)
            assert out.dtype == np.complex128
            assert rel_err(out, naive_dft(v.astype(complex), sign)) < 1e-14


class TestAgainstNaive:
    def test_n2_all_ones(self):
        for sign in (1, -1):
            out = apply_dft(plan_dft(2, sign), [1.0, 1.0])
            assert out == pytest.approx([2.0, 0.0], abs=1e-15)

    def test_n4_unit_impulse_at_1(self):
        out = apply_dft(plan_dft(4, 1), [0, 1, 0, 0])
        assert out == pytest.approx([1, 1j, -1, -1j], abs=1e-15)

    @pytest.mark.parametrize("n", list(range(1, 65)) + [512, 1000, 2048])
    def test_matches_naive(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for sign in (1, -1):
            got = apply_dft(plan_dft(n, sign), v)
            assert rel_err(got, naive_dft(v, sign)) < 1e-11

    def test_naive_guard(self):
        with pytest.raises(InvalidSizeError):
            naive_dft(np.zeros(5000), 1)


class TestInvariants:
    @pytest.mark.parametrize("n", [4, 37, 256, 1000])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 1)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = apply_dft(plan_dft(n, -1), v)
        lhs = np.sum(np.abs(out) ** 2)
        rhs = n * np.sum(np.abs(v) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("n", [2, 12, 128, 1000])
    def test_inversion_roundtrip(self, n):
        rng = np.random.default_rng(2 * n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        fwd = plan_dft(n, 1)
        inv = plan_dft(n, -1)
        back = apply_dft(inv, apply_dft(fwd, v)) / n
        assert rel_err(back, v) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(9)
        n = 96
        plan = plan_dft(n, 1)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha, beta = 1.7 - 0.3j, -0.4 + 2.1j
        lhs = apply_dft(plan, alpha * u + beta * v)
        rhs = alpha * apply_dft(plan, u) + beta * apply_dft(plan, v)
        assert rel_err(lhs, rhs) < 1e-12

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=384) + 1j * rng.normal(size=384)
        plan = plan_dft(384, -1)
        a = apply_dft(plan, v)
        b = apply_dft(plan, v)
        assert np.array_equal(a, b)

    def test_input_not_mutated(self):
        v = np.arange(8, dtype=complex)
        keep = v.copy()
        apply_dft(plan_dft(8, 1), v)
        assert np.array_equal(v, keep)


class TestConcurrency:
    """Plans own no scratch: one plan may serve many threads at once."""

    def _hammer(self, plan, v, results, idx):
        results[idx] = apply_dft(plan, v)

    def test_shared_plan_parallel_applies(self):
        rng = np.random.default_rng(11)
        n = 600
        plan = plan_dft(n, 1)
        vs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(8)]
        expected = [apply_dft(plan, v) for v in vs]
        results = [None] * 8
        threads = [threading.Thread(target=self._hammer, args=(plan, vs[i], results, i))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, ref in zip(results, expected):
            assert np.array_equal(got, ref)

    def test_two_plans_in_parallel(self):
        rng = np.random.default_rng(12)
        n = 256
        p1, p2 = plan_dft(n, 1), plan_dft(n, -1)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        seq = [apply_dft(p1, v), apply_dft(p2, v)]
        results = [None, None]
        threads = [threading.Thread(target=self._hammer, args=(p, v, results, i))
                   for i, p in enumerate([p1, p2])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(results[0], seq[0])
        assert np.array_equal(results[1], seq[1])
