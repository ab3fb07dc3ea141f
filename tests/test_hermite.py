"""Grid construction, exact zeros, and Hermite-function recurrence."""
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from xft import (
    HermiteGrid,
    InvalidSizeError,
    asymptotic_zeros,
    exact_hermite_zeros,
    grid_spacing,
    hermite_function_row,
)


def decimal_psi_row(n_max, x, digits=50):
    """Extended-precision recurrence oracle for psi_0..psi_{n_max-1}(x)."""
    getcontext().prec = digits
    x = Decimal(x)
    pi = Decimal("3.14159265358979323846264338327950288419716939937511")
    p = (1 / pi.sqrt()).sqrt() * (-(x * x) / 2).exp()
    out = [p]
    if n_max == 1:
        return out
    q = Decimal(2).sqrt() * x * p
    out.append(q)
    for m in range(1, n_max - 1):
        m = Decimal(m)
        p, q = q, x * (2 / (m + 1)).sqrt() * q - (m / (m + 1)).sqrt() * p
        out.append(q)
    return out


class TestAsymptoticZeros:
    def test_single_node_is_zero(self):
        assert asymptotic_zeros(1).nodes.tolist() == [0.0]

    def test_n2_nodes(self):
        nodes = asymptotic_zeros(2).nodes
        assert nodes == pytest.approx([-math.pi / 4, math.pi / 4], abs=1e-15)
        assert nodes == pytest.approx([-0.785398, 0.785398], abs=1e-6)

    def test_n4_nodes(self):
        nodes = asymptotic_zeros(4).nodes
        expected = [-3 * math.pi / (4 * math.sqrt(2)), -math.pi / (4 * math.sqrt(2)),
                    math.pi / (4 * math.sqrt(2)), 3 * math.pi / (4 * math.sqrt(2))]
        assert nodes == pytest.approx(expected, abs=1e-15)
        assert nodes == pytest.approx([-1.666081, -0.555360, 0.555360, 1.666081], abs=1e-6)

    def test_rejects_zero_size(self):
        with pytest.raises(InvalidSizeError):
            asymptotic_zeros(0)

    def test_one_read_only_grid_per_size(self):
        grid = asymptotic_zeros(37)
        assert asymptotic_zeros(37) is grid
        assert asymptotic_zeros(np.int64(37)) is grid
        assert grid.n == 37 and type(grid.n) is int
        assert not grid.nodes.flags.writeable
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0

    def test_rejects_float_size_even_when_cached(self):
        asymptotic_zeros(3)
        with pytest.raises(InvalidSizeError):
            asymptotic_zeros(3.0)

    @pytest.mark.parametrize("n,nodes", [(0, []), (-1, []), (3, [0.0, 1.0])])
    def test_grid_rejects_bad_node_count(self, n, nodes):
        with pytest.raises(InvalidSizeError):
            HermiteGrid(n, np.array(nodes), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 101, 512])
    def test_grid_invariants(self, n):
        grid = asymptotic_zeros(n)
        assert abs(grid.spacing - math.pi / math.sqrt(2 * n)) <= 1e-14
        # antisymmetric to 1e-14 (exact by construction)
        assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) == 0.0
        if n > 1:
            assert np.all(np.diff(grid.nodes) > 0)
            assert np.max(np.abs(np.diff(grid.nodes) - grid.spacing)) <= 1e-14


class TestGridSpacing:
    def test_values(self):
        assert grid_spacing(2) == pytest.approx(math.pi / 2, abs=1e-15)
        assert grid_spacing(8) == pytest.approx(math.pi / 4, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_matches_node_difference(self, n):
        grid = asymptotic_zeros(n)
        assert grid_spacing(n) == pytest.approx(grid.nodes[1] - grid.nodes[0], abs=1e-15)

    def test_rejects_zero_size(self):
        with pytest.raises(InvalidSizeError):
            grid_spacing(0)


class TestExactZeros:
    def test_n1(self):
        assert exact_hermite_zeros(1).tolist() == [0.0]

    def test_n2_roots_of_quadratic(self):
        # H_2(x) = 4x^2 - 2
        assert exact_hermite_zeros(2) == pytest.approx(
            [-0.7071068, 0.7071068], abs=1e-7)

    def test_n3_roots_of_cubic(self):
        # H_3(x) = 8x^3 - 12x, roots 0 and +-sqrt(3/2)
        assert exact_hermite_zeros(3) == pytest.approx(
            [-1.2247449, 0.0, 1.2247449], abs=1e-7)

    def test_small_residuals(self):
        for n, poly in [(2, lambda x: 4 * x**2 - 2), (3, lambda x: 8 * x**3 - 12 * x)]:
            for root in exact_hermite_zeros(n):
                assert abs(poly(root)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 9, 16, 64, 256])
    def test_sorted_and_antisymmetric(self, n):
        zeros = exact_hermite_zeros(n)
        assert np.all(np.diff(zeros) > 0)
        assert np.max(np.abs(zeros + zeros[::-1])) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 31, 63])
    def test_interlacing(self, n):
        inner = exact_hermite_zeros(n)
        outer = exact_hermite_zeros(n + 1)
        assert np.all(outer[:-1] < inner)
        assert np.all(inner < outer[1:])

    def test_asymptotic_agreement_improves_with_n(self):
        # The equispaced approximation converges pointwise at fixed x, so the
        # agreement window must be fixed in x (|x| <= 1).  Over index windows
        # that scale with n (e.g. the middle half) the max deviation *grows*
        # ~sqrt(n), because the window edge wanders out to x ~ sqrt(n).
        errs = []
        for n in (16, 64, 256):
            exact = exact_hermite_zeros(n)
            approx = asymptotic_zeros(n).nodes
            window = np.abs(approx) <= 1.0
            errs.append(np.max(np.abs(exact[window] - approx[window])))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidSizeError):
            exact_hermite_zeros(0)
        with pytest.raises(InvalidSizeError):
            exact_hermite_zeros(4097)  # the dense size guard

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_newton_step_against_recurrence(self, n):
        # psi_n'(x_k) = sqrt(2n) psi_{n-1}(x_k) at a zero, so this ratio is
        # the distance Newton's method would still move x_k.
        for x in exact_hermite_zeros(n):
            row = hermite_function_row(n + 1, x)
            step = abs(row[n]) / (math.sqrt(2 * n) * abs(row[n - 1]))
            assert step <= 1e-13 * max(1.0, abs(x))


class TestHermiteFunctionRow:
    def test_values_at_origin(self):
        row = hermite_function_row(2, 0.0)
        assert row[0] == pytest.approx(math.pi ** -0.25, abs=1e-12)
        assert row[0] == pytest.approx(0.7511255, abs=1e-7)
        assert row[1] == 0.0

    def test_odd_orders_vanish_at_origin(self):
        row = hermite_function_row(11, 0.0)
        assert np.all(row[1::2] == 0.0)
        assert np.all(row[0::2] != 0.0)

    def test_recurrence_consistency(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-6, 6, size=8):
            row = hermite_function_row(40, x)
            for m in range(1, 39):
                rebuilt = (x * math.sqrt(2 / (m + 1)) * row[m]
                           - math.sqrt(m / (m + 1)) * row[m - 1])
                assert rebuilt == pytest.approx(row[m + 1], rel=1e-12, abs=1e-300)

    def test_row_norm_against_extended_precision(self):
        row = hermite_function_row(64, 1.0)
        norm = math.sqrt(float(np.sum(row ** 2)))
        oracle = decimal_psi_row(64, "1.0")
        oracle_norm = math.sqrt(float(sum(v * v for v in oracle)))
        assert math.isfinite(norm)
        assert norm == pytest.approx(oracle_norm, rel=1e-13)

    def test_row_values_against_extended_precision(self):
        for n_max, x in ((32, "1.75"), (1, "1.5")):
            row = hermite_function_row(n_max, float(x))
            oracle = [float(v) for v in decimal_psi_row(n_max, x)]
            assert row.shape == (n_max,)
            assert row == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_finite_at_extreme_arguments(self):
        row = hermite_function_row(4096, 200.0)
        assert np.all(np.isfinite(row))
        row = hermite_function_row(512, -35.0)
        assert np.all(np.isfinite(row))

    def test_rejects_zero_size(self):
        with pytest.raises(InvalidSizeError):
            hermite_function_row(0, 1.0)
