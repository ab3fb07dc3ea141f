"""Dense fractional-Fourier and LCT matrices: eigenstructure and properties."""
import math

import numpy as np
import pytest

from xft import (
    DegenerateParameterError,
    FrftOrder,
    GaussianParams,
    InvalidSizeError,
    LctParams,
    ParameterError,
    SingularParameterError,
    asymptotic_zeros,
    dense_lct_matrix,
    eigenvector_matrix,
    exact_hermite_zeros,
    frft_matrix,
    frft_matrix_asymptotic,
    gaussian_lct_closed_form,
    gaussian_sample,
    hermite_function_row,
    mehler_kernel,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def jacobi_matrix(n):
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


class TestFrftOrder:
    def test_accepts_unit_disk(self):
        FrftOrder(0.5 + 0.1j)
        FrftOrder(1.0)
        FrftOrder(np.exp(0.3j))

    def test_rejects_outside_disk(self):
        with pytest.raises(ParameterError):
            FrftOrder(1.0 + 1e-6)


class TestEigenvectorMatrix:
    def test_n1(self):
        assert eigenvector_matrix(1).tolist() == [[1.0]]

    def test_n2_by_hand(self):
        # H = [[0, sqrt(1/2)], [sqrt(1/2), 0]], eigenvalues -+1/sqrt(2);
        # columns have positive mode-0 component.
        u = eigenvector_matrix(2)
        h = jacobi_matrix(2)
        lam = np.array([-1, 1]) / math.sqrt(2)
        assert np.max(np.abs(h @ u - u * lam[None, :])) < 1e-14
        r = 1 / math.sqrt(2)
        assert u == pytest.approx(np.array([[r, r], [-r, r]]), abs=1e-14)

    def test_n8_orthogonality(self):
        u = eigenvector_matrix(8)
        assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_eigen_residual_and_orthogonality(self, n):
        u = eigenvector_matrix(n)
        zeros = exact_hermite_zeros(n)
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(jacobi_matrix(n) @ u - u * zeros[None, :])) <= 1e-10

    def test_mode0_row_positive(self):
        assert np.all(eigenvector_matrix(12)[0] > 0)

    def test_size_guard(self):
        with pytest.raises(InvalidSizeError):
            eigenvector_matrix(4097)


class TestFrftMatrix:
    def test_identity_order(self):
        for n in (2, 5, 16):
            f = frft_matrix(n, FrftOrder(1.0))
            assert np.max(np.abs(f - SQRT_2PI * np.eye(n))) < 1e-12

    def test_order_zero_projects_onto_ground_mode(self):
        n = 4
        u = eigenvector_matrix(n)
        f = frft_matrix(n, FrftOrder(0.0))
        expected = SQRT_2PI * np.outer(u[0], u[0])
        assert np.max(np.abs(f - expected)) < 1e-13

    def test_unitarity_on_circle_n32(self):
        rng = np.random.default_rng(5)
        f = frft_matrix(32, FrftOrder(1j)) / SQRT_2PI
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.linalg.norm(f @ np.conj(f.T) @ v - v) <= 1e-9 * np.linalg.norm(v)
        assert np.max(np.abs(f @ np.conj(f.T) - np.eye(32))) <= 1e-9

    def test_unitarity_on_circle_n1024(self):
        f = frft_matrix(1024, FrftOrder(np.exp(0.9j))) / SQRT_2PI
        assert np.max(np.abs(f @ np.conj(f.T) - np.eye(1024))) <= 1e-9

    @pytest.mark.parametrize("n", [8, 24, 64, 512])
    def test_matches_normalized_sum_formula(self, n):
        # Same matrix from the explicit closed-form normalization:
        # F[j,k] = sqrt(2pi) (-1)^{j+k} sum_m z^m psi_m(x_j) psi_m(x_k)
        #          / (n psi_{n-1}(x_j) psi_{n-1}(x_k)).
        z = 0.3 + 0.4j
        zeros = exact_hermite_zeros(n)
        rows = np.stack([hermite_function_row(n, x) for x in zeros], axis=1)
        top = rows[-1]
        weights = z ** np.arange(n)
        summed = (rows.T * weights[None, :]) @ rows.astype(complex)
        signs = (-1.0) ** (np.arange(n)[:, None] + np.arange(n)[None, :])
        explicit = SQRT_2PI * signs * summed / (n * np.outer(top, top))
        built = frft_matrix(n, FrftOrder(z))
        scale = np.max(np.abs(built))
        assert np.max(np.abs(built - explicit)) <= 1e-10 * scale

    def test_complex_symmetry(self):
        f = frft_matrix(24, FrftOrder(0.2 - 0.7j))
        assert np.max(np.abs(f - f.T)) <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(6)
        n = 32
        worst = 0.0
        for _ in range(10):
            raw = rng.normal(size=4)
            z = complex(raw[0], raw[1])
            w = complex(raw[2], raw[3])
            z /= max(1.0, abs(z))
            w /= max(1.0, abs(w))
            fz = frft_matrix(n, FrftOrder(z))
            fw = frft_matrix(n, FrftOrder(w))
            fzw = frft_matrix(n, FrftOrder(z * w))
            worst = max(worst, np.max(np.abs(fz @ fw - SQRT_2PI * fzw)))
        assert worst <= 1e-8


class TestMehlerKernel:
    def test_origin_value(self):
        assert mehler_kernel(FrftOrder(0.0), 0.0, 0.0) == pytest.approx(math.sqrt(2))

    def test_z0_substitution(self):
        # sqrt(2) * exp(-(1^2 + 2^2)/2) = sqrt(2) e^{-5/2}
        val = mehler_kernel(FrftOrder(0.0), 1.0, 2.0)
        assert val == pytest.approx(0.1160857, abs=1e-7)
        assert val == pytest.approx(math.sqrt(2) * math.exp(-2.5), rel=1e-12)

    def test_pure_phase_on_diagonal_at_i(self):
        ts = np.linspace(-3, 3, 41)
        vals = mehler_kernel(FrftOrder(1j), ts, ts)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12

    def test_symmetric_in_arguments(self):
        order = FrftOrder(0.4 + 0.2j)
        assert mehler_kernel(order, 0.7, -1.3) == pytest.approx(
            mehler_kernel(order, -1.3, 0.7), rel=1e-14)

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_singular_at_real_unit(self, z):
        with pytest.raises(SingularParameterError):
            mehler_kernel(FrftOrder(z), 0.0, 0.0)


class TestFrftAsymptotic:
    def test_n2_z0_substitution(self):
        grid = asymptotic_zeros(2)
        f = frft_matrix_asymptotic(2, FrftOrder(0.0))
        x = grid.nodes
        expected = (math.sqrt(2)
                    * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2)
                    * grid.spacing)
        assert np.max(np.abs(f - expected)) < 1e-14

    def test_singular_order_rejected(self):
        with pytest.raises(SingularParameterError):
            frft_matrix_asymptotic(8, FrftOrder(1.0))

    def test_approaches_exact_matrix(self):
        errs = []
        for n in (16, 32, 64):
            approx = frft_matrix_asymptotic(n, FrftOrder(0.5))
            exact = frft_matrix(n, FrftOrder(0.5))
            errs.append(np.max(np.abs(approx - exact)))
        assert errs[0] > errs[1] > errs[2]


class TestDenseLct:
    def test_fourier_gaussian_smoke_n4(self):
        params = LctParams.fourier()
        grid = asymptotic_zeros(4)
        sig = gaussian_sample(GaussianParams(0.5, 0.0, 0.0), grid)
        got = dense_lct_matrix(4, params) @ sig.values
        y = (4 / np.pi) * grid.nodes
        expected = np.exp(-1j * np.pi / 4) * np.exp(-y ** 2 / 2)
        # coarse at n=4; tightens to 1e-3 by n=256 (next test)
        assert np.max(np.abs(got - expected)) < 0.1

    def test_fourier_gaussian_n256(self):
        params = LctParams.fourier()
        grid = asymptotic_zeros(256)
        sig = gaussian_sample(GaussianParams(0.5, 0.0, 0.0), grid)
        got = dense_lct_matrix(256, params) @ sig.values
        y = (4 / np.pi) * grid.nodes
        expected = np.exp(-1j * np.pi / 4) * np.exp(-y ** 2 / 2)
        assert np.max(np.abs(got - expected)) <= 1e-3

    def test_kernel_norm_identity_n8(self):
        # F F^H = (pi^2/2) I for the scaled Fourier kernel factor
        f = np.sqrt(2j * np.pi) * dense_lct_matrix(8, LctParams.fourier())
        assert np.max(np.abs(f @ np.conj(f.T) - (np.pi ** 2 / 2) * np.eye(8))) <= 1e-10

    def test_rejects_b_zero(self):
        with pytest.raises(DegenerateParameterError):
            dense_lct_matrix(8, LctParams(1.0, 0.0, 0.0, 1.0))

    def test_rejects_non_unimodular(self):
        # built from the (a, b, d) factors alone, so c must pass the check
        with pytest.raises(ParameterError, match="determinant"):
            dense_lct_matrix(8, LctParams(1.0, 1.0, 1.0, 1.0))

    def test_size_guard(self):
        with pytest.raises(InvalidSizeError):
            dense_lct_matrix(8192, LctParams.fourier())

    def test_entries_finite(self):
        t = dense_lct_matrix(16, LctParams(1.0, 2.0, 0.5, 2.0))
        assert np.all(np.isfinite(t.real))
        assert np.all(np.isfinite(t.imag))

    def test_fast_path_reconstructs_matrix(self):
        from xft import Signal, fast_lct
        n = 6
        params = LctParams(0.5, 1.5, -0.5, 0.5)  # det = 0.25 + 0.75 = 1
        dense = dense_lct_matrix(n, params)
        grid = asymptotic_zeros(n)
        columns = []
        for k in range(n):
            basis = np.zeros(n, dtype=complex)
            basis[k] = 1.0
            columns.append(fast_lct(params, Signal(grid, basis)).values)
        rebuilt = np.stack(columns, axis=1)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(rebuilt - dense)) <= 1e-12 * scale

    def test_matches_figure_oracle(self):
        g = GaussianParams(1.0, 2.0, 3.0)
        params = LctParams(1.0, 2.0, 0.5, 2.0)
        n = 128
        grid = asymptotic_zeros(n)
        got = dense_lct_matrix(n, params) @ gaussian_sample(g, grid).values
        y = (4 * params.b / np.pi) * grid.nodes
        lo, hi = n // 10, (9 * n) // 10
        oracle = gaussian_lct_closed_form(g, params, y[lo:hi])
        assert np.max(np.abs(got[lo:hi] - oracle)) < 1e-12
