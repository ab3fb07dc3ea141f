"""FFT engine: plan validation, naive-DFT oracle agreement, invariants."""
import concurrent.futures
import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from xft import (
    InvalidSizeError,
    ParameterError,
    ShapeError,
    apply_dft,
    asymptotic_zeros,
    naive_dft,
    plan_dft,
)
from xft.dense import MAX_DENSE_N
from xft import fftcore, kernel
from xft.fftcore import _rader_tables, dft_matrix
from xft.lct import _fused_factors


@contextlib.contextmanager
def worker_stand_in(monkeypatch, mode):
    """The worker as a caller of fftcore._halves may find it.

    "worker" runs its half on the caller at submit; "busy" is held by another
    caller; "not_begun" never begins the half it is handed, so the caller
    takes that half back.
    """
    class Inline:
        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            if mode == "worker":
                future.set_result(fn(*args))
            return future

    with contextlib.ExitStack() as stack:
        if mode == "busy":
            stack.enter_context(fftcore._busy)
        else:
            monkeypatch.setattr(fftcore, "_worker", Inline)
        yield


def rel_err(got, ref):
    scale = np.linalg.norm(ref)
    return np.linalg.norm(got - ref) / (scale if scale else 1.0)


class TestPlanning:
    def test_identity_at_n1(self):
        plan = plan_dft(1, 1)
        assert plan.route == "numpy"
        assert apply_dft(plan, [3.0 - 1j]).tolist() == [3.0 - 1j]

    def test_route_selection(self):
        for sign in (1, -1):
            # numpy.fft serves these lengths: below the row route's cutoff, or
            # 2 * 524287 (prime), whose rows would be 524287 points long.
            for n in (1, 3, 512, 1000, 1024, 2**17 - 1, 2 * 524287):
                assert plan_dft(n, sign).route == "numpy"
            for n in (2**17, 3**11, 2**20):
                assert plan_dft(n, sign).route == "rows"

    def test_plans_hold_their_tables(self, monkeypatch):
        # A plan builds its route's tables once; applying it builds nothing,
        # and neither fftcore nor kernel keeps a cache of its own.
        rng = np.random.default_rng(19)
        plans = [plan_dft(n, sign) for n in (769, 65537, 2**17) for sign in (1, -1)]
        assert [p.route for p in plans] == ["rader"] * 4 + ["rows"] * 2
        inputs = [rng.normal(size=p.n) + 1j * rng.normal(size=p.n) for p in plans]
        before = [apply_dft(p, v) for p, v in zip(plans, inputs)]

        def rebuilt(*args):
            raise AssertionError(f"tables built again at apply for {args}")

        monkeypatch.setattr(fftcore, "_rader_tables", rebuilt)
        monkeypatch.setattr(fftcore, "_row_twiddles", rebuilt)
        for plan, v, ref in zip(plans, inputs, before):
            assert np.array_equal(apply_dft(plan, v), ref)
        for module in (fftcore, kernel):
            assert [name for name, value in vars(module).items()
                    if hasattr(value, "cache_info")] == []

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidSizeError):
            plan_dft(0, 1)
        with pytest.raises(ParameterError):
            plan_dft(8, 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_dft(plan_dft(8, 1), np.zeros(7))

    def test_rejects_out_of_wrong_shape_or_dtype(self):
        v = np.ones(8, dtype=complex)
        for out in (np.empty(7, dtype=complex), np.empty((8, 1), dtype=complex),
                    np.empty(8), np.empty(8, dtype=np.complex64), [0j] * 8):
            with pytest.raises(ShapeError):
                apply_dft(plan_dft(8, -1), v, out=out)

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
        with pytest.raises(InvalidSizeError, match=f"n <= {MAX_DENSE_N} "):
            dft_matrix(MAX_DENSE_N + 1, 1)


class TestRaderRoute:
    """Primes n >= 257 with 5-smooth n - 1 run as a cyclic convolution of length n - 1."""

    @pytest.mark.parametrize("n", [257, 769, 3457])
    def test_matches_naive(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for sign in (1, -1):
            plan = plan_dft(n, sign)
            assert plan.route == "rader"
            assert rel_err(apply_dft(plan, v), naive_dft(v, sign)) <= 1e-13

    # 39367 - 1 = 2 * 3^9 splits into 18 rows of 2187, 65537 - 1 into 16 of 4096;
    # 3^11, 10^6 and 2^20 take the row route, in 81 rows of 2187, 250 of 4000
    # (halves of 125 rows) and 256 of 4096.
    @pytest.mark.parametrize("n", [12289, 39367, 65537, 3**11, 10**6, 2**20])
    def test_matches_numpy_fft(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert rel_err(apply_dft(plan_dft(n, -1), v), np.fft.fft(v)) <= 1e-13
        assert rel_err(apply_dft(plan_dft(n, 1), v), np.fft.ifft(v, norm="forward")) <= 1e-13

    def test_route_selection(self):
        for sign in (1, -1):
            assert plan_dft(65537, sign).route == "rader"
            # 4099 - 1 = 2*3*683; 2*65537 is not prime; 251 is below the threshold
            for n in (4099, 2 * 65537, 251):
                assert plan_dft(n, sign).route == "numpy"

    def test_tables_are_read_only(self):
        perm, spectrum, twiddles = _rader_tables(769, -1)
        assert perm.dtype == np.intp and perm.shape == (768,)
        assert spectrum.shape == (768,) and twiddles == ()
        assert not perm.flags.writeable and not spectrum.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = 0
        perm, spectrum, twiddles = _rader_tables(65537, 1)
        assert perm.shape == (65536,) and spectrum.shape == (16, 4096)
        assert [t.shape for t in twiddles] == [(16, 64, 1), (16, 1, 64)]
        for table in (perm, spectrum, *twiddles):
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            twiddles[0][0, 0, 0] = 0
        assert _rader_tables(4099, -1) is None

    def test_input_not_mutated(self):
        v = np.arange(257, dtype=complex)
        keep = v.copy()
        apply_dft(plan_dft(257, -1), v)
        assert np.array_equal(v, keep)


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

    @pytest.mark.parametrize("n", [1, 2, 7, 512, 1000, 65537, 2**20])
    def test_in_place_out_is_bit_identical(self, n):
        rng = np.random.default_rng(n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for sign in (1, -1):
            plan = plan_dft(n, sign)
            fresh = apply_dft(plan, v)
            w = v.copy()
            assert apply_dft(plan, w, out=w) is w
            assert np.array_equal(w, fresh)

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

    @pytest.mark.parametrize("inline", ["worker", "busy", "not_begun"])
    def test_row_route_halves_inline_are_bit_identical(self, monkeypatch, inline):
        rng = np.random.default_rng(13)
        n = 3**11
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        plans = [plan_dft(n, sign) for sign in (1, -1)]
        threaded = [apply_dft(plan, v) for plan in plans]
        with worker_stand_in(monkeypatch, inline):
            for plan, ref in zip(plans, threaded):
                assert np.array_equal(apply_dft(plan, v), ref)

    @pytest.mark.parametrize("n", [2**17, 3**11])
    @pytest.mark.parametrize("mode", ["thread", "worker", "busy", "not_begun"])
    def test_split_factor_build_is_bit_identical_to_serial(self, monkeypatch, n, mode):
        # The row route builds the chirps' upper halves in two halves; the
        # serial build evaluates each upper half in one call and mirrors it.
        a, b, d = 0.7, -1.3, 1.9
        x = asymptotic_zeros(n).nodes
        y = (4.0 * b / np.pi) * x
        upper = n // 2
        serial = [np.concatenate((half[n % 2:][::-1], half)) * kernel.boundary_phase(n)
                  for half in (kernel.input_chirp(a, b, x[upper:]),
                               kernel.output_chirp(d, b, y[upper:]))]
        serial[1] *= kernel.kernel_prefactor(n)
        with (contextlib.nullcontext() if mode == "thread"
              else worker_stand_in(monkeypatch, mode)):
            pre, post, _ = _fused_factors.__wrapped__(n, a, b, d)
        assert pre.tobytes() == serial[0].tobytes()
        assert post.tobytes() == serial[1].tobytes()

    @pytest.mark.parametrize("case", ["free", "busy", "one_cpu"])
    def test_halves_take_the_worker_only_when_it_is_free(self, monkeypatch, case):
        ran_on, begun = {}, threading.Event()

        def stage(lo, hi):
            ran_on[lo, hi] = threading.current_thread()
            if lo:
                begun.set()
            else:  # give the worker time to begin its half, if it was handed it
                begun.wait(timeout=60 if case == "free" else 0.5)

        cpus = {0} if case == "one_cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        with contextlib.ExitStack() as stack:
            if case == "busy":
                stack.enter_context(fftcore._busy)
            fftcore._halves(5, stage)
        here = threading.current_thread()
        assert ran_on[0, 2] is here
        assert (ran_on[2, 5] is here) == (case != "free")

    def test_row_route_reuses_its_work_array(self, monkeypatch):
        # A smaller apply runs in the work array that a larger one left.
        rng = np.random.default_rng(16)
        n = 2**17
        plan = plan_dft(n, -1)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        monkeypatch.setattr(fftcore, "_spare", [])
        fresh = apply_dft(plan, v)
        apply_dft(plan_dft(2 * n, 1), np.full(2 * n, 1e300 + 1e300j))
        (work,) = fftcore._spare
        assert np.array_equal(apply_dft(plan, v), fresh)
        assert len(fftcore._spare) == 1 and fftcore._spare[0] is work

    def test_one_worker_for_racing_first_applies(self, monkeypatch):
        started = []

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        rng = np.random.default_rng(14)
        n = 2**17
        plan = plan_dft(n, -1)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = apply_dft(plan, v)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        rounds, results = 5, [None] * 6
        gate = threading.Barrier(len(results))

        def first_apply(i):
            gate.wait(timeout=60)
            self._hammer(plan, v, results, i)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                monkeypatch.setattr(fftcore, "_executor", None)
                threads = [threading.Thread(target=first_apply, args=(i,))
                           for i in range(len(results))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert all(np.array_equal(got, expected) for got in results)
        finally:
            sys.setswitchinterval(switch)
            for executor in started:
                executor.shutdown()
        assert len(started) == rounds

    def test_other_routes_never_start_the_worker(self):
        # A transform at a Rader and at a numpy-route length, factors included.
        script = (
            "import sys, numpy as np\n"
            "from xft import LctParams, Signal, asymptotic_zeros, fast_lct, fftcore\n"
            "for n in (65537, 512):\n"
            "    grid = asymptotic_zeros(n)\n"
            "    fast_lct(LctParams(0.3, 1.7, (0.3 * 0.2 - 1) / 1.7, 0.2),\n"
            "             Signal(grid, np.exp(-grid.nodes ** 2)))\n"
            "print(fftcore._executor is None, 'concurrent.futures' not in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(fftcore.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.split() == ["True", "True"], proc.stderr

    @pytest.mark.parametrize("started", [True, False])
    def test_row_route_runs_at_interpreter_exit(self, started):
        # atexit functions run after the worker thread has been stopped, and
        # no new thread can start there.
        script = (
            "import atexit, numpy as np\n"
            "from xft import apply_dft, plan_dft\n"
            "plan = plan_dft(2**17, -1)\n"
            "v = np.arange(2**17) % 7 + 1j\n"
            f"first = apply_dft(plan, v) if {started} else np.fft.fft(v)\n"
            "atexit.register(lambda: print(np.linalg.norm(apply_dft(plan, v) - first)"
            " <= 1e-13 * np.linalg.norm(first)))\n"
        )
        src = os.path.dirname(os.path.dirname(fftcore.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.split() == ["True"], proc.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs os.fork")
    def test_row_route_runs_in_a_forked_child(self):
        rng = np.random.default_rng(15)
        n = 2**17
        plan = plan_dft(n, -1)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = apply_dft(plan, v)  # the worker thread is running from here
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(apply_dft(plan, v), expected) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's transform did not finish in 30 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
