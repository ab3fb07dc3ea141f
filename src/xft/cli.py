"""Command-line surface: transform, compare, bench, grid.

Exit codes: 0 success, 2 malformed input, 3 parameter error, 4 grid
mismatch, 5 comparison over threshold.  All file output is CSV/TSV, UTF-8,
LF line endings, 17 significant digits (lossless double round trip).
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .dense import dense_lct_matrix
from .errors import (
    ConvergenceError,
    GridMismatchError,
    ParameterError,
    ShapeError,
    XftError,
)
from .fftcore import plan_dft
from .hermite import asymptotic_zeros, exact_hermite_zeros
from .kernel import DFT_SIGN
from .lct import LctParams, Signal, chirp_phase_step, fast_lct, lct_b_zero
from .oracle import (
    GaussianParams,
    QuadratureConfig,
    compare,
    gaussian_lct_closed_form,
    gaussian_sample,
    quadrature_on_nodes,
)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_PARAMETER = 3
EXIT_GRID = 4
EXIT_THRESHOLD = 5

_GRID_INPUT_TOL = 1e-9


class _UsageError(Exception):
    """Malformed request (flags or file contents); maps to exit 2."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _open_output(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_rows(path, header, rows):
    stream, owned = _open_output(path)
    try:
        stream.write(header + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if owned:
            stream.close()


def _parse_params(args) -> LctParams:
    if (args.params is None) == (args.preset is None):
        raise _UsageError("give exactly one of --params a,b,c,d or --preset")
    if args.params is not None:
        parts = args.params.split(",")
        if len(parts) != 4:
            raise _UsageError(f"--params needs 4 comma-separated values, got {args.params!r}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise _UsageError(f"bad --params value: {exc}") from exc
        return LctParams(*values)
    name, _, arg = args.preset.partition(":")
    if name == "fourier":
        if arg:
            raise _UsageError("preset fourier takes no argument")
        return LctParams.fourier()
    if name not in ("fresnel", "frft"):
        raise _UsageError(f"unknown preset {name!r} (use fourier | fresnel:b | frft:theta)")
    try:
        value = float(arg)
    except ValueError as exc:
        raise _UsageError(f"bad preset argument {arg!r}: {exc}") from exc
    # Constructed outside the try: a non-finite value is a ParameterError (exit 3).
    return LctParams.fresnel(value) if name == "fresnel" else LctParams.frft(value)


def _parse_function(text: str) -> GaussianParams:
    name, _, arg = text.partition(":")
    if name != "gaussian":
        raise _UsageError(f"unknown builtin function {name!r} (only gaussian:a,b,c)")
    parts = arg.split(",")
    if len(parts) != 3:
        raise _UsageError("gaussian takes three values: alpha,beta,gamma")
    try:
        alpha, beta, gamma = (float(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"bad gaussian coefficient: {exc}") from exc
    return GaussianParams(alpha, beta, gamma)


def _read_signal_csv(path: str, n: int) -> Signal:
    grid = asymptotic_zeros(n)
    xs, re, im = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as stream:
            header = stream.readline().strip()
            if header.replace(" ", "") != "x,re,im":
                raise _UsageError(f"{path}: expected header 'x,re,im', got {header!r}")
            for line_no, line in enumerate(stream, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise _UsageError(f"{path}:{line_no}: expected 3 columns")
                try:
                    xs.append(float(parts[0]))
                    re.append(float(parts[1]))
                    im.append(float(parts[2]))
                except ValueError as exc:
                    raise _UsageError(f"{path}:{line_no}: {exc}") from exc
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    if len(xs) != n:
        _print_expected_grid(grid)
        raise GridMismatchError(f"{path}: {len(xs)} rows, expected n={n}")
    xs = np.asarray(xs)
    if np.max(np.abs(xs - grid.nodes)) > _GRID_INPUT_TOL:
        _print_expected_grid(grid)
        raise GridMismatchError(
            f"{path}: sample abscissae deviate from the n={n} grid by more than "
            f"{_GRID_INPUT_TOL}"
        )
    return Signal(grid=grid, values=np.asarray(re) + 1j * np.asarray(im))


def _print_expected_grid(grid) -> None:
    print("expected grid (k,x):", file=sys.stderr)
    for k, x in enumerate(grid.nodes):
        print(f"{k},{_fmt(x)}", file=sys.stderr)


def _warn_aliasing(params: LctParams, grid) -> None:
    step = chirp_phase_step(params, grid)
    if step > math.pi:
        print(
            f"warning: pre-chirp phase advances {step:.3g} rad per grid step "
            "(> pi); the quadratic phase is undersampled and the result may alias",
            file=sys.stderr,
        )


def _cmd_grid(args) -> int:
    if args.exact:
        nodes = exact_hermite_zeros(args.n)
    else:
        nodes = asymptotic_zeros(args.n).nodes
    _write_rows(args.output, "k,x", ((k, x) for k, x in enumerate(nodes)))
    return EXIT_OK


def _build_input(args, params: LctParams, n: int):
    """Returns (result-or-None, signal-or-None, gaussian-or-None)."""
    if (args.function is None) == (args.input is None):
        raise _UsageError("give exactly one of --function or --input")
    if args.function is not None:
        g = _parse_function(args.function)
        if params.b == 0:
            result = lct_b_zero(params, g.evaluate, n)
            return result, None, g
        return None, gaussian_sample(g, asymptotic_zeros(n)), g
    if params.b == 0:
        raise ParameterError(
            "b = 0 resamples off-grid; CSV sample input cannot be used "
            "(provide --function instead)"
        )
    return None, _read_signal_csv(args.input, n), None


def _cmd_transform(args) -> int:
    params = _parse_params(args)
    result, signal, _ = _build_input(args, params, args.n)
    if result is None:
        if not args.no_unimodular_check:
            params.require_unimodular()
        _warn_aliasing(params, signal.grid)
        result = fast_lct(params, signal, check_unimodular=not args.no_unimodular_check)
    _write_rows(
        args.output,
        "y,re,im",
        ((y, v.real, v.imag) for y, v in zip(result.output_nodes, result.values)),
    )
    return EXIT_OK


def _oracle_values(args, params, signal, g, result):
    cfg = QuadratureConfig(
        radius=(args.oracle_radius if args.oracle_radius is not None
                else 12.0 / math.sqrt(g.alpha) if g is not None else 12.0),
        tol=args.oracle_tol,
    )
    if args.oracle == "closed-form":
        if g is None:
            raise ParameterError("closed-form oracle needs a gaussian builtin input")
        return gaussian_lct_closed_form(g, params, result.output_nodes)
    if args.oracle == "quadrature":
        if g is None:
            raise ParameterError("quadrature oracle needs a callable builtin input")
        return quadrature_on_nodes(params, g.evaluate, result.output_nodes, cfg)
    if args.oracle == "dense":
        return dense_lct_matrix(result.n, params).apply(signal.values)
    raise _UsageError(f"unknown oracle {args.oracle!r}")


class _RoundTripResult:
    """Minimal result wrapper for round-trip comparison output."""

    def __init__(self, nodes, values, n, params):
        self.output_nodes = nodes
        self.values = values
        self.n = n
        self.params = params


def _inverse_roundtrip(params: LctParams, signal: Signal) -> _RoundTripResult:
    """Forward transform, then the scale-adjusted inverse; recovers samples.

    The forward output lives on y = sigma*x with sigma = 4b/pi, so the
    inverse run uses (d*sigma, -b/sigma, -c*sigma, a/sigma) applied to the
    forward values read as samples on the standard grid, scaled by
    sqrt(sigma), output index-reversed.  For b = pi/4 this is exactly the
    plain inverse quadruple (d, -b, -c, a).
    """
    if params.b <= 0:
        raise ParameterError("--inverse requires b > 0")
    sigma = 4.0 * params.b / math.pi
    forward = fast_lct(params, signal)
    second = LctParams(params.d * sigma, -params.b / sigma,
                       -params.c * sigma, params.a / sigma)
    back = fast_lct(second, Signal(signal.grid, forward.values))
    recovered = math.sqrt(sigma) * back.values[::-1]
    return _RoundTripResult(signal.grid.nodes, recovered, signal.grid.n, params)


def _cmd_compare(args) -> int:
    params = _parse_params(args)
    if not args.no_unimodular_check:
        params.require_unimodular()
    result0, signal, g = _build_input(args, params, args.n)
    if result0 is not None:
        raise ParameterError("compare requires b != 0")
    if args.inverse:
        result = _inverse_roundtrip(params, signal)
        oracle = signal.values
        label = "x,abs_err"
    else:
        result = fast_lct(params, signal)
        oracle = _oracle_values(args, params, signal, g, result)
        label = "y,abs_err"
    report = compare(result, oracle)
    _write_rows(
        args.output,
        label,
        ((y, e) for y, e in zip(result.output_nodes, np.abs(result.values - oracle))),
    )
    print(f"{report.n},{_fmt(report.max_abs)},{_fmt(report.rms)},"
          f"{_fmt(report.max_rel_central)}")
    failed = (
        (args.max_abs is not None and report.max_abs > args.max_abs)
        or (args.rms is not None and report.rms > args.rms)
        or (args.max_rel_central is not None
            and report.max_rel_central > args.max_rel_central)
    )
    return EXIT_THRESHOLD if failed else EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise _UsageError(f"bad --sizes: {exc}") from exc
    if not sizes:
        raise _UsageError("--sizes is empty")
    params = _parse_params(args) if (args.params or args.preset) else LctParams.fourier()
    rows = []
    previous = None
    for n in sizes:
        grid = asymptotic_zeros(n)
        signal = gaussian_sample(GaussianParams(1.0, 0.0, 0.0), grid)
        plan = plan_dft(n, DFT_SIGN)
        fast_lct(params, signal, plan=plan)  # warmup
        timings = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fast_lct(params, signal, plan=plan)
            timings.append(time.perf_counter() - t0)
        timings.sort()
        median = timings[len(timings) // 2]
        ratio = "" if previous is None or previous[0] * 2 != n else _fmt(median / previous[1])
        rows.append((n, median, ratio))
        previous = (n, median)
    stream, owned = _open_output(args.output)
    try:
        stream.write("n\tseconds\tratio_vs_half\n")
        for n, seconds, ratio in rows:
            stream.write(f"{n}\t{_fmt(seconds)}\t{ratio}\n")
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xft",
        description="Fast discrete linear canonical transform on the Hermite-zero grid.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="number of grid samples")
        p.add_argument("--params", help="a,b,c,d (determinant 1)")
        p.add_argument("--preset", help="fourier | fresnel:b | frft:theta")
        p.add_argument("--function", help="builtin input, e.g. gaussian:1,2,3")
        p.add_argument("--input", help="CSV sample file with header x,re,im")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        p.add_argument("--no-unimodular-check", action="store_true",
                       help="skip the |ad-bc-1| <= 1e-10 check")

    g = sub.add_parser("grid", help="print the sampling grid as CSV k,x")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--exact", action="store_true",
                   help="exact Hermite zeros instead of the asymptotic grid")
    g.add_argument("--output", default="-")
    g.set_defaults(func=_cmd_grid)

    t = sub.add_parser("transform", help="transform a builtin function or CSV samples")
    add_common(t)
    t.set_defaults(func=_cmd_transform)

    c = sub.add_parser("compare", help="transform and compare against an oracle")
    add_common(c)
    c.add_argument("--oracle", default="closed-form",
                   choices=["closed-form", "quadrature", "dense"])
    c.add_argument("--oracle-radius", type=float, default=None,
                   help="quadrature truncation radius (default 12/sqrt(alpha))")
    c.add_argument("--oracle-tol", type=float, default=1e-10,
                   help="quadrature self-consistency tolerance")
    c.add_argument("--max-abs", type=float, default=None,
                   help="fail (exit 5) if max-abs error exceeds this")
    c.add_argument("--rms", type=float, default=None)
    c.add_argument("--max-rel-central", type=float, default=None)
    c.add_argument("--inverse", action="store_true",
                   help="round-trip check: forward then scale-adjusted inverse")
    c.set_defaults(func=_cmd_compare)

    b = sub.add_parser("bench", help="time the fast path over a size sweep")
    b.add_argument("--sizes", required=True, help="comma-separated transform sizes")
    b.add_argument("--repeats", type=int, default=5, help="timings per size (median)")
    b.add_argument("--params", help="a,b,c,d")
    b.add_argument("--preset", help="fourier | fresnel:b | frft:theta")
    b.add_argument("--output", default="-")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except GridMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRID
    except (ParameterError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (ShapeError, XftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
