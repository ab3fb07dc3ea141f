"""Command-line surface: transform, compare, bench, grid.

Exit codes: 0 success, 2 malformed input, 3 parameter error, 4 grid
mismatch, 5 comparison over threshold.  Tables are read with ``np.loadtxt``
and written with ``np.savetxt``: CSV/TSV, UTF-8, one header line, LF line
endings, 17 significant digits (lossless double round trip).
"""
from __future__ import annotations

import argparse
import math
import sys
import time
import warnings

import numpy as np

from .dense import dense_lct_matrix
from .errors import (
    ConvergenceError,
    GridMismatchError,
    ParameterError,
    XftError,
)
from .hermite import HermiteGrid, asymptotic_zeros, exact_hermite_zeros
from .lct import (
    LctParams,
    Signal,
    chirp_phase_step,
    fast_lct,
    inverse_lct,
    lct_b_zero,
)
from .oracle import (
    GaussianParams,
    QuadratureConfig,
    compare,
    direct_quadrature_lct,
    gaussian_lct_closed_form,
    gaussian_sample,
)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_PARAMETER = 3
EXIT_GRID = 4
EXIT_THRESHOLD = 5


class _UsageError(Exception):
    """Malformed request (flags or file contents); maps to exit 2."""


def _write_table(target, header, table, fmt="%.17g", delimiter=","):
    """Header line, then one row per row of table; target is a path, "-" or a stream."""
    np.savetxt(sys.stdout if target in (None, "-") else target, table, fmt=fmt,
               delimiter=delimiter, header=header, comments="", encoding="utf-8")


def _floats(text: str, count: int, what: str) -> list[float]:
    """count comma-separated numbers from text; anything else is malformed input."""
    parts = text.split(",")
    try:
        if len(parts) == count:
            return [float(p) for p in parts]
    except ValueError:
        pass
    raise _UsageError(f"bad {what} {text!r}: expected {count} comma-separated number(s)")


def _parse_params(args) -> LctParams:
    # LctParams is built outside _floats: a non-finite value is a ParameterError (exit 3).
    if args.params is not None:
        return LctParams(*_floats(args.params, 4, "--params"))
    # bench may omit both: Fourier is its fallback here, not an argparse
    # default, which would let an in-process --preset equal to it pass as absent.
    name, _, arg = ("fourier" if args.preset is None else args.preset).partition(":")
    if name == "fourier":
        if arg:
            raise _UsageError("preset fourier takes no argument")
        return LctParams.fourier()
    if name not in ("fresnel", "frft"):
        raise _UsageError(f"unknown preset {name!r} (use fourier | fresnel:b | frft:theta)")
    (value,) = _floats(arg, 1, "preset argument")
    return LctParams.fresnel(value) if name == "fresnel" else LctParams.frft(value)


def _parse_function(text: str) -> GaussianParams:
    name, _, arg = text.partition(":")
    if name != "gaussian":
        raise _UsageError(f"unknown builtin function {name!r} (only gaussian:a,b,c)")
    return GaussianParams(*_floats(arg, 3, "gaussian alpha,beta,gamma"))


def _read_signal_csv(path: str, n: int) -> Signal:
    """The CSV samples on their own abscissae; fast_lct judges those against the grid."""
    spacing = asymptotic_zeros(n).spacing
    try:
        with open(path, "r", encoding="utf-8") as stream:
            header = stream.readline().strip()
            if header.replace(" ", "") != "x,re,im":
                raise _UsageError(f"{path}: expected header 'x,re,im', got {header!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header only: 0 rows, no warning
                table = np.loadtxt((line for line in stream if line.strip()), delimiter=",",
                                   comments=None, ndmin=2)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # numpy names the data row (0-based) and column
        raise _UsageError(f"{path}: {exc}") from exc
    if table.size and table.shape[1] != 3:
        raise _UsageError(f"{path}: expected 3 columns, got {table.shape[1]}")
    if table.shape[0] != n:
        raise GridMismatchError(f"{path}: {table.shape[0]} rows, expected n={n}")
    xs, re, im = table.T
    return Signal(HermiteGrid(n, xs, spacing), re + 1j * im)


def _warn_aliasing(params: LctParams, n: int) -> None:
    step = chirp_phase_step(params, asymptotic_zeros(n))
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
    _write_table(args.output, "k,x", np.column_stack((np.arange(nodes.size), nodes)))
    return EXIT_OK


def _forward(args):
    """Parse, sample or read, and transform: returns (result, signal, gaussian).

    signal is None on the b = 0 branch, which resamples the builtin off-grid;
    gaussian is None for CSV input.
    """
    params = _parse_params(args)
    if args.input is not None:
        signal, g = _read_signal_csv(args.input, args.n), None
        if params.b == 0:
            raise ParameterError(
                "b = 0 resamples off-grid; CSV sample input cannot be used "
                "(provide --function instead)"
            )
    else:
        g = _parse_function(args.function)
        sample = np.errstate(over="ignore")(g.evaluate)  # Signal reports non-finite samples
        if params.b == 0:
            return lct_b_zero(params, sample, args.n), None, g
        grid = asymptotic_zeros(args.n)
        signal = Signal(grid, sample(grid.nodes))
    return fast_lct(params, signal), signal, g


def _cmd_transform(args) -> int:
    result, signal, _ = _forward(args)
    if signal is not None:
        _warn_aliasing(result.params, args.n)
    _write_table(args.output, "y,re,im",
                 np.column_stack((result.output_nodes, result.values.real, result.values.imag)))
    return EXIT_OK


def _oracle_values(args, signal, g, result):
    params = result.params
    if args.oracle == "dense":
        return dense_lct_matrix(result.n, params) @ signal.values
    if args.oracle == "closed-form":
        if g is None:
            raise ParameterError("closed-form oracle needs a gaussian builtin input")
        return gaussian_lct_closed_form(g, params, result.output_nodes)
    # quadrature: argparse's choices= admit no other oracle
    if g is None:
        raise ParameterError("quadrature oracle needs a callable builtin input")
    return direct_quadrature_lct(params, g.evaluate, result.output_nodes,
                                 QuadratureConfig.for_gaussian(g))


def _cmd_compare(args) -> int:
    result, signal, g = _forward(args)
    if signal is None:
        raise ParameterError("compare requires b != 0")
    if args.inverse:
        result, oracle, label = inverse_lct(result), signal.values, "x,abs_err"
    else:
        oracle, label = _oracle_values(args, signal, g, result), "y,abs_err"
    report = compare(result, oracle)
    _write_table(args.output, label,
                 np.column_stack((result.output_nodes, np.abs(result.values - oracle))))
    print(f"{report.n},{report.max_abs:.17g},{report.rms:.17g},"
          f"{report.max_rel_central:.17g}")
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
    if args.repeats < 1:
        raise _UsageError(f"--repeats must be at least 1, got {args.repeats}")
    params = _parse_params(args)
    rows = []
    previous = None
    for n in sizes:
        grid = asymptotic_zeros(n)
        signal = gaussian_sample(GaussianParams(1.0, 0.0, 0.0), grid)
        fast_lct(params, signal)  # warmup
        timings = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fast_lct(params, signal)
            timings.append(time.perf_counter() - t0)
        timings.sort()
        median = timings[len(timings) // 2]
        ratio = "" if previous is None or previous[0] * 2 != n else f"{median / previous[1]:.17g}"
        rows.append((n, f"{median:.17g}", ratio))
        previous = (n, median)
    _write_table(args.output, "n\tseconds\tratio_vs_half", np.array(rows, dtype=str),
                 fmt="%s", delimiter="\t")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xft",
        description="Fast discrete linear canonical transform on the Hermite-zero grid.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_params(p, required):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--params", help="a,b,c,d (determinant 1)")
        group.add_argument("--preset", help="fourier | fresnel:b | frft:theta")

    def add_common(p):
        p.add_argument("--n", type=int, required=True, help="number of grid samples")
        add_params(p, required=True)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--function", help="builtin input, e.g. gaussian:1,2,3")
        source.add_argument("--input", help="CSV sample file with header x,re,im")
        p.add_argument("--output", default="-", help="output path (default stdout)")

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
    add_params(b, required=False)
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
    except (_UsageError, XftError, OSError) as exc:
        if isinstance(exc, GridMismatchError):  # CSV rows must sit on the n-point grid
            _write_table(sys.stderr, "expected grid (k,x):",
                         np.column_stack((np.arange(args.n), asymptotic_zeros(args.n).nodes)))
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, GridMismatchError):
            return EXIT_GRID
        if isinstance(exc, (ParameterError, ConvergenceError)):
            return EXIT_PARAMETER
        return EXIT_MALFORMED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
