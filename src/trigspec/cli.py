"""Command line front end.

Subcommands: gen-signal, dft, spline, response, alias, bounds. All
output is deterministic CSV/JSON (17 significant digits, LF endings, '.'
decimal point); identical invocations produce byte-identical files.

Calls of :func:`main` in one process share one argument parser, built on
the first call (about 1 ms of argparse work that no number depends on);
:func:`build_parser` returns a fresh one each time, so changing it leaves
``main`` as it was. A call's bytes and exit code are those of the same
argv run in a fresh process.

Exit codes: 0 success, 1 a bound or identity check failed, 2 invalid
configuration or input (or too large to allocate), 3 numerical failure
(degenerate kernel, quadrature non-convergence, unreachable series precision).
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import _kernels, alias_analysis, filon_oracle, signal_model, spline_kernel, trig_spline
from ._wire import csv_text
from .errors import NumericalError
from .sampling import discrete_coeffs, make_grid, sample, spectrum_to_csv
from .spline_kernel import FilterVariant, KernelConfig

_FOLD_CHECK_TOL = 1e-10


def _presets():
    presets = dict(signal_model.suite_signals())
    presets["constant"] = signal_model.harmonic_sum([(0, 2.0, 0.0)], r=1)
    return presets


def _load_signal(args):
    if getattr(args, "signal", None):
        try:
            with open(args.signal, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read signal spec: {exc}") from exc
    elif getattr(args, "inline", None):
        try:
            doc = json.loads(args.inline)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad inline JSON: {exc}") from exc
    else:
        raise ValueError("a signal is required (--signal PATH or --inline JSON)")
    try:
        return signal_model.signal_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad signal document: {exc}") from exc


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _grid(args):
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    return make_grid(args.n)


def _kernel_config(args, grid, tail_tol=1e-12):
    if args.r < 1:
        raise ValueError("--r must be >= 1")
    return KernelConfig(
        grid=grid,
        order=args.r,
        variant=FilterVariant.from_string(args.variant),
        tail_tol=tail_tol,
    )


# -- subcommands -------------------------------------------------------------


def cmd_gen_signal(args):
    presets = _presets()
    if args.preset:
        if args.preset not in presets:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(presets))
            )
        sig = presets[args.preset]
    elif args.inline:
        sig = _load_signal(args)
    else:
        raise ValueError("gen-signal needs --preset NAME or --inline JSON")
    doc = signal_model.signal_to_json(sig)
    _write_text(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return 0


def cmd_dft(args):
    sig = _load_signal(args)
    grid = _grid(args)
    spec = discrete_coeffs(sample(sig, grid))
    if args.format == "json":
        doc = {
            "N": grid.N,
            "a0": spec.a0,
            "a": list(map(float, spec.a)),
            "b": list(map(float, spec.b)),
        }
        _write_text(args.out, json.dumps(doc, sort_keys=True) + "\n")
    else:
        _write_text(args.out, spectrum_to_csv(spec))
    return 0


def cmd_spline(args):
    sig = _load_signal(args)
    grid = _grid(args)
    if args.out is None:
        raise ValueError("spline needs --out STEM for its output files")
    if args.j_max < 0:
        raise ValueError("--j-max must be >= 1 (0 or absent picks the default)")
    if args.eval_grid < 0:
        raise ValueError("--eval-grid must be positive (0 or absent writes no evaluation)")
    config = _kernel_config(args, grid, args.tail_tol)
    spline = trig_spline.build_spline(sample(sig, grid), config)
    _write_text(
        args.out + ".spline.json",
        json.dumps(trig_spline.spline_to_json(spline), sort_keys=True) + "\n",
    )
    j_max = args.j_max if args.j_max else 4 * grid.N
    js, ca, cb = trig_spline.unfolded_spectrum(spline, j_max)
    ta, tb = signal_model.true_coefficient(sig, js)
    table = zip(js.tolist(), ca, cb, ta, tb, np.abs(ca - ta), np.abs(cb - tb))
    header = ["j", "a_hat", "b_hat", "a_true", "b_true", "abs_err_a", "abs_err_b"]
    _write_text(args.out + ".unfolded.csv", csv_text(header, table))
    if args.eval_grid:
        P = args.eval_grid
        t = 2.0 * np.pi * np.arange(P) / P
        sv = trig_spline.values_on_uniform_grid(spline, P)
        fv = signal_model.grid_values(sig, P)
        table = zip(t, sv, fv, np.abs(sv - fv))
        _write_text(args.out + ".eval.csv", csv_text(["t", "spline", "signal", "abs_err"], table))
    return 0


def cmd_response(args):
    grid = _grid(args)
    try:
        orders = [int(x) for x in str(args.r).split(",") if x != ""]
    except ValueError as exc:
        raise ValueError(f"bad --r list: {exc}") from exc
    if not orders or any(r < 1 for r in orders):
        raise ValueError("--r must list integers >= 1")
    j_max = args.j_max if args.j_max else 2 * grid.N
    if j_max < grid.n:
        raise ValueError("--j-max must cover the band (>= n)")
    if args.out is None:
        raise ValueError("response needs --out STEM for its output files")
    variant = FilterVariant.from_string(args.variant)
    for r in orders:
        config = KernelConfig(grid=grid, order=r, variant=variant)
        table = spline_kernel.filter_response(config, j_max)
        _write_text(
            f"{args.out}.r{r}.csv", spline_kernel.response_table_to_csv(table)
        )
    return 0


def cmd_alias(args):
    sig = _load_signal(args)
    grid = _grid(args)
    rows = alias_analysis.fold_report_table(sig, grid, args.tail_tol)
    _write_text(args.out, alias_analysis.fold_table_to_csv(rows))
    worst = max(max(r["abs_diff_a"], r["abs_diff_b"]) for r in rows)
    return 1 if worst > _FOLD_CHECK_TOL else 0


def cmd_bounds(args):
    sig = _load_signal(args)
    grid = _grid(args)
    if args.j_max < 0:
        raise ValueError("--j-max must be >= 1 (0 or absent picks the default)")
    rows = _bound_rows(sig, grid, args)
    holds = [measured <= bound for _, measured, bound in rows]
    table = [(*row, str(ok).lower()) for row, ok in zip(rows, holds)]
    _write_text(args.out, csv_text(["k", "measured", "bound", "holds"], table))
    return 0 if all(holds) else 1


def _bound_rows(sig, grid, args):
    family = args.family
    if family == "eq3":
        k = np.arange(1, (args.j_max or 64) + 1)
        a, b = signal_model.true_coefficient(sig, k)
        measured = np.maximum(np.abs(a), np.abs(b))
        bound = signal_model.coefficient_bound(sig.smoothness, k)
        return list(zip(k.tolist(), measured.tolist(), bound.tolist()))
    if family == "eq8":
        spec = discrete_coeffs(sample(sig, grid))
        k = np.arange(1, grid.n + 1)
        a, b = signal_model.true_coefficient(sig, k)
        measured = np.maximum(np.abs(a - spec.a), np.abs(b - spec.b))
        bound = alias_analysis.aliasing_error_bound(k, grid, sig.smoothness)
        return list(zip(k.tolist(), measured.tolist(), bound.tolist()))
    if family == "eq9":
        if sig.smoothness.r < 1:
            raise ValueError("eq9 bound needs smoothness order r >= 1")
        spec = discrete_coeffs(sample(sig, grid))
        fn = _series_on_grid(*sig.fourier_series(grid.n), 4096)
        fstar = _series_on_grid(*spec.fourier_series(), 4096)
        measured = float(np.max(np.abs(fn - fstar)))
        bound = alias_analysis.time_domain_overlay_bound(grid.n, sig.smoothness)
        return [(grid.n, measured, bound)]
    if family == "filon":
        config = _kernel_config(args, grid)
        spline = trig_spline.build_spline(sample(sig, grid), config)
        k_max = args.j_max if args.j_max else 2 * grid.N
        table = filon_oracle.filon_table(sig, spline, k_max)
        return [
            (
                r["k"],
                max(abs(r["a_true"] - r["a_hat"]), abs(r["b_true"] - r["b_hat"])),
                min(r["cnorm_bound"], r["refined_bound"]),
            )
            for r in table
        ]
    raise ValueError(f"unknown bound family {family!r}")


def _series_on_grid(a0, a, b, G):
    # a0/2 + sum_k (a_k cos kt + b_k sin kt), k = 1..len(a), at t = 2 pi g/G.
    ks = np.arange(a.size + 1)
    return _kernels.grid_series(ks, np.concatenate(([0.5 * a0], a)), np.concatenate(([0.0], b)), G)


# -- parser ------------------------------------------------------------------


def _add_signal_args(p):
    p.add_argument("--signal", help="path to a signal spec JSON")
    p.add_argument("--inline", help="signal spec JSON given inline")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trigspec",
        description="Trigonometric-spline spectral analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", help="write a signal spec JSON")
    p.add_argument("--preset", help="named preset signal")
    _add_signal_args(p)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("dft", help="discrete Fourier coefficients of a sampled signal")
    _add_signal_args(p)
    p.add_argument("--n", type=int, required=True, help="band size; N = 2n+1 nodes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("spline", help="build the interpolating spline")
    _add_signal_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3, help="spline order")
    p.add_argument("--variant", default="abs-sinc", help="sinc|abs-sinc|inv-power")
    p.add_argument("--tail-tol", type=float, default=1e-12)
    p.add_argument("--j-max", type=int, default=0, help="unfolded table size (default 4N)")
    p.add_argument("--eval-grid", type=int, default=0, help="dense evaluation CSV size")
    p.add_argument("--out", help="output stem (writes STEM.spline.json etc.)")

    p = sub.add_parser("response", help="filter gain tables (plot data)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", default="1,3,10", help="comma list of orders")
    p.add_argument("--variant", default="abs-sinc")
    p.add_argument("--j-max", type=int, default=0, help="table size (default 2N)")
    p.add_argument("--out", help="output stem (writes STEM.r{r}.csv)")

    p = sub.add_parser("alias", help="fold-identity report")
    _add_signal_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tail-tol", type=float, default=1e-12)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("bounds", help="bound-verification table")
    _add_signal_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--family", choices=("eq3", "eq8", "eq9", "filon"), default="eq3",
        help="which bound family to verify",
    )
    p.add_argument("--r", type=int, default=3, help="spline order (filon family)")
    p.add_argument("--variant", default="abs-sinc")
    p.add_argument("--j-max", type=int, default=0, help="row count override")
    p.add_argument("--out", help="output path (default stdout)")

    return parser


@functools.cache
def _shared_parser():
    # main's parser, built on its first call and kept for the process.
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    # Looked up by name at call time, as every call inside the package is,
    # so a rebound cmd_* function is the one the shared parser reaches.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NumericalError as exc:
        print(f"trigspec: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"trigspec: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"trigspec: error: input too large: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
