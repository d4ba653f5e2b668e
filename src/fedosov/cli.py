"""Batch front door: load Fedosov data, run constructions, run verification
suites, emit machine-readable reports.

Exit codes: 0 success, 1 check failure, 2 input or validation error.
Output is byte-identical across runs with the same (input, seed, order).
The order is the data file's unless --order is given; verify without a
data file runs at DEFAULT_ORDER.
"""

from __future__ import annotations

import argparse
import sys

from . import io as fio
from . import verify
from .poly import ExponentOverflow
from .quantize import (FedosovData, StarProduct, apply_gauge, curvature_residual,
                       fedosov_class, solve_r)
from .weyl import ChartValidationError

DEFAULT_ORDER = 6


class CliError(Exception):
    pass


def _load_data(path, order=None) -> FedosovData:
    data = fio.load_fedosov_data(path)
    if order is not None:
        data.order = order
    try:
        data.validate()
    except (ChartValidationError, ValueError) as exc:
        raise CliError(f"invalid Fedosov data: {exc}") from exc
    return data


def _parse_input(text, dim, order):
    try:
        return fio.parse_poly(text, dim, order)
    except fio.ParseError as exc:
        raise CliError(f"cannot parse polynomial {text!r}: {exc}") from exc


def _emit(args, text, **fields):
    """Print text, or with --json the canonical document of fields."""
    print(fio.dumps_canonical(fields) if args.json else text)


def cmd_star(args):
    data = _load_data(args.data, args.order)
    sp = StarProduct(data)
    a = _parse_input(args.a, data.chart.dim, data.order)
    b = _parse_input(args.b, data.chart.dim, data.order)
    result = sp(a, b)
    _emit(args, fio.weyl_text(result), star=fio.to_json(result))
    return 0


def cmd_tau(args):
    data = _load_data(args.data, args.order)
    a = _parse_input(args.a, data.chart.dim, data.order)
    result = StarProduct(data).tau(a).truncate(data.order)
    _emit(args, fio.weyl_text(result), tau=fio.to_json(result))
    return 0


def cmd_solve_r(args):
    data = _load_data(args.data, args.order)
    r = solve_r(data, validate=False)
    residual = curvature_residual(data, r)
    r_report = r.truncate(data.order)
    text = (f"r = {fio.form_text(r_report)}\n"
            f"residual (curvature class - Omega) = {fio.form_text(residual)}")
    _emit(args, text, r=fio.to_json(r_report), residual=fio.to_json(residual),
          residual_zero=residual.is_zero())
    return 0 if residual.is_zero() else 1


def cmd_fedosov_class(args):
    data = _load_data(args.data, args.order)
    cls = fedosov_class(data)
    lines = []
    for k, form in sorted(cls.items()):
        for (i, j), p in sorted(form.items()):
            lines.append(f"hbar^{k} ({p}) dx{i}dx{j}")
    _emit(args, "\n".join(lines) or "0", fedosov_class=fio.series_to_json(cls))
    return 0


def cmd_gauge(args):
    data = _load_data(args.data, args.order)
    gauge = fio.gauge_from_json(fio.load_json(args.gauge), dim=data.chart.dim)
    sp = StarProduct(data)
    gauged = apply_gauge(sp, gauge)
    a = _parse_input(args.a, data.chart.dim, data.order)
    b = _parse_input(args.b, data.chart.dim, data.order)
    result = gauged(a, b)
    _emit(args, fio.weyl_text(result), gauged_star=fio.to_json(result))
    return 0


def cmd_verify(args):
    if args.dim is not None and (args.dim < 2 or args.dim % 2):
        raise CliError(f"--dim must be even and >= 2, got {args.dim}")
    data = None
    dim = 2 if args.dim is None else args.dim
    order = DEFAULT_ORDER if args.order is None else args.order
    if args.data is not None:
        data = _load_data(args.data, args.order)
        order = data.order
        if args.dim is not None and args.dim != data.chart.dim:
            raise CliError(f"--dim {args.dim} differs from the data file's dim "
                           f"{data.chart.dim}")
        dim = data.chart.dim
    try:
        caps = verify.parse_caps(args.caps)
        checks = verify.run_suite(args.suite, data, dim, order, args.seed, caps)
    except (KeyError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    failed = [c for c in checks if not c.ok]
    if args.json:
        print(fio.dumps_canonical(fio.verify_report(
            args.suite, checks, order=order, seed=args.seed, dim=dim, caps=args.caps,
            data=args.data)))
    else:
        for c in checks:
            status = "pass" if c.ok else "FAIL"
            line = f"[{status}] {args.suite}/{c.id}"
            if not c.ok and c.witness:
                line += f"  witness: {c.witness}"
            print(line)
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedosov",
        description="Exact Fedosov quantization and Weyl-algebra Hochschild "
                    "cohomology toolkit.")
    parser.add_argument("--order", type=int, default=None,
                        help="filtration truncation order (default: the data "
                             f"file's order; {DEFAULT_ORDER} for verify "
                             "without --data)")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for randomized checks (default 0)")
    parser.add_argument("--caps", default=None,
                        help="generation caps of the random inputs of the "
                             "cochain and chi suites: y-degree y (default 3) "
                             "and slot degree a (default 2), e.g. y:3,a:2; "
                             "other suites refuse them")
    parser.add_argument("--json", action="store_true",
                        help="emit canonical JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="evaluate a * b for polynomials a, b")
    p.add_argument("data", help="Fedosov data JSON file")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("tau", help="horizontal lift of a polynomial")
    p.add_argument("data")
    p.add_argument("a")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("solve-r", help="solve the connection recursion; "
                                       "print r and the curvature residual")
    p.add_argument("data")
    p.set_defaults(fn=cmd_solve_r)

    p = sub.add_parser("fedosov-class", help="print the 2-form series "
                                             "(1/hbar)(-omega + Omega)")
    p.add_argument("data")
    p.set_defaults(fn=cmd_fedosov_class)

    p = sub.add_parser("gauge", help="evaluate the gauge-transformed product")
    p.add_argument("data")
    p.add_argument("gauge", help="gauge operator JSON file")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_gauge)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--data", default=None, help="Fedosov data JSON file")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension 2n (default: the data file's; 2 without --data)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.order is not None and args.order < 0:
            raise CliError(f"--order must be >= 0, got {args.order}")
        return args.fn(args)
    except (CliError, fio.SchemaError, ExponentOverflow, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
