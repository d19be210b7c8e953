"""Command-line interface: generation, verification, and data export.

Rational numbers serialize as "p/q" strings; floats appear only in CSV
plot data and the numeric suite reports.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import numerics, painleve4, rootcount, spectral, ttrr, verify, wronskian_rep
from .errors import InvalidIndices
from .exact_ring import RationalFn
from .okamoto import DEFAULT_TABLE, okamoto, okamoto_degree

_CACHE_ENV = "OKLADDER_CACHE_DIR"


def _cache_path() -> str | None:
    root = os.environ.get(_CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, "okamoto_table.json")


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _emit(args, payload: dict, pretty_text: str | None = None) -> None:
    if getattr(args, "quiet", False):
        return
    if pretty_text is not None and getattr(args, "pretty", False) and not args.json:
        print(pretty_text)
        return
    print(json.dumps(payload, sort_keys=True))


def _float_repr(value: float) -> str:
    return f"{value:.17g}"


_DEFAULT_SPAN = (-5.0, 5.0)


def _csv(expr, span, samples: int) -> str:
    """CSV text: an x,value header, then expr at `samples` evenly spaced points of span."""
    import numpy as np

    if not all(math.isfinite(v) for v in span):
        raise ValueError(f"range must be finite, got {span[0]} {span[1]}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    xs = np.linspace(span[0], span[1], samples)
    lines = ["x,value"]
    lines.extend(
        f"{_float_repr(float(x))},{_float_repr(float(v))}"
        for x, v in zip(xs, numerics.eval_array(expr, xs))
    )
    return "\n".join(lines) + "\n"


# -- subcommand handlers ------------------------------------------------------

def _cmd_okamoto(args) -> int:
    poly = okamoto(args.m, args.n)
    payload = poly.to_json_dict()
    payload["degree"] = okamoto_degree(args.m, args.n)
    payload["index"] = [args.m, args.n]
    _emit(args, payload, poly.pretty())
    return 0


def _cmd_piv(args) -> int:
    sol = painleve4.rational_solution(args.family, args.m, args.n)
    if args.backlund:
        sol = painleve4.backlund(sol, args.backlund)
    payload = {
        "w": sol.w.to_json_dict(),
        "alpha": _frac(sol.alpha),
        "beta": _frac(sol.beta),
    }
    if args.residual or args.backlund:
        payload["residual_zero"] = painleve4.piv_residual(sol).is_zero
    _emit(args, payload)
    return 0


def _potential_fn(k: int, via: str) -> RationalFn:
    if via == "rational":
        return spectral.potential(k).potential_fn()
    if via in ("deleting", "adding"):
        return wronskian_rep.wronskian_potential(k, via)
    if via == "susy":
        return wronskian_rep.susy_chain_potential(wronskian_rep.index_set_deleted(k))
    raise InvalidIndices(f"unknown construction {via!r}")


def _cmd_potential(args) -> int:
    v = _potential_fn(args.k, args.via)
    if args.csv:
        sys.stdout.write(_csv(v, args.range or _DEFAULT_SPAN, args.samples))
        return 0
    payload = {"k": args.k, "via": args.via, "potential": v.to_json_dict()}
    if args.eval is not None:
        payload["value"] = _float_repr(numerics.eval_float(v, args.eval))
    _emit(args, payload)
    return 0


def _mode(k: int, j: int, n: int) -> spectral.ModeFunction:
    return ttrr.ttrr_modes(k, j, n)[n]


def _cmd_modes(args) -> int:
    mode = _mode(args.k, args.j, args.n)
    payload = mode.P.to_json_dict()
    payload["energy"] = _frac(mode.energy)
    payload["degree"] = mode.P.degree
    payload["index"] = [args.k, args.j, args.n]
    _emit(args, payload, mode.P.pretty())
    return 0


def _cmd_ttrr(args) -> int:
    seq = ttrr.ttrr_sequence(args.k, args.j, args.max_n)
    entries = []
    for n, p in enumerate(seq):
        entry = p.to_json_dict()
        entry["degree"] = p.degree
        entry["energy"] = _frac(spectral.energy(args.k, args.j, n))
        if args.check_ode:
            entry["ode_residual_zero"] = ttrr.ode_residual(args.k, args.j, n, p).is_zero
        if args.check_wronskian:
            wm = wronskian_rep.wronskian_mode(args.k, args.j, n)
            c = wm.P.proportionality(p)
            entry["wronskian_proportional"] = c is not None and not c.is_zero
        entries.append(entry)
    _emit(args, {"k": args.k, "j": args.j, "entries": entries})
    return 0


def _cmd_xhermite(args) -> int:
    sigma = wronskian_rep.sigma_index(args.k, args.j, args.n)
    if args.via == "definition":
        poly = wronskian_rep.exceptional_hermite(list(range(1, args.k + 1)), sigma)
    elif args.via == "wronskian":
        poly = wronskian_rep.sqrt3_rescale(wronskian_rep.wronskian_mode(args.k, args.j, args.n).P)
    else:
        poly = wronskian_rep.xhermite_from_ttrr(args.k, args.j, args.n)
    payload = poly.to_json_dict()
    payload["degree"] = poly.degree
    payload["sigma"] = sigma
    payload["via"] = args.via
    _emit(args, payload, poly.pretty())
    return 0


def _cmd_zeros(args) -> int:
    if args.poly_from == "okamoto":
        if args.m is None or args.n is None:
            raise InvalidIndices("okamoto zeros need --m and --n")
        poly = okamoto(args.m, args.n)
        predicted = rootcount.predicted_okamoto_count(args.m, args.n).n_total
    elif args.poly_from == "mode":
        if None in (args.k, args.j, args.n):
            raise InvalidIndices("mode zeros need --k, --j and --n")
        poly = _mode(args.k, args.j, args.n).P
        predicted = rootcount.predicted_mode_count(args.k, args.j, args.n)
    elif args.poly_from == "xhermite":
        if None in (args.k, args.j, args.n):
            raise InvalidIndices("xhermite zeros need --k, --j and --n")
        poly = wronskian_rep.xhermite_from_ttrr(args.k, args.j, args.n)
        predicted = rootcount.predicted_mode_count(args.k, args.j, args.n)
    else:
        raise InvalidIndices(f"unknown polynomial source {args.poly_from!r}")
    payload: dict = {"predicted": predicted}
    if args.mode in ("count", "both"):
        report = rootcount.sturm_count(poly)
        payload.update(report.to_json_dict())
        payload["match"] = report.n_total == predicted
    _emit(args, payload)
    return 0


def _cmd_spectrum(args) -> int:
    grid = numerics.NumericGrid(args.L, args.N)
    values = numerics.fd_eigensolve(args.k, grid=grid, count=args.count, coarse_shift_tol=args.tol)
    exact = numerics.spectrum_exact(args.k, args.count)
    payload = {
        "k": args.k,
        "computed": [_float_repr(v) for v in values],
        "exact": [_frac(e) for e in exact],
        "max_abs_error": _float_repr(max(abs(v - float(e)) for v, e in zip(values, exact))),
    }
    _emit(args, payload)
    return 0


def _cmd_plot_data(args) -> int:
    if args.what == "potential":
        expr = spectral.potential(args.k).potential_fn()
    elif args.what == "mode":
        if args.j is None or args.n is None:
            raise InvalidIndices("mode plot data needs --j and --n")
        expr = _mode(args.k, args.j, args.n).phi()
    else:
        raise InvalidIndices(f"unknown plot subject {args.what!r}")
    sys.stdout.write(_csv(expr, args.range, args.samples))
    return 0


def _cmd_verify(args) -> int:
    which = tuple(args.suite) if args.suite else verify.ALL_SUITES
    config = verify.VerifySuiteConfig(k_max=args.k_max, n_max=args.n_max, which=which)
    results = verify.run_verify(config)
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([r.to_json_dict() for r in results], sort_keys=True))
    elif not args.quiet:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            detail = f" - {r.detail}" if r.detail else ""
            print(f"[{status}] {r.suite}/{r.name}: {r.certifies}{detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_export(args) -> int:
    if args.kind == "okamoto":
        if args.m is None or args.n is None:
            raise InvalidIndices("okamoto export needs --m and --n")
        poly = okamoto(args.m, args.n)
        payload = poly.to_json_dict()
        payload["degree"] = okamoto_degree(args.m, args.n)
        payload["index"] = [args.m, args.n]
        expr = poly
    elif args.kind == "mode":
        if None in (args.k, args.j, args.n):
            raise InvalidIndices("mode export needs --k, --j and --n")
        mode = _mode(args.k, args.j, args.n)
        payload = mode.P.to_json_dict()
        payload["energy"] = _frac(mode.energy)
        payload["index"] = [args.k, args.j, args.n]
        expr = mode.phi()
    elif args.kind == "xhermite":
        if None in (args.k, args.j, args.n):
            raise InvalidIndices("xhermite export needs --k, --j and --n")
        poly = wronskian_rep.xhermite_from_ttrr(args.k, args.j, args.n)
        payload = poly.to_json_dict()
        payload["sigma"] = wronskian_rep.sigma_index(args.k, args.j, args.n)
        expr = poly
    elif args.kind == "potential":
        if args.k is None:
            raise InvalidIndices("potential export needs --k")
        v = spectral.potential(args.k).potential_fn()
        payload = {"k": args.k, "potential": v.to_json_dict()}
        expr = v
    else:
        raise InvalidIndices(f"unknown export kind {args.kind!r}")

    if args.format == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = _csv(expr, args.range or _DEFAULT_SPAN, args.samples)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(args.out)
    else:
        sys.stdout.write(text)
    return 0


# -- parser ---------------------------------------------------------------------

def _add_global_flags(p: argparse.ArgumentParser, with_defaults: bool = False) -> None:
    # accepted before or after the subcommand; the suppressed defaults keep
    # the subparser from clobbering values parsed at the top level
    kw = {} if with_defaults else {"default": argparse.SUPPRESS}
    p.add_argument("--json", action="store_true", help="machine-readable output", **kw)
    p.add_argument("--quiet", action="store_true", help="suppress stdout reports", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okladder",
        description="Exact spectra of rationally extended oscillators built on Okamoto polynomials",
        allow_abbrev=False,
    )
    _add_global_flags(parser, with_defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("okamoto", help="generalized Okamoto polynomial Q_{m,n}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_okamoto)

    p = sub.add_parser("piv", help="rational solution of the fourth Painleve equation")
    p.add_argument("--family", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--residual", action="store_true", help="attach the exact residual check")
    p.add_argument("--backlund", choices=painleve4.BACKLUND_MAPS, help="apply one map first")
    p.set_defaults(handler=_cmd_piv)

    p = sub.add_parser("potential", help="rationally extended oscillator potential")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eval", type=float, help="evaluate at one point")
    p.add_argument("--csv", action="store_true", help="emit x,value rows")
    p.add_argument("--via", default="rational", choices=("rational", "deleting", "adding", "susy"))
    p.add_argument("--range", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("modes", help="eigenfunction polynomial part and energy")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_modes)

    p = sub.add_parser("ttrr", help="three-term recurrence sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--check-ode", action="store_true")
    p.add_argument("--check-wronskian", action="store_true")
    p.set_defaults(handler=_cmd_ttrr)

    p = sub.add_parser("xhermite", help="exceptional Hermite polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--via", default="ttrr", choices=("ttrr", "wronskian", "definition"))
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_xhermite)

    p = sub.add_parser("zeros", help="exact real-zero census vs closed-form prediction")
    p.add_argument("--poly-from", required=True, choices=("okamoto", "mode", "xhermite"))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int, choices=(1, 2, 3))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--predict", dest="mode", action="store_const", const="predict")
    group.add_argument("--count", dest="mode", action="store_const", const="count")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(handler=_cmd_zeros, mode="both")

    p = sub.add_parser("spectrum", help="finite-difference eigenvalues vs exact levels")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, default=9)
    p.add_argument("--L", type=float, default=25.0)
    p.add_argument("--N", type=int, default=8001)
    p.add_argument("--tol", type=float, default=1e-3, help="allowed shift under grid halving")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("plot-data", help="CSV samples of a potential or mode")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--what", required=True, choices=("potential", "mode"))
    p.add_argument("--j", type=int, choices=(1, 2, 3))
    p.add_argument("--n", type=int)
    p.add_argument("--range", type=float, nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_plot_data)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", choices=verify.ALL_SUITES)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export", help="write a polynomial or data set to a file")
    p.add_argument("kind", choices=("okamoto", "mode", "xhermite", "potential"))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int, choices=(1, 2, 3))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--range", type=float, nargs=2, metavar=("A", "B"))
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(handler=_cmd_export)

    # argparse reads only -12 and -1.5 as negative numbers; also take -1e-3.
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for sub_parser in sub.choices.values():
        _add_global_flags(sub_parser)
        sub_parser._negative_number_matcher = parser._negative_number_matcher

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call rather than at import; parsing leaves no state
    # on the parser, so one instance serves every later call in the process.
    return build_parser()


def _fail(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # OSError is caught around the cache steps only: a handler's own OSError
    # (say, an unwritable `export --out`) still propagates.
    try:
        cache = _cache_path()
    except OSError as exc:
        return _fail(f"cannot use the cache directory: {exc}")
    try:
        if cache:
            DEFAULT_TABLE.load(cache)
        code = args.handler(args)
    except (InvalidIndices, ValueError) as exc:
        return _fail(exc)
    if cache:
        try:
            DEFAULT_TABLE.dump(cache)
        except OSError as exc:
            return _fail(f"cannot write the table cache: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
