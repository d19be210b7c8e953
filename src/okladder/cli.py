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
from .okamoto import DEFAULT_TABLE, check_cone, okamoto, okamoto_degree

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
    """CSV text: an x,value header, then expr at `samples` evenly spaced points
    of span (the default span when None)."""
    import numpy as np

    a, b = span or _DEFAULT_SPAN
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"range must be finite, got {a} {b}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if math.isfinite(b - a):
        xs = np.linspace(a, b, samples)
    else:  # the width overflows a double; halving and doubling are exact
        xs = np.linspace(a / 2, b / 2, samples) * 2
    lines = ["x,value"]
    lines.extend(
        f"{_float_repr(float(x))},{_float_repr(float(v))}"
        for x, v in zip(xs, numerics.eval_array(expr, xs))
    )
    return "\n".join(lines) + "\n"


# -- the paper's objects -------------------------------------------------------
# Each builder returns the object, the JSON payload that `export` writes, and
# a thunk for the expression that CSV rows sample (a mode's phi costs a
# reduction that JSON output never needs).

def _okamoto(args):
    poly = okamoto(args.m, args.n)
    payload = poly.to_json_dict()
    payload.update(degree=okamoto_degree(args.m, args.n), index=[args.m, args.n])
    return poly, payload, lambda: poly


def _mode(args):
    mode = ttrr.ttrr_modes(args.k, args.j, args.n)[args.n]
    payload = mode.P.to_json_dict()
    payload.update(energy=_frac(mode.energy), index=[args.k, args.j, args.n])
    return mode.P, payload, mode.phi


def _xhermite(args):
    poly = wronskian_rep.xhermite_from_ttrr(args.k, args.j, args.n)
    payload = poly.to_json_dict()
    payload["sigma"] = wronskian_rep.sigma_index(args.k, args.j, args.n)
    return poly, payload, lambda: poly


def _potential(args):
    v = spectral.potential(args.k).potential_fn()
    return v, {"k": args.k, "potential": v.to_json_dict()}, lambda: v


# kind -> (builder, the index options it needs)
_KINDS = {
    "okamoto": (_okamoto, ("m", "n")),
    "mode": (_mode, ("k", "j", "n")),
    "xhermite": (_xhermite, ("k", "j", "n")),
    "potential": (_potential, ("k",)),
}

# command -> how its missing-index error reads, and the index options its
# parser already requires (so the error leaves them out)
_NEEDS = {"zeros": ("zeros need", ()), "export": ("export needs", ()),
          "plot-data": ("plot data needs", ("k",))}


def _require(args, kind: str) -> None:
    """Raise InvalidIndices unless every index option of `kind` is given."""
    needed = _KINDS[kind][1]
    if any(getattr(args, name) is None for name in needed):
        verb, given = _NEEDS[args.command]
        *rest, last = [f"--{name}" for name in needed if name not in given]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise InvalidIndices(f"{kind} {verb} {listed}")


def _build(args, kind: str):
    _require(args, kind)
    return _KINDS[kind][0](args)


# -- subcommand handlers ------------------------------------------------------

def _cmd_okamoto(args) -> int:
    poly, payload, _ = _okamoto(args)
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


def _cmd_potential(args) -> int:
    if args.via == "rational":
        v, payload, _ = _potential(args)
    else:
        if args.via == "susy":
            v = wronskian_rep.susy_chain_potential(wronskian_rep.index_set_deleted(args.k))
        else:
            v = wronskian_rep.wronskian_potential(args.k, args.via)
        payload = {"k": args.k, "potential": v.to_json_dict()}
    if args.csv:
        sys.stdout.write(_csv(v, args.range, args.samples))
        return 0
    payload["via"] = args.via
    if args.eval is not None:
        payload["value"] = _float_repr(numerics.eval_float(v, args.eval))
    _emit(args, payload)
    return 0


def _cmd_modes(args) -> int:
    poly, payload, _ = _mode(args)
    payload["degree"] = poly.degree
    _emit(args, payload, poly.pretty())
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
    # first, so every route rejects a bad k before a bad n
    sigma = wronskian_rep.sigma_index(args.k, args.j, args.n)
    if args.via == "ttrr":
        poly, payload, _ = _xhermite(args)
    else:
        if args.via == "definition":
            poly = wronskian_rep.exceptional_hermite(list(range(1, args.k + 1)), sigma)
        else:
            mode = wronskian_rep.wronskian_mode(args.k, args.j, args.n)
            poly = wronskian_rep.sqrt3_rescale(mode.P)
        payload = poly.to_json_dict()
        payload["sigma"] = sigma
    payload.update(degree=poly.degree, via=args.via)
    _emit(args, payload, poly.pretty())
    return 0


def _cmd_zeros(args) -> int:
    # --predict builds nothing; the cone check keeps the build's error first.
    if args.mode == "predict":
        _require(args, args.poly_from)
        if args.poly_from == "okamoto":
            check_cone(args.m, args.n)
    else:
        poly, _, _ = _build(args, args.poly_from)
    if args.poly_from == "okamoto":
        predicted = rootcount.predicted_okamoto_count(args.m, args.n).n_total
    else:
        predicted = rootcount.predicted_mode_count(args.k, args.j, args.n)
    payload: dict = {"predicted": predicted}
    if args.mode != "predict":
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
    """`export`, and `plot-data` as `export {potential,mode} --format csv`."""
    _, payload, expr = _build(args, args.kind)
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = _csv(expr(), args.range, args.samples)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc.strerror}")
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
    p.add_argument("--what", dest="kind", required=True, choices=("potential", "mode"))
    p.add_argument("--j", type=int, choices=(1, 2, 3))
    p.add_argument("--n", type=int)
    p.add_argument("--range", type=float, nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_export, format="csv", out=None)

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

    # argparse reads only -12 and -1.5 as negative numbers; take every
    # '-'-prefixed string float() reads: -1e-3, -1_0, -inf, -Infinity, -nan.
    digits = r"\d(?:_?\d)*"
    number = rf"(?:(?:{digits})?\.{digits}|{digits}\.?)(?:e[-+]?{digits})?"
    parser._negative_number_matcher = re.compile(
        rf"-(?:{number}|inf(?:inity)?|nan)\s*\Z", re.IGNORECASE
    )
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
    # OSError is caught around the cache steps here; `export --out` reports
    # an unwritable path itself.
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
