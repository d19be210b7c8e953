"""Span recorder for the traced run.

`SpanRecorder.install()` wraps the public names of the okladder layers in
every okladder module that binds them (and the methods on their classes),
so each call opens a span with its name, start, end, parent span and op id.
Spans live in flat arrays in memory and are written out once, by `dump`,
after the pass.  `metrics()` derives the per-layer numbers from them: self
time is a span's duration minus the durations of its direct child spans.

Only the benchmark's own files change: nothing here edits okladder.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# (span name, defining module, function).  A function is rebound in every
# okladder module whose attribute is that same function object.
_FUNCTION_LAYERS = (
    ("exact_ring.gcd", "okladder.exact_ring", "poly_gcd"),
    ("exact_ring.wronskian", "okladder.exact_ring", "wronskian"),
    ("painleve4.backlund", "okladder.painleve4", "backlund"),
    ("painleve4.piv_residual", "okladder.painleve4", "piv_residual"),
    ("painleve4.bilinear_identities", "okladder.painleve4", "bilinear_identities"),
    ("spectral.hamiltonian_residual", "okladder.spectral", "hamiltonian_residual"),
    ("ttrr.sequence", "okladder.ttrr", "ttrr_sequence"),
    ("wronskian_rep.mode", "okladder.wronskian_rep", "wronskian_mode"),
    ("wronskian_rep.okamoto_form", "okladder.wronskian_rep", "okamoto_via_wronskian"),
    ("rootcount.sturm_count", "okladder.rootcount", "sturm_count"),
    ("numerics.eval_float", "okladder.numerics", "eval_float"),
    ("numerics.eval_array", "okladder.numerics", "eval_array"),
    ("numerics.fd_eigensolve", "okladder.numerics", "fd_eigensolve"),
    ("verify.run_verify", "okladder.verify", "run_verify"),
    ("cli.main", "okladder.cli", "main"),
)

# (span name, module, class, method).  Methods are wrapped on the class.
_METHOD_LAYERS = (
    ("exact_ring.exact_div", "okladder.exact_ring", "ExactPoly", "exact_div"),
    ("exact_ring.divmod", "okladder.exact_ring", "ExactPoly", "__divmod__"),
    ("okamoto.get", "okladder.okamoto", "OkamotoTable", "get"),
    ("okamoto.load", "okladder.okamoto", "OkamotoTable", "load"),
    ("okamoto.dump", "okladder.okamoto", "OkamotoTable", "dump"),
    ("spectral.ladder_apply", "okladder.spectral", "LadderOp", "apply"),
)

SPAN_NAMES = tuple(n for n, *_ in _FUNCTION_LAYERS) + tuple(n for n, *_ in _METHOD_LAYERS) + (
    "exact_ring.reduce",
)

# Names reported as "<name>.calls" as well as "<name>.self_s".
_COUNTED = (
    "exact_ring.reduce",
    "exact_ring.gcd",
    "exact_ring.divmod",
    "exact_ring.exact_div",
    "exact_ring.wronskian",
    "okamoto.get",
    "ttrr.sequence",
    "rootcount.sturm_count",
)


def _coeff_bits(p) -> int:
    best = 0
    for c in p.coeffs:
        a, b = c.a, c.b
        best = max(
            best,
            a.numerator.bit_length(),
            a.denominator.bit_length(),
            b.numerator.bit_length(),
            b.denominator.bit_length(),
        )
    return best


class SpanRecorder:
    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.current_op = -1
        self.mul_calls = 0
        self.peak_degree = 0
        self.peak_bits = 0
        self.gcd_nontrivial = 0
        self.get_hits = 0
        self.dump_bytes = 0
        self.ttrr_keys: set[tuple[int, int]] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- span plumbing ------------------------------------------------------
    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, metric: str, fn, before=None, after=None):
        name_id = self._ids[metric]
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- layer hooks --------------------------------------------------------
    def _see_poly(self, p) -> None:
        if p.coeffs:
            if len(p.coeffs) - 1 > self.peak_degree:
                self.peak_degree = len(p.coeffs) - 1
            bits = _coeff_bits(p)
            if bits > self.peak_bits:
                self.peak_bits = bits

    def _hooks(self):
        def see_operands(args, kwargs):
            for a in args[:2]:
                if hasattr(a, "coeffs"):
                    self._see_poly(a)

        def after_gcd(args, result):
            if result.degree > 0:
                self.gcd_nontrivial += 1

        def after_wronskian(args, result):
            if hasattr(result, "coeffs"):
                self._see_poly(result)

        def before_get(args, kwargs):
            table, m, n = args[0], args[1], args[2]
            if (m, n) in table._memo:
                self.get_hits += 1

        def after_dump(args, result):
            self.dump_bytes += os.path.getsize(args[1])

        def before_ttrr(args, kwargs):
            self.ttrr_keys.add((args[0], args[1]))

        return {
            "exact_ring.gcd": (see_operands, after_gcd),
            "exact_ring.wronskian": (None, after_wronskian),
            "exact_ring.exact_div": (see_operands, None),
            "exact_ring.divmod": (see_operands, None),
            "okamoto.get": (before_get, None),
            "okamoto.dump": (None, after_dump),
            "ttrr.sequence": (before_ttrr, None),
        }

    def install(self) -> None:
        import okladder.cli  # noqa: F401  (loads every okladder module)
        from okladder import exact_ring

        hooks = self._hooks()
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "okladder"]
        for metric, mod_name, attr in _FUNCTION_LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            before, after = hooks.get(metric, (None, None))
            wrapped = self._spanned(metric, original, before, after)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)

        for metric, mod_name, cls_name, attr in _METHOD_LAYERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            before, after = hooks.get(metric, (None, None))
            original = cls.__dict__[attr]
            if metric == "exact_ring.divmod":
                wrapped = self._divmod_wrapper(original, before)
            else:
                wrapped = self._spanned(metric, original, before, after)
            self._set(cls, attr, wrapped)

        self._install_reduce(exact_ring.RationalFn)
        self._install_mul(exact_ring.ExactPoly)

    def _divmod_wrapper(self, original, before):
        """A divmod made by exact_div is exact_div's own work: it opens no
        span, so divmod counts only Euclid, Sturm and direct divisions."""
        spanned = self._spanned("exact_ring.divmod", original, before)
        exact_div_id = self._ids["exact_ring.exact_div"]
        stack, names = self._stack, self.name

        @functools.wraps(original)
        def wrapper(a, b):
            if stack and names[stack[-1]] == exact_div_id:
                return original(a, b)
            return spanned(a, b)

        return wrapper

    def _install_reduce(self, cls) -> None:
        """Span only RationalFn constructions that run a reduction."""
        original = cls.__init__
        spanned = self._spanned("exact_ring.reduce", original)
        see = self._see_poly

        @functools.wraps(original)
        def init(obj, num, den=None, *, _reduced=False):
            if _reduced or num.is_zero:
                return original(obj, num, den, _reduced=_reduced)
            see(num)
            if den is not None:
                see(den)
            return spanned(obj, num, den)

        self._set(cls, "__init__", init)

    def _install_mul(self, cls) -> None:
        """ExactPoly products are counted, not spanned: a span per product
        would cost more than many of the products."""
        original = cls.__dict__["__mul__"]
        rec = self

        @functools.wraps(original)
        def mul(a, b):
            rec.mul_calls += 1
            out = original(a, b)
            if out is not NotImplemented and len(out.coeffs) - 1 > rec.peak_degree:
                rec.peak_degree = len(out.coeffs) - 1
            return out

        self._set(cls, "__mul__", mul)
        self._set(cls, "__rmul__", mul)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line:
        name, start_s, end_s, parent index (-1 for a root), op index."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def metrics(self, wall_s: float, speed: float = 1.0) -> dict[str, float]:
        """Per-layer numbers of one traced pass whose ops took wall_s as
        measured; times are multiplied by `speed`, the pass's scaling to the
        reference CPU speed."""
        n = len(self.start)
        k = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * k
        total_s = [0.0] * k
        calls = [0] * k
        for i in range(n):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            total_s[nid] += dur
        ids = self._ids
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.self_s"] = self_s[ids[name]] * speed
        for name in _COUNTED:
            out[f"{name}.calls"] = calls[ids[name]]
        reduce_id, gcd_id, get_id, ttrr_id = (
            ids["exact_ring.reduce"],
            ids["exact_ring.gcd"],
            ids["okamoto.get"],
            ids["ttrr.sequence"],
        )
        # RationalFn construction never nests, so its spans' durations add up
        # to the time spent inside reductions, gcd and exact division included.
        out["exact_ring.reduce.total_s"] = total_s[reduce_id] * speed
        out["exact_ring.reduce.share"] = total_s[reduce_id] / wall_s if wall_s else 0.0
        out["exact_ring.gcd.nontrivial_ratio"] = (
            self.gcd_nontrivial / calls[gcd_id] if calls[gcd_id] else 0.0
        )
        out["exact_ring.mul.calls"] = self.mul_calls
        out["exact_ring.peak_degree"] = self.peak_degree
        out["exact_ring.peak_coeff_bits"] = self.peak_bits
        out["okamoto.memo_hit_ratio"] = self.get_hits / calls[get_id] if calls[get_id] else 0.0
        out["okamoto.dump.bytes"] = self.dump_bytes
        out["ttrr.sequence.distinct_ratio"] = (
            len(self.ttrr_keys) / calls[ttrr_id] if calls[ttrr_id] else 0.0
        )
        out["trace.spans"] = n
        return out
