"""The three workloads: their op lists, how each op runs, and its digest.

An op is one certified claim (certify-*) or one CLI query (query-session).
Ops are grouped in stages that run in a fixed order; the seed only permutes
the ops inside a stage whose ops are independent of each other, so the work
set of a pass is the same for every seed.

Importing this module does not import okladder: the parent process builds
op lists and checks digests without paying for numpy/scipy/mpmath.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random

WORKLOADS = ("certify-rational", "certify-polynomial", "query-session")

BACKLUND_MAPS = ("w1+", "w1-", "w2+", "w2-", "w3+", "w3-", "w4+", "w4-")


# -- op lists ---------------------------------------------------------------


def _certify_rational_stages() -> list[tuple[str, bool, list[str]]]:
    """Claims whose cost is rational-function reduction.

    Index ranges are subsets of the default `okladder verify` ranges
    (backlund m, n <= 3; ladder k <= 2, n <= 4; ode k <= 3, n <= 5) cut to
    fit a pass of about seven seconds on one 2.1 GHz Xeon vCPU.
    """
    backlund_seeds = [(m, n) for m in range(3) for n in range(3) if m + n <= 3]
    return [
        # Every Okamoto entry the later stages read, so they do no table filling.
        ("table", False, ["table-prefill"]),
        (
            "backlund",
            True,
            [f"backlund:m{m}:n{n}:{w}" for m, n in backlund_seeds for w in BACKLUND_MAPS],
        ),
        (
            "ladder",
            True,
            [f"raise:k{k}:j{j}:n{n}" for k in range(2) for j in (1, 2, 3) for n in range(5)]
            + [f"shape:k{k}:j{j}:n{n}" for k in range(2) for j in (1, 2, 3) for n in range(4)]
            + [f"intertwining:k{k}" for k in range(2)],
        ),
        (
            "ttrr",
            True,
            [
                f"eigen:k{k}:j{j}:n{n}"
                for k in range(3)
                for j in (1, 2, 3)
                for n in range(4 if k < 2 else 3)
            ],
        ),
    ]


_FILL_M_MAX = 10


def _certify_polynomial_stages() -> list[tuple[str, bool, list[str]]]:
    """Claims that never build a RationalFn.

    The table fill runs one anti-diagonal m + n = d per stage: every entry
    on a diagonal needs only entries of lower diagonals, so each fill op is
    exactly one recurrence step whatever the order inside its stage.
    """
    stages: list[tuple[str, bool, list[str]]] = []
    for d in range(2 * _FILL_M_MAX + 1):
        cells = [(m, d - m) for m in range((d + 1) // 2, min(d, _FILL_M_MAX) + 1)]
        stages.append((f"fill-d{d}", True, [f"fill:m{m}:n{n}" for m, n in cells]))
    okw = [
        f"okw:{form}:m{m}:n{n}"
        for form in ("psi", "Psi")
        for m in range(5)
        for n in range(5)
        if m + n >= 1 and m + n <= 6 and not (form == "psi" and m == 0 and n > 1)
    ]
    wmode = [
        f"wmode:k{k}:j{j}:n{n}"
        for k in range(6)
        for j in (1, 2, 3)
        for n in range(2 if k < 5 else 1)
    ]
    stages.append(("wronskian", True, okw + wmode))
    stages.append(
        (
            "sturm",
            True,
            [f"sturm:m{m}:n{n}" for m in range(_FILL_M_MAX + 1) for n in range(m + 1) if m + n <= 9],
        )
    )
    stages.append(
        ("bilinear", True, [f"bilinear:m{m}:n{n}" for m in range(1, 4) for n in range(1, 4)])
    )
    return stages


# Queries that fill every Okamoto entry the session reads, in a fixed order,
# so later queries are memo hits and the cache file keeps one size.  None of
# them recurs in the session, so each keeps its own, cold, latency.
_WARMUP = (
    "okamoto --m 7 --n 0",
    "okamoto --m 6 --n 3",
    "okamoto --m 5 --n 2",
    "okamoto --m 4 --n 4",
    "okamoto --m 3 --n 3",
    "okamoto --m 2 --n 3",
    "okamoto --m 1 --n 3",
    "okamoto --m 0 --n 3",
    "okamoto --m 4 --n -1",
    "okamoto --m 3 --n -1",
    "okamoto --m 2 --n -1",
    "okamoto --m 1 --n -1",
)

# (queries, times each appears in a session).  Each session draws every
# listed query exactly `times` times, so the mix is the same for every seed.
_QUERY_UNIVERSE: tuple[tuple[tuple[str, ...], int], ...] = (
    (
        (
            "okamoto --m 3 --n 1",
            "okamoto --m 5 --n 2 --pretty",
            "okamoto --m 6 --n 2",
            "okamoto --m 4 --n 0",
            "okamoto --m 3 --n 2",
            "export okamoto --m 4 --n 2",
            "export okamoto --m 6 --n 1",
            "export okamoto --m 7 --n 0 --format csv --samples 101",
        ),
        11,
    ),
    (
        (
            "modes --k 0 --j 1 --n 2",
            "modes --k 1 --j 2 --n 3",
            "modes --k 1 --j 3 --n 1",
            "modes --k 2 --j 1 --n 3",
            "modes --k 2 --j 3 --n 2",
            "ttrr --k 1 --j 2 --max-n 3 --check-ode",
            "ttrr --k 1 --j 1 --max-n 4",
            "ttrr --k 2 --j 2 --max-n 2 --check-wronskian",
            "xhermite --k 1 --j 2 --n 2",
            "xhermite --k 2 --j 1 --n 2 --via definition",
            "xhermite --k 2 --j 3 --n 1 --via wronskian",
        ),
        4,
    ),
    (
        (
            "piv --family 1 --m 1 --n 1 --residual",
            "piv --family 2 --m 2 --n 1 --residual",
            "piv --family 3 --m 2 --n 2 --residual",
            "piv --family 1 --m 1 --n 1 --backlund w3+",
            "piv --family 1 --m 0 --n 2 --backlund w1-",
            "piv --family 1 --m 2 --n 0 --backlund w4-",
        ),
        4,
    ),
    (
        (
            "zeros --poly-from okamoto --m 6 --n 3",
            "zeros --poly-from okamoto --m 4 --n 4",
            "zeros --poly-from mode --k 1 --j 2 --n 2",
            "zeros --poly-from xhermite --k 1 --j 1 --n 2",
        ),
        4,
    ),
    (
        (
            "potential --k 1 --eval 0.5",
            "potential --k 2 --eval 1.25 --via adding",
            "potential --k 2 --eval -0.75 --via deleting",
            "potential --k 1 --eval 2.0 --via susy",
            "potential --k 0 --eval 3.5",
        ),
        6,
    ),
    (
        (
            "spectrum --k 1 --count 9",
            "spectrum --k 2 --count 6 --N 4001",
            "plot-data --k 2 --what potential --range -8 8 --samples 400",
            "plot-data --k 1 --what mode --j 2 --n 1 --range -6 6 --samples 200",
            "export potential --k 2 --format csv --samples 300",
        ),
        4,
    ),
    (
        (
            "verify --suite identities --k-max 2",
            "verify --suite piv --k-max 1",
            "verify --suite spectrum-numeric --k-max 1",
        ),
        2,
    ),
)


def _query_session_stages() -> list[tuple[str, bool, list[str]]]:
    drawn = [q for queries, times in _QUERY_UNIVERSE for q in queries for _ in range(times)]
    return [
        ("warmup", False, [f"cli:{q}" for q in _WARMUP]),
        ("session", True, [f"cli:{q}" for q in drawn]),
    ]


_STAGES = {
    "certify-rational": _certify_rational_stages,
    "certify-polynomial": _certify_polynomial_stages,
    "query-session": _query_session_stages,
}


def stages(workload: str) -> list[tuple[str, bool, list[str]]]:
    """(stage name, shuffled?, op ids) in run order, before any shuffling."""
    return _STAGES[workload]()


def build_ops(workload: str, seed: int) -> list[str]:
    """The op ids of one pass, in run order, for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[str] = []
    for _name, shuffled, ids in stages(workload):
        ids = list(ids)
        if shuffled:
            rng.shuffle(ids)
        ops.extend(ids)
    return ops


def op_universe(workload: str) -> list[str]:
    """Every distinct op id any seed can draw, in first-appearance order."""
    return list(dict.fromkeys(op for _n, _s, ids in stages(workload) for op in ids))


# -- digests ----------------------------------------------------------------


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _poly_up_to_scalar(p) -> dict:
    """Canonical form of a polynomial claimed only up to a scalar."""
    return p.lattice_primitive().to_json_dict()


def _frac(v) -> str:
    return f"{v.numerator}/{v.denominator}"


# -- op execution (runs in the child, after okladder is importable) ---------


def _ints(op_id: str) -> dict[str, int]:
    """'raise:k1:j2:n3' -> {'k': 1, 'j': 2, 'n': 3}."""
    out = {}
    for part in op_id.split(":")[1:]:
        if part[:1].isalpha() and part[1:].lstrip("-").isdigit():
            out[part[0]] = int(part[1:])
    return out


class Executor:
    """Runs ops by id against the okladder package.

    `run(op_id)` returns (verdict, payload): the verdict is the claim's own
    pass/fail, the payload is what the digest covers.  Module attributes are
    looked up at call time, so wrappers installed by the span recorder see
    every call.
    """

    def __init__(self) -> None:
        # The package re-exports a function named `okamoto`, which hides the
        # submodule of that name from attribute access.
        load = importlib.import_module
        self.cli = load("okladder.cli")
        self.okamoto = load("okladder.okamoto")
        self.painleve4 = load("okladder.painleve4")
        self.rootcount = load("okladder.rootcount")
        self.spectral = load("okladder.spectral")
        self.ttrr = load("okladder.ttrr")
        self.wronskian_rep = load("okladder.wronskian_rep")

    def run(self, op_id: str):
        kind = op_id.split(":", 1)[0]
        return getattr(self, "_op_" + kind.replace("-", "_"))(op_id)

    # certify-rational ---------------------------------------------------
    def _op_table_prefill(self, op_id):
        q = self.okamoto.okamoto
        entries = {f"{m},{n}": q(m, n).to_json_dict() for m in range(5) for n in range(-1, 4)}
        return True, entries

    def _op_backlund(self, op_id):
        a = _ints(op_id)
        map_name = op_id.rsplit(":", 1)[1]
        p4 = self.painleve4
        seed = p4.rational_solution(1, a["m"], a["n"])
        image = p4.backlund(seed, map_name)
        ok = p4.piv_residual(image).is_zero
        return ok, {"w": image.w.to_json_dict(), "alpha": _frac(image.alpha), "beta": _frac(image.beta)}

    def _mode(self, k, j, n, p):
        sp = self.spectral
        return sp.ModeFunction(k, j, n, p, sp.energy(k, j, n))

    def _op_raise(self, op_id):
        a = _ints(op_id)
        k, j, n = a["k"], a["j"], a["n"]
        sp = self.spectral
        up, down = sp.ladder(k, "raise"), sp.ladder(k, "lower")
        seq = self.ttrr.ttrr_sequence(k, j, n + 1)
        phi_n = self._mode(k, j, n, seq[n]).phi()
        phi_n1 = self._mode(k, j, n + 1, seq[n + 1]).phi()
        raised = up.apply(phi_n)
        c = raised.proportionality(phi_n1)
        c2 = down.apply(raised).proportionality(phi_n)
        ok = c is not None and not c.is_zero and c2 == sp.ladder_constant_sq(k, j, n)
        return ok, {"c": str(c), "c2": str(c2)}

    def _op_shape(self, op_id):
        a = _ints(op_id)
        k, j, n = a["k"], a["j"], a["n"]
        sp = self.spectral
        up, ham = sp.ladder(k, "raise"), sp.potential(k)
        seq = self.ttrr.ttrr_sequence(k, j, n)
        phi = self._mode(k, j, n, seq[n]).phi()
        lhs = up.apply(ham.apply(phi))
        rhs = ham.apply(up.apply(phi)) - up.apply(phi) * 2
        ok = (lhs - rhs).is_zero
        return ok, {"zero": ok}

    def _op_intertwining(self, op_id):
        flags = self.spectral.intertwining_checks(_ints(op_id)["k"])
        return all(flags), {"flags": flags}

    def _op_eigen(self, op_id):
        a = _ints(op_id)
        k, j, n = a["k"], a["j"], a["n"]
        p = self.ttrr.ttrr_sequence(k, j, n)[n]
        ok = (
            self.spectral.hamiltonian_residual(self._mode(k, j, n, p)).is_zero
            and self.ttrr.ode_residual(k, j, n, p).is_zero
        )
        return ok, {"P": _poly_up_to_scalar(p)}

    # certify-polynomial -------------------------------------------------
    def _op_fill(self, op_id):
        a = _ints(op_id)
        m, n = a["m"], a["n"]
        q = self.okamoto.okamoto(m, n)
        return q.degree == self.okamoto.okamoto_degree(m, n), q.to_json_dict()

    def _op_okw(self, op_id):
        a = _ints(op_id)
        form = op_id.split(":")[1]
        value = self.wronskian_rep.okamoto_via_wronskian(a["m"], a["n"], form)
        c = value.proportionality(self.okamoto.okamoto(a["m"], a["n"]))
        return c is not None and not c.is_zero, _poly_up_to_scalar(value)

    def _op_wmode(self, op_id):
        a = _ints(op_id)
        k, j, n = a["k"], a["j"], a["n"]
        wr, rc = self.wronskian_rep, self.rootcount
        p = wr.wronskian_mode(k, j, n).P
        census = rc.sturm_count(p)
        predicted = rc.predicted_wronskian_count(
            sorted(wr.index_set_deleted(k) + [wr.sigma_index(k, j, n)])
        )
        ok = (
            p.degree == self.spectral.mode_degree(k, j, n)
            and (census.n0, census.n_plus, census.n_minus)
            == (predicted.n0, predicted.n_plus, predicted.n_minus)
            and census.n_total == rc.predicted_mode_count(k, j, n)
        )
        return ok, {"P": _poly_up_to_scalar(p), "census": census.to_json_dict()}

    def _op_sturm(self, op_id):
        a = _ints(op_id)
        m, n = a["m"], a["n"]
        rc = self.rootcount
        census = rc.sturm_count(self.okamoto.okamoto(m, n))
        predicted = rc.predicted_okamoto_count(m, n)
        ok = (
            census.n_total == predicted.n_total
            and census.n0 == predicted.n0
            and census.n_plus == census.n_minus
        )
        return ok, census.to_json_dict()

    def _op_bilinear(self, op_id):
        a = _ints(op_id)
        flags = self.painleve4.bilinear_identities(a["m"], a["n"])
        return all(flags), {"flags": flags}

    # query-session ------------------------------------------------------
    def _op_cli(self, op_id):
        argv = op_id.split(":", 1)[1].split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        text = out.getvalue()
        ok = code == 0 and '": false' not in text
        return ok, {"exit": code, "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
