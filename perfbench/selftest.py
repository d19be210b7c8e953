"""Self-tests of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

1. Seeds: two seeds give the same op mix, stage by stage, in different
   orders; one seed always gives the same list; every op any seed can draw
   has a reference entry.
2. Correctness gate: real outputs of a few ops pass against the reference,
   and a corrupted digest, a flipped verdict, a missing reference entry and
   a missing result each count as one failed op.
3. Tracing: the recorder rebinds a layer in every module that binds it,
   reports every per-layer metric of BENCHMARK.json and restores the
   originals.
4. A directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit nonzero without printing a result.
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import subprocess
import sys
from collections import Counter

import run
import workloads

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def test_seeds() -> None:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["workloads"]
    for w in workloads.WORKLOADS:
        a, b = workloads.build_ops(w, 1), workloads.build_ops(w, 2)
        check(a == workloads.build_ops(w, 1), f"{w}: one seed gives one op list")
        check(Counter(a) == Counter(b), f"{w}: seeds 1 and 2 draw the same op mix")
        check(a != b, f"{w}: seeds 1 and 2 order the ops differently")
        pos = 0
        for name, _shuffled, ids in workloads.stages(w):
            same = Counter(a[pos : pos + len(ids)]) == Counter(b[pos : pos + len(ids)]) == Counter(ids)
            check(same, f"{w}: stage {name} keeps its ops and its place")
            pos += len(ids)
        missing = set(workloads.op_universe(w)) - set(reference[w])
        check(not missing, f"{w}: every op has a reference entry")


def test_gate() -> None:
    sys.path.insert(0, str(run.SRC))
    import child

    ops = workloads.op_universe("certify-polynomial")[:6] + ["bilinear:m1:n1"]
    results = child.run_ops(ops, workloads.Executor())
    ref = run.load_reference("certify-polynomial")
    check(run.count_failures(ops, results, ref) == 0, "real outputs match the reference")

    bad = copy.deepcopy(ref)
    bad[ops[3]]["digest"] = "0" * 64
    check(run.count_failures(ops, results, bad) == 1, "a corrupted digest counts as one failure")
    bad = copy.deepcopy(ref)
    bad[ops[-1]]["verdict"] = False
    check(run.count_failures(ops, results, bad) == 1, "a flipped verdict counts as one failure")
    bad = copy.deepcopy(ref)
    del bad[ops[0]]
    check(run.count_failures(ops, results, bad) == 1, "an op without reference counts as a failure")
    check(run.count_failures(ops, results[:-1], ref) == 1, "a missing result counts as a failure")
    wrong = copy.deepcopy(results)
    wrong[2]["verdict"] = False
    check(run.count_failures(ops, wrong, ref) == 1, "a false verdict counts as a failure")


def test_trace() -> None:
    from spans import SpanRecorder

    rootcount = importlib.import_module("okladder.rootcount")
    exact_ring = importlib.import_module("okladder.exact_ring")
    wronskian_rep = importlib.import_module("okladder.wronskian_rep")
    originals = (exact_ring.poly_gcd, rootcount.poly_gcd, wronskian_rep.sturm_count)
    rec = SpanRecorder()
    rec.install()
    try:
        check(
            exact_ring.poly_gcd is rootcount.poly_gcd and rootcount.poly_gcd is not originals[1],
            "poly_gcd is wrapped in exact_ring and in rootcount",
        )
        executor = workloads.Executor()
        for op in ("sturm:m4:n2", "backlund:m1:n0:w1+", "eigen:k1:j2:n1"):
            executor.run(op)
    finally:
        rec.uninstall()
    check(
        (exact_ring.poly_gcd, rootcount.poly_gcd, wronskian_rep.sturm_count) == originals,
        "uninstall restores every binding",
    )
    layers = rec.metrics(1.0)
    layers["trace.overhead_ratio"] = 1.0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    check(all(n in layers for n in names), "the recorder reports every per-layer metric")
    check(layers["rootcount.sturm_count.calls"] == 1, "one Sturm census is one span")
    check(layers["exact_ring.reduce.calls"] > 0 and layers["exact_ring.gcd.calls"] > 0,
          "reductions and gcds are counted")
    check(layers["ttrr.sequence.calls"] == 1, "one ttrr_sequence call is one span")


def test_bare_directory() -> None:
    bare = run.STATE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify-rational",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a bare directory makes run.py exit nonzero")
    check('"correct"' not in proc.stdout, "a bare directory prints no result")


def main() -> int:
    run.STATE.mkdir(exist_ok=True)
    test_seeds()
    test_gate()
    test_trace()
    test_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
