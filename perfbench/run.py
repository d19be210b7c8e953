"""okladder benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-rational --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The run times interpreter set-up, then
runs passes of the workload, each in a fresh child interpreter, until the
time budget is spent (at least one pass).  Every op's output is checked
against perfbench/reference.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 7
# A run must end well inside 180 s, the limit a caller may set, even when a pass
# overruns its estimate.
HARD_LIMIT_S = 170.0

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_SETUP_CODE = (
    "import okladder.cli, json, sys, numpy, scipy, mpmath\n"
    "sys.stdout.write(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
    " 'mpmath': mpmath.__version__, 'python': sys.version.split()[0]}) + '\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(RuntimeError):
    pass


def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    """Environment of every child: okladder from this checkout's src/ only,
    one BLAS/OpenMP thread, a fixed hash seed, and a cache directory only
    when the workload asks for one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("OKLADDER_CACHE_DIR", None)
    if cache_dir is not None:
        env["OKLADDER_CACHE_DIR"] = str(cache_dir)
    return env


def sample_setup() -> tuple[float, dict]:
    """Seconds from starting a fresh interpreter until okladder.cli (with
    numpy, scipy and mpmath) is imported, and the versions it saw."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CODE],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line:
        raise BenchError("okladder.cli could not be imported")
    return elapsed, json.loads(line)


def run_child(workload: str, seed: int, workdir: Path, index: int, timeout: float,
              spans_path: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its result file."""
    out = workdir / f"pass-{index}.json"
    cache_dir = None
    if workload == "query-session":
        cache_dir = workdir / f"cache-{index}"
        cache_dir.mkdir()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if spans_path is not None:
        cmd += ["--trace-spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(cache_dir), cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)["workloads"]
    if workload not in table:
        raise BenchError(f"reference.json has no entries for {workload}")
    return table[workload]


def count_failures(expected_ops: list[str], results: list[dict], reference: dict) -> int:
    """Failed ops of one pass: an op fails if it raised, returned a false
    verdict, or produced a digest other than the reference's.  Ops the pass
    should have run but did not report count as failed too."""
    failed = max(0, len(expected_ops) - len(results))
    for want, got in zip(expected_ops, results):
        ref = reference.get(want)
        ok = (
            got["op"] == want
            and got["error"] is None
            and got["verdict"]
            and ref is not None
            and got["verdict"] == ref["verdict"]
            and got["digest"] == ref["digest"]
        )
        failed += not ok
    return failed


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "okladder").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "okladder" / "__init__.py").is_file():
        raise BenchError(f"no okladder sources under {SRC}")
    reference = load_reference(workload)
    expected = workloads.build_ops(workload, seed)
    started = time.perf_counter()

    setup = []
    versions: dict = {}
    for _ in range(SETUP_SAMPLES):
        elapsed, versions = sample_setup()
        setup.append(elapsed)

    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    for old in STATE.glob(f"spans-{workload}-*.tsv"):
        old.unlink()

    # Untraced passes only, or untraced and traced passes alternating.  A
    # pass starts only if it should end, by the longest pass of its kind so
    # far, before the budget does; the first pass of each kind always runs.
    kinds = (False, True) if trace else (False,)
    longest = {False: 0.0, True: 0.0}
    passes: list[dict] = []
    deadline = min(time.perf_counter() + seconds, started + HARD_LIMIT_S)
    try:
        while True:
            traced = kinds[len(passes) % len(kinds)]
            if len(passes) >= len(kinds) and time.perf_counter() + longest[traced] > deadline:
                break
            remaining = HARD_LIMIT_S - (time.perf_counter() - started)
            spans_path = STATE / f"spans-{workload}-pass{len(passes)}.tsv" if traced else None
            t0 = time.perf_counter()
            result = run_child(workload, seed, workdir, len(passes), remaining, spans_path)
            longest[traced] = max(longest[traced], time.perf_counter() - t0)
            result["failed"] = count_failures(expected, result["ops"], reference)
            passes.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(max(len(expected), len(p["ops"])) for p in passes)
    failed = sum(p["failed"] for p in passes)
    # An op's latency is the median of all its timings in the run's untraced
    # passes (a query-session query recurs within a pass too), which drops
    # bursts of machine noise.  The pass's ops then take these latencies:
    # wall_s is their sum, the quantiles are taken over them.
    timings: dict[str, list[float]] = {}
    for p in plain:
        for r in p["ops"]:
            timings.setdefault(r["op"], []).append(r["latency_s"])
    typical = {op: statistics.median(ts) for op, ts in timings.items()}
    latencies = [typical[op] for op in expected if op in typical]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latencies),
        "op_p50_ms": _quantile(latencies, 50) * 1000.0,
        "op_p90_ms": _quantile(latencies, 90) * 1000.0,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024.0,
    }
    layers = {}
    if traced_passes:
        for name in traced_passes[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced_passes)
        layers["trace.overhead_ratio"] = statistics.median(
            p["wall_s"] for p in traced_passes
        ) / statistics.median(p["wall_s"] for p in plain)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            **versions,
        },
        "setup_samples_s": setup,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "ops": len(p["ops"]),
             "failed": p["failed"], "peak_rss_kb": p["peak_rss_kb"]}
            for p in passes
        ],
        "op_samples": len(latencies),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    with open(STATE / f"report-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    env = report["env"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
        f" passes={len(report['passes'])} op_samples={report['op_samples']}"
    )
    print(
        f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
        f" scipy={env['scipy']} mpmath={env['mpmath']} git={env['git_commit']}"
        f" src_sha256={env['src_sha256'][:16]}"
    )
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<12} {report['end_to_end'][m['name']]:12.4f} {m['unit']}")
    print(f"  {'fail_ratio':<12} {report['fail_ratio']:12.4f} ratio"
          f" ({report['failed']}/{report['attempted']} ops)")
    print(f"  times are at the reference CPU speed; median pass time as measured:"
          f" {report['raw_wall_s']:.4f} s")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {report['layers'][m['name']]:16.6f} {m['unit']}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["layers"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
