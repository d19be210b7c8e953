"""Rebuild perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Runs one untraced pass of each workload (a pass holds every op id any seed
can draw) and stores each op's verdict and digest.  It refuses to write a
reference in which a claim fails, or in which one op id gave two different
digests.  Rebuild only when an output is meant to change, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    run.STATE.mkdir(exist_ok=True)
    workdir = run.STATE / "make-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    table: dict[str, dict] = {}
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            if set(workloads.build_ops(workload, 0)) != set(workloads.op_universe(workload)):
                problems.append(f"{workload}: a pass does not cover the op universe")
            result = run.run_child(workload, 0, workdir, len(table), run.HARD_LIMIT_S)
            refs: dict[str, dict] = {}
            for r in result["ops"]:
                entry = {"verdict": r["verdict"], "digest": r["digest"]}
                if r["error"] or not r["verdict"]:
                    problems.append(f"{workload}: {r['op']} fails ({r['error']})")
                if refs.setdefault(r["op"], entry) != entry:
                    problems.append(f"{workload}: {r['op']} is not deterministic")
            table[workload] = dict(sorted(refs.items()))
            print(f"{workload}: {len(refs)} ops, {result['wall_s']:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"src_sha256": run.source_digest(), "workloads": table}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
