#!/usr/bin/env python3
"""Run every verification suite at the acceptance bounds and print the report.

Exit status is nonzero iff any check fails.  Equivalent to
`okladder verify --k-max 3 --n-max 5` but with per-suite timing.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from okladder.verify import ALL_SUITES, VerifySuiteConfig, run_verify


def main() -> int:
    failures = 0
    total = 0
    for suite in ALL_SUITES:
        t0 = time.monotonic()
        results = run_verify(VerifySuiteConfig(k_max=3, n_max=5, which=(suite,)))
        bad = [r for r in results if not r.passed]
        failures += len(bad)
        total += len(results)
        print(f"{suite:18s} {len(results) - len(bad):3d}/{len(results):3d} passed  ({time.monotonic() - t0:6.1f}s)")
        for r in bad:
            print(f"    FAIL {r.name}: {r.detail}")
    print(f"total: {total - failures}/{total} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
