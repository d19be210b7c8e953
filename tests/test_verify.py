"""Verification machinery: configuration, ordering, reporting."""

import hashlib
import json

import pytest

from okladder.verify import ALL_SUITES, CheckResult, VerifySuiteConfig, _checks, run_verify

# SHA-256 over json.dumps of the sorted (suite, name, certifies) rows at
# n_max = 0..10, one digest per k_max, recorded from the per-suite check
# builders that `_checks` replaced. A renamed check, a reworded claim or a
# changed k range shows here; an n cap reaches only a thunk's arguments and
# shows in the report details instead.
_CHECK_LIST_DIGESTS = {
    0: "845bd20d865233a3e5a03e271c8e488dfea1a523d335c8bea2e97b62c7b29fb8",
    1: "51f826d3711c2f9857f909593d91b3b577ad4fdfffa1f9ab6188d923076f9a1e",
    2: "620dfe9888b042a124fdbe0589393267de0025fb9f9740f26808f01beba8f49e",
    3: "af2622c18e1bb141c0da3b9341b72b40631809845ff7e3177b1b959d03157923",
    4: "f4f6557d182d9d48a34a7895117be691d8b27ee2694a4a62bc8b1098a9d7aefd",
    5: "836bd8c584539844aef2115885f1d28546fc2e63ea5a998b3e83777a6cdde83d",
    6: "a437da128d7b1e8b9c6357a3ddd34de7410a0f4c9396295c7f6aebd8a1612beb",
}


def test_config_validation():
    with pytest.raises(ValueError):
        VerifySuiteConfig(k_max=-1)
    with pytest.raises(ValueError):
        VerifySuiteConfig(n_max=-1)
    with pytest.raises(ValueError):
        VerifySuiteConfig(which=("tables", "nope"))


def test_results_are_order_stable():
    config = VerifySuiteConfig(k_max=1, n_max=2, which=("identities", "tables"))
    first = run_verify(config)
    second = run_verify(config)
    assert [(r.suite, r.name) for r in first] == [(r.suite, r.name) for r in second]
    assert first == sorted(first, key=lambda r: (r.suite, r.name))


def test_checks_pass_from_an_empty_ttrr_memo(monkeypatch):
    from okladder import ttrr

    config = VerifySuiteConfig(k_max=1, n_max=2, which=("ladder", "ode"))
    monkeypatch.setattr(ttrr, "_STATES", {})
    results = run_verify(config)
    assert results and all(r.passed for r in results)


def test_crash_becomes_failure(monkeypatch):
    from okladder import verify as verify_mod

    def table(config):
        yield "tables", "boom", "certifies nothing", lambda: 1 / 0
        yield "piv", "unselected", "certifies nothing", lambda: 1 / 0

    monkeypatch.setattr(verify_mod, "_checks", table)
    results = run_verify(VerifySuiteConfig(which=("tables",)))
    assert len(results) == 1 and not results[0].passed
    assert "ZeroDivisionError" in results[0].detail


def test_run_suite_shortcut():
    results = run_verify(VerifySuiteConfig(k_max=1, n_max=2, which=("identities",)))
    assert results and all(r.suite == "identities" for r in results)


def test_all_suites_have_builders():
    suites = [suite for suite, _, _, _ in _checks(VerifySuiteConfig())]
    assert set(suites) == set(ALL_SUITES)


@pytest.mark.parametrize("k_max", sorted(_CHECK_LIST_DIGESTS))
def test_check_list_is_pinned(k_max):
    digest = hashlib.sha256()
    for n_max in range(11):
        config = VerifySuiteConfig(k_max=k_max, n_max=n_max)
        rows = sorted((suite, name, certifies) for suite, name, certifies, _ in _checks(config))
        digest.update(json.dumps(rows).encode())
    assert digest.hexdigest() == _CHECK_LIST_DIGESTS[k_max]


def test_json_shape():
    r = CheckResult("s", "n", True, "d", "c")
    assert r.to_json_dict() == {
        "suite": "s",
        "check": "n",
        "status": "pass",
        "detail": "d",
        "certifies": "c",
    }


# SHA-256 over the `verify --json` payload (json.dumps with sorted keys) of
# every exact suite at the default bounds. The float suites are left out:
# their details carry values that depend on the scipy/BLAS build.
_EXACT_REPORT_ROWS = 313
_EXACT_REPORT_DIGEST = "aba366bf1ee8b32c1ca0d0d1cee6e14b5b58a9e671cb85363bccabd336f7a501"


def test_exact_report_is_pinned():
    which = tuple(s for s in ALL_SUITES if s not in ("spectrum-numeric", "orthogonality"))
    rows = [r.to_json_dict() for r in run_verify(VerifySuiteConfig(which=which))]
    assert len(rows) == _EXACT_REPORT_ROWS
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _EXACT_REPORT_DIGEST


def test_numeric_suites_agree_cold_and_warm(monkeypatch):
    from okladder import numerics

    config = VerifySuiteConfig(which=("spectrum-numeric", "orthogonality"))
    monkeypatch.setattr(numerics, "_SPECTRA", {})
    numerics._gauss_panels.cache_clear()
    cold = [r.to_json_dict() for r in run_verify(config)]
    assert numerics._SPECTRA
    warm = [r.to_json_dict() for r in run_verify(config)]
    assert warm == cold


@pytest.mark.parametrize("k", range(3))
def test_sampled_orthogonality_is_the_pairwise_worst(k):
    from okladder import numerics, ttrr
    from okladder.verify import _worst_cross_inner

    modes = [mode for j in (1, 2, 3) for mode in ttrr.ttrr_modes(k, j, 3)]
    pairwise = max(
        numerics.normalized_cross_inner(a, b)
        for i, a in enumerate(modes)
        for b in modes[i + 1 :]
    )
    assert _worst_cross_inner(modes).hex() == pairwise.hex()
