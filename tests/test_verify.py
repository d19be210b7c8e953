"""Verification machinery: configuration, ordering, reporting."""

import pytest

from okladder.verify import ALL_SUITES, CheckResult, VerifySuiteConfig, run_verify


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

    def boom(config):
        return [("boom", "certifies nothing", lambda: 1 / 0)]

    monkeypatch.setitem(verify_mod._SUITE_BUILDERS, "tables", boom)
    results = run_verify(VerifySuiteConfig(which=("tables",)))
    assert len(results) == 1 and not results[0].passed
    assert "ZeroDivisionError" in results[0].detail


def test_run_suite_shortcut():
    results = run_verify(VerifySuiteConfig(k_max=1, n_max=2, which=("identities",)))
    assert results and all(r.suite == "identities" for r in results)


def test_all_suites_have_builders():
    from okladder.verify import _SUITE_BUILDERS

    assert set(ALL_SUITES) == set(_SUITE_BUILDERS)


def test_json_shape():
    r = CheckResult("s", "n", True, "d", "c")
    assert r.to_json_dict() == {
        "suite": "s",
        "check": "n",
        "status": "pass",
        "detail": "d",
        "certifies": "c",
    }
