"""Verification suite plumbing: records, tolerances, determinism."""

import json
import math

import numpy as np
import pytest

from anomlab import cli, suites
from anomlab.errors import DomainError, InternalConsistencyError
from anomlab.suites import (
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    CaseRecord,
    digest,
    report_to_text,
    resolve_tolerances,
    run_suite,
    run_suites,
)


def test_case_record_pass_logic():
    ok = CaseRecord("detp", "x", "aa", violation=1e-12, threshold=1e-10)
    assert ok.passed
    bad = CaseRecord("detp", "x", "aa", violation=1e-9, threshold=1e-10)
    assert not bad.passed


def test_digest_is_stable_and_type_aware():
    assert digest({"a": 1}) == digest({"a": 1})
    assert digest({"a": 1}) != digest({"a": 2})
    assert len(digest([1, 2, 3])) == 12
    arr = np.arange(4).reshape(2, 2)
    assert digest(arr) == digest(arr.copy())
    assert digest(complex(1, 2)) != digest(complex(1, -2))


def test_resolve_tolerances():
    tol = resolve_tolerances({"series": 1e-8})
    assert tol["series"] == 1e-8
    assert tol["dual_route"] == DEFAULT_TOLERANCES["dual_route"]
    with pytest.raises(DomainError):
        resolve_tolerances({"no_such_key": 1e-8})
    with pytest.raises(DomainError):
        resolve_tolerances({"series": -1.0})


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("bogus", 0)


def test_detp_suite_passes_and_reports():
    report = run_suite("detp", 123)
    assert report.suite == "detp"
    assert report.seed == 123
    assert report.failures == 0
    assert report.passed
    assert len(report.cases) >= 800
    lines = report.to_lines()
    assert lines[-1]["kind"] == "summary"
    assert lines[-1]["pass"] is True
    assert lines[-1]["cases"] == len(report.cases)
    assert all(line["kind"] == "case" for line in lines[:-1])
    text = report_to_text(report)
    assert text.startswith("suite detp:")
    assert "PASS" in text


def test_suite_is_deterministic_per_seed():
    first = run_suite("detp", 7)
    second = run_suite("detp", 7)
    strip = ("wall_time", "started")
    a = [{k: v for k, v in line.items() if k not in strip} for line in first.to_lines()]
    b = [{k: v for k, v in line.items() if k not in strip} for line in second.to_lines()]
    assert a == b
    third = run_suite("detp", 8)
    c = [{k: v for k, v in line.items() if k not in strip} for line in third.to_lines()]
    assert a != c


def test_tightened_tolerance_can_fail_honestly():
    report = run_suite("detp", 5, tolerances={"series": 0.0})
    assert report.failures > 0
    assert not report.passed
    assert "FAIL" in report_to_text(report)


def test_run_suites_wraps_single_suite():
    # the "all" expansion is exercised end to end by the acceptance tests
    reports = run_suites("detp", 0)
    assert [r.suite for r in reports] == ["detp"]
    assert SUITE_NAMES == ("detp", "grassmann", "fock", "groupoid", "cohomology")


def test_raising_suite_is_recorded_and_the_run_goes_on(monkeypatch, tmp_path):
    def passing(rng, rec):
        rec.add("ok", {"i": 0}, 0.0, "exact")

    def raising(rng, rec):
        rec.add("before", {"i": 1}, 0.0, "exact")
        raise InternalConsistencyError("routes disagree")

    for name in SUITE_NAMES:
        monkeypatch.setitem(suites._SUITE_FUNCS, name, passing)
    monkeypatch.setitem(suites._SUITE_FUNCS, "fock", raising)
    out = tmp_path / "all.jsonl"
    assert cli.main(["verify", "--suite", "all", "--seed", "7", "--out", str(out)]) == 1
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["suite"] for r in lines if r["kind"] == "summary"] == list(SUITE_NAMES)
    cases = [r for r in lines if r["kind"] == "case" and r["suite"] == "fock"]
    assert [c["name"] for c in cases] == ["before", "error"]
    assert cases[0]["pass"] and "error" not in cases[0]
    assert cases[1]["violation"] == math.inf and not cases[1]["pass"]
    assert cases[1]["error"] == "InternalConsistencyError: routes disagree"
    assert "routes disagree" in report_to_text(run_suite("fock", 7))

    merged = tmp_path / "merged.jsonl"
    assert cli.main(["report", str(out), "--out", str(merged)]) == 1
    summary = json.loads(merged.read_text().splitlines()[-1])
    assert summary["kind"] == "merged"
    assert summary["failures"] == 1 and not summary["pass"]
