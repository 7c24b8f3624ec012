"""Verification suite plumbing: records, tolerances, determinism."""

import hashlib
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
    assert not CaseRecord("detp", "error", "aa", math.inf, math.inf, "DomainError: x").passed


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
    def passing(rng):
        yield "ok", {"i": 0}, "exact", lambda: 0.0

    def raising(rng):
        yield "before", {"i": 1}, "exact", lambda: 0.0
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


def _raise_internal():
    raise InternalConsistencyError("defect operator is not scalar")


def test_raising_check_fails_its_own_case_and_the_suite_goes_on(monkeypatch):
    def battery(rng):
        yield "first", {"i": 0}, "exact", lambda: True
        yield "raises", {"i": 1}, "car", _raise_internal
        yield "after", {"i": 2}, "car", lambda: 0.0

    monkeypatch.setitem(suites._SUITE_FUNCS, "fock", battery)
    report = run_suite("fock", 7)
    assert [c.name for c in report.cases] == ["first", "raises", "after"]
    first, raises, after = report.cases
    assert first.passed and first.violation == 0.0 and first.error is None
    assert raises.inputs == digest({"i": 1})
    assert raises.violation == math.inf and raises.threshold == DEFAULT_TOLERANCES["car"]
    assert raises.error == "InternalConsistencyError: defect operator is not scalar"
    assert after.passed and after.error is None
    line = report.to_lines()[1]
    assert line["name"] == "raises" and line["pass"] is False
    assert line["error"] == "InternalConsistencyError: defect operator is not scalar"
    assert report.failures == 1 and not report.passed
    assert "FAIL raises" in report_to_text(report)


def test_a_case_with_an_error_never_passes(monkeypatch, tmp_path):
    # an infinite threshold admits the violation inf, but not the error
    def battery(rng):
        yield "raises", {"i": 0}, "car", _raise_internal
        raise InternalConsistencyError("draw failed")

    monkeypatch.setitem(suites._SUITE_FUNCS, "fock", battery)
    out = tmp_path / "fock.jsonl"
    argv = ["verify", "--suite", "fock", "--seed", "7", "--out", str(out)]
    assert cli.main(argv + ["--tolerance", "exact=inf", "--tolerance", "car=inf"]) == 1
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["name"], r["pass"]) for r in lines[:-1]] == [("raises", False), ("error", False)]
    assert lines[-1]["failures"] == 2 and not lines[-1]["pass"]


# sha256 over JSON rows at seed 7, taken before the suites became generators.
# All five suites pin the ordered (suite, name, pass) rows; the integer suites
# also pin (name, inputs, violation, pass), since their input digests hash
# integers only. The float suites' digests hash LAPACK output and are not pinned.
PINNED_ROWS = {
    "detp": (855, "53e93ac5a76bcfdf8855e94ea215b0eebaa6c4ea9ec8badec4566c36cd79ad99"),
    "grassmann": (400, "1d2ba3c8c42a8051a6ada990d64d013e2bd63a161bbc88f48722217900021ea0"),
    "fock": (610, "afb46a95bdcdb5538673c340578e5c274b98dc610da36570cf72ed7bbd54508c"),
    "groupoid": (110, "940ece10763c28dbbf70e746a69b61ddb11c8e3e37815db1fd7947c284d35430"),
    "cohomology": (78, "294258e149f9b3988eedc088bc98d7a102cb8ea107aab57f11a3e1ef8fc744a4"),
}
# rows appended to a suite after its pin was taken, pinned apart so that the
# pin above still proves the earlier rows unchanged
APPENDED_ROWS = {
    "fock": (25, "a01e03defe4512640d63d6eea456d95846169d17772253bf0fee7055eb91cb2a"),
}
PINNED_RECORDS = {
    "groupoid": "71f604ca4c9b67e7d2313fd3d286e46b5657463378924fe5810348e8280bb243",
    "cohomology": "26254dacdabb2089ae2d7e59f25e2c4838b2480cbc9627e2b0a446ce4988fa73",
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def seed7_reports():
    return {name: run_suite(name, 7) for name in SUITE_NAMES}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_case_names_and_verdicts_are_pinned(seed7_reports, name):
    rows = [[c.suite, c.name, c.passed] for c in seed7_reports[name].cases]
    count = PINNED_ROWS[name][0]
    head, tail = rows[:count], rows[count:]
    assert (len(head), _sha(head)) == PINNED_ROWS[name]
    assert (len(tail), _sha(tail)) == APPENDED_ROWS.get(name, (0, _sha([])))


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_exact_suite_records_are_pinned(seed7_reports, name):
    cases = seed7_reports[name].cases
    assert _sha([[c.name, c.inputs, c.violation, c.passed] for c in cases]) == PINNED_RECORDS[name]
