"""The ledger check (tests/check_expected_failures.py) reads the failing
nodes off pytest's short summary; a node it misses would let a failure pass."""

from check_expected_failures import failing_tests

SUMMARY = """\
tests/test_ok.py:2: AssertionError
ERROR    root:test_ok.py:5 a captured log line, not a summary entry
=========================== short test summary info ============================
FAILED tests/test_ok.py::test_b - assert 0
ERROR tests/test_bad.py
ERROR tests/test_worse.py - ImportError: cannot import name 'gone'
ERROR tests/test_ok.py::test_c - fixture 'missing' not found
1 failed, 3 errors in 0.31s
"""


def test_failing_tests_counts_modules_that_fail_to_import():
    assert failing_tests(SUMMARY) == {
        "tests/test_ok.py::test_b", "tests/test_bad.py", "tests/test_worse.py",
        "tests/test_ok.py::test_c"}
