"""The test suite's own configuration, run on a throwaway suite."""

import pathlib

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

_FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers(0, 100))
def test_falsified(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_falsified_property_fails_its_test_alone(pytester, capsys):
    # with every warning an error, Hypothesis's pytest plugin raised a
    # DeprecationWarning (mypy_extensions.TypedDict, through libcst) while it
    # reported the falsifying example, and the session ended in INTERNALERROR
    # before the other tests ran.  A fresh interpreter, so libcst is imported
    # anew, under this repository's pytest settings
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    path = pytester.makepyfile(test_two=_FALSIFIED)
    result = pytester.runpytest_subprocess(str(path), "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    # the inner run's report, echoed here, would read as this suite's own
    capsys.readouterr()
