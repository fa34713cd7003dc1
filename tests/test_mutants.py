"""Mutation checks: each mutant puts one fault into a copy of the package,
and the tests named for it must fail on that copy; on an unmutated copy
they pass.  The text a mutant replaces must occur exactly once in its
file, so a refactor that moves the code restates its mutants with it."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newmansum"
ROOT = PACKAGE.parents[1]

# name: (file in the package, text, its replacement, tests that must fail)
MUTANTS = {
    "start states of classes 1 and 2 swapped": (
        "core.py", "-l % 3 << 10", "l % 3 << 10",
        ["tests/test_core.py::test_residue_sum_examples"]),
    "decomposition's odd-x boundary term dropped": (
        "core.py", "total = _boundary(N, l) if N & 1 else 0", "total = 0",
        ["tests/test_core.py::test_residue_sum_vs_brute"]),
    "class 0's boundary term taken at every class": (
        "core.py", "_boundary(N, l) if N & 1", "_boundary(N, 0) if N & 1",
        ["tests/test_core.py::test_residue_sum_vs_brute"]),
    "two-lookup path's low byte read from state 0": (
        "core.py", "out[next_state[i] | x & 255]", "out[x & 255]",
        ["tests/test_core.py::test_residue_sum_examples",
         "tests/test_core.py::test_digit_scan_small_exhaustive[0]"]),
    "four-byte scan's second digit weighed 6562": (
        "core.py", "6561 * out[j]", "6562 * out[j]",
        ["tests/test_core.py::test_recursive_worked_example"]),
    "merge base not squared before the last merge": (
        "core.py", "            base *= base",
        "            base = base if len(digits) == 2 else base * base",
        ["tests/test_core.py::test_assemble"]),
    "exact merge in Decimal from the first level": (
        "core.py", "_DECIMAL_BITS = 512", "_DECIMAL_BITS = 0",
        ["tests/test_core.py::test_exact_assemble_merges_in_decimal_from_its_level"]),
    "four-byte scan padded at the low end": (
        "core.py", 'x.to_bytes(-(-x.bit_length() // 32) * 4, "big")',
        '(x << 8 * (-x.bit_length() // 8 % 4)).to_bytes(-(-x.bit_length() // 32) * 4, "big")',
        ["tests/test_core.py::test_four_byte_scan_matches_traces[1]"]),
    "decimal enclosure of zero half-width": (
        "analysis.py", "err = _EXACT.scaleb(_ERR_ULPS,", "err = _EXACT.scaleb(0,",
        ["tests/test_analysis.py::test_values_on_an_integer_stop_at_the_precision_cap",
         "tests/test_analysis.py::test_families_and_neighbours_are_exact_to_2_4096[1000]"]),
    "family rule's sides swapped": (
        "analysis.py", "return k + (N > n0) if up else k - (N < n0)",
        "return k + (N < n0) if up else k - (N > n0)",
        ["tests/test_analysis.py::test_families_and_neighbours_are_exact_to_2_4096[153]"]),
    "failed stderr write not suppressed": (
        "cli.py", "contextlib.suppress(AttributeError, OSError)",
        "contextlib.suppress(AttributeError)",
        ["tests/test_cli.py::test_cap_error_exits_2_without_stderr[full]"]),
    "run catches only a closed pipe": (
        "cli.py", "    except OSError as exc:\n        # A write or flush",
        "    except BrokenPipeError as exc:\n        # A write or flush",
        ["tests/test_cli.py::test_full_stdout_exits_2_with_one_error_line[eval 5]"]),
}

def _copy(tmp_path):
    package = tmp_path / "newmansum"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def _pytest(package, tests):
    """Run ``tests`` with ``package`` imported: its parent is PYTHONPATH, and
    ``-o pythonpath=`` drops the ``src`` entry of pyproject.toml, which pytest
    would put ahead of it.  The named tests need no installed plugin, and not
    loading them (PYTEST_DISABLE_PLUGIN_AUTOLOAD) halves a run's start-up."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=",
         *tests],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(package.parent),
                       "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
        capture_output=True, text=True)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_its_tests(name, tmp_path):
    file, text, replacement, tests = MUTANTS[name]
    path = _copy(tmp_path) / file
    source = path.read_text()
    assert source.count(text) == 1, f"{text!r} occurs {source.count(text)} times in {file}"
    path.write_text(source.replace(text, replacement))
    result = _pytest(path.parent, tests)
    # 1 is failed tests; 2 and 4 are a broken collection, which shows nothing
    assert result.returncode == 1, result.stdout[-3000:] + result.stderr[-3000:]
    # and each named test is one of them
    assert re.search(rf"\b{len(tests)} failed", result.stdout), result.stdout[-3000:]


def test_unmutated_copy_passes_the_mutants_tests(tmp_path):
    tests = sorted({test for *_, named in MUTANTS.values() for test in named})
    result = _pytest(_copy(tmp_path), tests)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
