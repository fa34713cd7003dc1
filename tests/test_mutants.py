"""Mutation checks: each mutant puts one fault into a copy of the package,
and the tests named for it must fail on that copy; on an unmutated copy
they pass.  The text a mutant replaces must occur exactly once in its
file, so a refactor that moves the code restates its mutants with it."""

import os
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
}


def _copy(tmp_path):
    package = tmp_path / "newmansum"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def _pytest(package, tests):
    """Run ``tests`` with ``package`` imported: its parent is PYTHONPATH, and
    ``-o pythonpath=`` drops the ``src`` entry of pyproject.toml, which pytest
    would put ahead of it."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=",
         *tests],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(package.parent)},
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


def test_unmutated_copy_passes_the_mutants_tests(tmp_path):
    tests = sorted({test for *_, named in MUTANTS.values() for test in named})
    result = _pytest(_copy(tmp_path), tests)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
