"""The benchmark's workloads: the CLI commands each one runs, and the checks
of their outputs.

Every check compares against computations made here, apart from the
program (the digit-DP evaluator in ``reference``, mpmath at 60 digits), or
against properties the method must have.  Nothing is compared with a stored
copy of earlier output.

mpmath is imported inside the checks only, so that the set-up time the
benchmark measures still pays for the package's own import of it.
"""

import functools
import random
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from reference import newman_sum

__all__ = ["Op", "Result", "WORKLOADS"]

EVAL_BITS = (2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15)
# The 2^15-bit values have about 7800 decimal digits, past CPython's
# int->str limit, so `eval` prints nothing and raises ValueError on them.
# Their N comes from a fixed seed rather than --seed, so that the same
# operations fail in every run.
FAULT_BITS = 2 ** 15
VERIFY_MAX = 65536
BOUNDS_MAX = 1_000_000
SCAN_FROM, SCAN_ROWS = 2, 5000
CHECK_DPS = 60


@dataclass
class Op:
    argv: list
    check: object                # check(result) -> problem text, or None
    out_file: Path | None = None  # a file the command writes besides stdout


@dataclass
class Result:
    rc: object                   # exit code returned or passed to SystemExit
    error: BaseException | None  # exception other than SystemExit
    seconds: float
    stdout: str = ""
    file_text: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.rc not in (0, None)


def _failure(res):
    if res.error is not None:
        return f"raised {type(res.error).__name__}: {res.error}"
    if res.failed:
        return f"exit code {res.rc}"
    return None


def _decimal_equals(text, value):
    # Decimal converts both sides exactly and without the int->str limit.
    try:
        return Decimal(text.strip()) == Decimal(value)
    except ArithmeticError:
        return False


def _check_eval(N, residue, res):
    want = newman_sum(residue, N)
    if res.failed:
        too_long = len(str(Decimal(abs(want)))) > sys.get_int_max_str_digits()
        if (too_long and isinstance(res.error, ValueError)
                and "Exceeds the limit" in str(res.error)):
            return None          # the known int->str fault
        return _failure(res)
    if not _decimal_equals(res.stdout, want):
        return f"S_{{3,{residue}}} of a {N.bit_length()}-bit N differs from the reference"
    return None


def _check_trace(N, algorithm, res):
    if res.failed:
        return _failure(res)
    want = newman_sum(0, N)
    lines = res.stdout.splitlines()
    terms_wanted = N.bit_count() if algorithm == "decomposition" else (N.bit_length() + 1) // 2
    if len(lines) != terms_wanted + 2:
        return f"{algorithm} trace has {len(lines)} lines, expected {terms_wanted + 2}"
    if not _decimal_equals(lines[0], want):
        return f"{algorithm} trace value differs from the reference"
    terms, _, total = lines[-1].rpartition("=")
    if sum(int(t) for t in re.findall(r"[+-]?\d+", terms)) != want or int(total) != want:
        return f"{algorithm} trace terms do not sum to the value"
    return None


def _check_verify(max_n, res):
    if res.failed:
        return _failure(res)
    if not re.fullmatch(rf"range: 0\.\.{max_n}\n\d+ checks, 0 failures\n", res.stdout):
        return f"verify reported: {res.stdout!r}"
    return None


def _exact_powers():
    """N -> (N^lam, 2(N/6)^lam, (55/3)(N/65)^lam) at the ambient mpmath precision."""
    from mpmath import mp
    lam = mp.log(3) / mp.log(4)
    c_lo, c_hi = 2 / mp.mpf(6) ** lam, mp.mpf(55) / 3 / mp.mpf(65) ** lam

    def at(N):
        p = mp.mpf(N) ** lam
        return p, c_lo * p, c_hi * p
    return at


def _floor_ok(k, v, tol):
    return k - tol <= v < k + 1 - tol      # k = floor(v), v exact integers included


def _ceil_ok(k, v, tol):
    return k - 1 + tol < v <= k + tol      # k = ceil(v)


def _check_bounds(max_n, res):
    from mpmath import mp
    if res.failed:
        return _failure(res)
    m = re.fullmatch(
        rf"scanned N in \[1, {max_n}\]\n"
        r"bound violations: 0\n"
        r"newman inequality violations: 0\n"
        r"lower bound attained at: ([\d, ]+)\n"
        r"upper bound attained at: ([\d, ]+)\n", res.stdout)
    if not m:
        return f"bounds reported: {res.stdout[:300]!r}"
    lower = [int(n) for n in m.group(1).split(", ")]
    upper = [int(n) for n in m.group(2).split(", ")]
    for name, listed, base in (("lower", lower, 6), ("upper", upper, 260)):
        if listed != sorted(set(listed)) or not 2 <= listed[0] <= listed[-1] <= max_n:
            return f"{name} attainment list is not ascending within [2, {max_n}]"
        family = [base * 4 ** k for k in range(max_n.bit_length()) if base * 4 ** k <= max_n]
        if not set(family) <= set(listed):
            return f"{name} attainment list misses part of {base}*4^k"
    with mp.workdps(CHECK_DPS):
        exact = _exact_powers()
        tol = mp.mpf(10) ** -40
        for N in lower:
            if not _floor_ok(newman_sum(0, N), exact(N)[1], tol):
                return f"lower bound is not attained at listed N={N}"
        for N in upper:
            if not _ceil_ok(newman_sum(0, N), exact(N)[2], tol):
                return f"upper bound is not attained at listed N={N}"
    return None


def _check_scan(start, stop, res):
    from mpmath import mp
    if res.failed:
        return _failure(res)
    if res.stdout:
        return "scan wrote to stdout"
    lines = res.file_text.splitlines()
    if lines[0] != "N,S,delta,lower,upper,in_bounds":
        return f"scan header is {lines[0]!r}"
    if len(lines) - 1 != stop - start:
        return f"scan wrote {len(lines) - 1} rows, expected {stop - start}"
    with mp.workdps(CHECK_DPS):
        exact = _exact_powers()
        tol = mp.mpf(10) ** -40
        for want_n, line in zip(range(start, stop), lines[1:]):
            n, s, d, lo, hi, flag = line.split(",")
            N, S, lo, hi = int(n), int(s), int(lo), int(hi)
            if N != want_n:
                return f"scan row N={N}, expected {want_n}"
            if S != newman_sum(0, N):
                return f"scan S differs from the reference at N={N}"
            power, v_lo, v_hi = exact(N)
            if abs(mp.mpf(d) * power - S) > mp.mpf("1e-11") * S:
                return f"scan delta at N={N} is off in the first 11 digits"
            if not (_floor_ok(lo, v_lo, tol) and _ceil_ok(hi, v_hi, tol)):
                return f"scan bounds at N={N} are not the floor and ceil"
            if flag != ("true" if lo <= S <= hi else "false"):
                return f"scan in_bounds flag wrong at N={N}"
    return None


def eval_huge(seed, workdir):
    """`eval` of random N of 2^12..2^15 bits with both algorithms and residue 2,
    plus both traces at 2^12 bits."""
    rng = random.Random(seed)
    ops = []
    numbers = {}
    for bits in EVAL_BITS:
        draw = random.Random(FAULT_BITS) if bits == FAULT_BITS else rng
        N = numbers[bits] = draw.getrandbits(bits) | 1 << (bits - 1)
        for extra, residue in (([], 0), (["--algorithm", "decomposition"], 0),
                               (["--residue", "2"], 2)):
            ops.append(Op(["eval", hex(N), *extra], functools.partial(_check_eval, N, residue)))
    N = numbers[EVAL_BITS[0]]
    for algorithm in ("recursive", "decomposition"):
        ops.append(Op(["eval", hex(N), "--algorithm", algorithm, "--trace"],
                      functools.partial(_check_trace, N, algorithm)))
    return ops


def sweep_verify(seed, workdir):
    """`verify --max 65536`."""
    return [Op(["verify", "--max", str(VERIFY_MAX)], functools.partial(_check_verify, VERIFY_MAX))]


def sweep_bounds(seed, workdir):
    """`bounds --max 1000000`."""
    return [Op(["bounds", "--max", str(BOUNDS_MAX)], functools.partial(_check_bounds, BOUNDS_MAX))]


def scan_delta(seed, workdir):
    """`scan` of 5000 consecutive N from 2, written as CSV into workdir."""
    out = workdir / "scan.csv"
    stop = SCAN_FROM + SCAN_ROWS
    return [Op(["scan", "--from", str(SCAN_FROM), "--to", str(stop), "--step", "1", "--out", str(out)],
               functools.partial(_check_scan, SCAN_FROM, stop), out_file=out)]


WORKLOADS = {
    "eval-huge": eval_huge,
    "sweep-verify": sweep_verify,
    "sweep-bounds": sweep_bounds,
    "scan-delta": scan_delta,
}
