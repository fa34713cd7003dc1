import contextlib
import errno
import os
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

import digit_dp
import newmansum
import walks
from newmansum import analysis, cli, core, oracle


def invoke(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------- eval

def test_eval_plain(capsys):
    code, out, _ = invoke(["eval", "500000"], capsys)
    assert code == 0
    assert out == "18261\n"


def test_eval_zero(capsys):
    code, out, _ = invoke(["eval", "0"], capsys)
    assert code == 0
    assert out == "0\n"


def test_eval_algorithms_agree(capsys):
    for algo in ("decomposition", "recursive", "oracle"):
        code, out, _ = invoke(["eval", "19", "--algorithm", algo], capsys)
        assert code == 0
        assert out == "7\n"


def test_eval_accepts_hex_and_binary(capsys):
    code, out, _ = invoke(["eval", "0x13"], capsys)
    assert (code, out) == (0, "7\n")
    code, out, _ = invoke(["eval", "0b10011"], capsys)
    assert (code, out) == (0, "7\n")


def test_eval_arbitrary_length_argument(capsys):
    n = str(1 << 520)
    code, out, _ = invoke(["eval", n], capsys)
    assert code == 0
    assert int(out) >= 1


def test_eval_prints_values_past_str_limit(capsys):
    # 5000 hex digits: S has 4772 decimal digits, past CPython's default
    # int->str limit of 4300
    N = int("f" * 5000, 16)
    limit = sys.get_int_max_str_digits()
    code, out, _ = invoke(["eval", "0x" + "f" * 5000], capsys)
    assert code == 0
    want = 0
    for c in reversed(core.recursion_trace(N)):
        want = 3 * want + c
    assert Decimal(out) == Decimal(want)
    assert sys.get_int_max_str_digits() == limit


def test_eval_accepts_decimal_past_str_limit(capsys):
    N = random.Random(5000).randrange(10 ** 4999, 10 ** 5000)
    digits = str(Decimal(N))
    assert len(digits) == 5000
    code, out_decimal, _ = invoke(["eval", digits], capsys)
    assert code == 0
    code, out_hex, _ = invoke(["eval", hex(N)], capsys)
    assert code == 0
    assert out_decimal == out_hex


def test_eval_residues(capsys):
    code, out, _ = invoke(["eval", "8", "--residue", "1"], capsys)
    assert (code, out) == (0, "-3\n")
    code, out, _ = invoke(["eval", "8", "--residue", "2"], capsys)
    assert (code, out) == (0, "0\n")
    code, out, _ = invoke(
        ["eval", "8", "--residue", "1", "--algorithm", "decomposition"], capsys)
    assert (code, out) == (0, "-3\n")
    code, out, _ = invoke(
        ["eval", "8", "--residue", "1", "--algorithm", "oracle"], capsys)
    assert (code, out) == (0, "-3\n")
    N = hex(random.Random(12).getrandbits(4096) | (1 << 4095))
    code, want, _ = invoke(["eval", N, "--residue", "2"], capsys)
    assert code == 0
    code, out, _ = invoke(
        ["eval", N, "--residue", "2", "--algorithm", "decomposition"], capsys)
    assert (code, out) == (0, want)


RECURSIVE_TRACE = """\
18261
S(500000) = 3*S(125000) + 0
S(125000) = 3*S(31250) + 0
S(31250) = 3*S(7812) + 1
S(7812) = 3*S(1953) + 1
S(1953) = 3*S(488) + 0
S(488) = 3*S(122) + 0
S(122) = 3*S(30) + 1
S(30) = 3*S(7) - 1
S(7) = 3*S(1) + 0
S(1) = 3*S(0) + 1
19683-2187+729+27+9=18261
"""

DECOMPOSITION_TRACE = """\
18261
S(2^18) = 13122
+S([2^n,2^n+2^17)) n even = 0
+S(2^16) = 4374
+S([2^n,2^n+2^15)) n even = 0
+S(2^13) = 729
+S([2^n,2^n+2^8)) n odd = 27
+S(2^5) = 9
13122+0+4374+0+729+27+9=18261
"""


def test_eval_recursive_trace(capsys):
    code, out, _ = invoke(
        ["eval", "500000", "--algorithm", "recursive", "--trace"], capsys)
    assert code == 0
    assert out == RECURSIVE_TRACE
    assert out.splitlines()[-1] == "19683-2187+729+27+9=18261"


def test_eval_decomposition_trace(capsys):
    code, out, _ = invoke(
        ["eval", "500000", "--algorithm", "decomposition", "--trace"], capsys)
    assert code == 0
    assert out == DECOMPOSITION_TRACE


def _sum_line(terms, total) -> str:
    if not terms:
        return f"0={total}"
    parts = [str(terms[0])] + [f"{t:+d}" for t in terms[1:]]
    return "".join(parts) + f"={total}"


def _reference_trace(N, algorithm) -> str:
    """The output of `eval N --trace`, rendered from the whole-integer
    walks of both algorithms with one int->str per printed number."""
    value = core.newman_sum_recursive(N)
    lines = [value]
    if algorithm == "decomposition":
        terms = walks.decomposition(N)
        lines += [f"{desc} = {v}" for desc, v in terms]
        lines.append(_sum_line([v for _, v in terms], value))
    else:
        pairs = walks.recursion(N)
        lines += [f"S({Nk}) = 3*S({Nk // 4}) {'+' if c >= 0 else '-'} {abs(c)}"
                  for Nk, c in pairs]
        weighted = [3 ** k * c for k, (_, c) in enumerate(pairs)]
        lines.append(_sum_line([w for w in reversed(weighted) if w != 0], value))
    return "".join(f"{line}\n" for line in lines)


# zero-valued dyadic terms, the boundary term, zero corrections, N = 0, 1
TRACE_NUMBERS = [*range(301), 500000,
                 *(6 * 4 ** k for k in range(12)),
                 *(260 * 4 ** k for k in range(12)),
                 *(random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
                   for bits in (64, 1000, 4096))]


@pytest.mark.parametrize("algorithm", ["recursive", "decomposition"])
def test_eval_trace_matches_int_rendering(algorithm, capsys):
    for N in TRACE_NUMBERS:
        code, out, err = invoke(
            ["eval", hex(N), "--algorithm", algorithm, "--trace"], capsys)
        assert (code, err) == (0, "")
        assert out == _reference_trace(N, algorithm), f"N={N}"


@pytest.mark.parametrize("algorithm", ["recursive", "decomposition"])
def test_eval_trace_memory(algorithm):
    # Each line is written as it is made, so the trace of a 2^14-bit N
    # (26 to 50 MB of text) holds no more than the terms' small
    # coefficients and a few numbers at once: 0.11 MiB (recursion) and
    # 0.13 MiB (decomposition).  Holding every decomposition term with its
    # description reads 1.67 MiB, and a list of (c, k) tuples for the
    # recursion's sum line with a byte-a-step scan's digit list 0.53 MiB.
    def trace(N):
        return cli.main(["eval", hex(N), "--algorithm", algorithm, "--trace"])

    N = random.Random(2 ** 14).getrandbits(2 ** 14) | 1 << (2 ** 14 - 1)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert trace(63) == 0   # builds the tables the evaluators keep
        tracemalloc.start()
        try:
            assert trace(N) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 0.25 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


def _eval_matches_digit_dp(N, capsys):
    """eval N's stdout for both algorithms and residues 0 to 2, and the
    value line and sum line of both traces, against the digit DP."""
    want = digit_dp.sums(3, N)
    for algorithm in ("recursive", "decomposition"):
        for residue in (0, 1, 2):
            code, out, err = invoke(["eval", hex(N), "--algorithm", algorithm,
                                     "--residue", str(residue)], capsys)
            assert (code, out, err) == (0, f"{want[residue]}\n", ""), (N, algorithm, residue)
        code, out, err = invoke(["eval", hex(N), "--algorithm", algorithm, "--trace"], capsys)
        lines = out.splitlines()
        terms, _, total = lines[-1].rpartition("=")
        assert (code, err, lines[0], total) == (0, "", str(want[0]), str(want[0]))
        assert sum(int(t) for t in re.findall(r"[+-]?\d+", terms)) == want[0]


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_eval_at_each_word_padding(extra, capsys):
    # the four paddings of the four-byte scan: the lowest, the highest and a
    # random N of 3 to 9 bytes whose top word holds extra bytes, one word
    # and the first merge
    rng = random.Random(extra)
    for n in range(3, 10):
        if n % 4 == extra % 4:
            for N in (1 << 8 * n - 8, (1 << 8 * n) - 1, rng.getrandbits(8 * n) | 1 << 8 * n - 1):
                _eval_matches_digit_dp(N, capsys)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_eval_at_the_decimal_switch(offset, capsys):
    """N whose merge ends one level below the first Decimal level, at it and
    one above it."""
    base = 81 ** 4
    top = offset + next(level for level in range(20)
                        if (base ** (1 << level)).bit_length() >= core._DECIMAL_BITS)
    # w radix-81^4 words merge through levels 0 .. (w - 1).bit_length() - 1;
    # these N and the decomposition's scanned N >> 1 both have w words
    for w in ((1 << top) + 1, 1 << top + 1):
        for N in (1 << 32 * (w - 1) + 1, (1 << 32 * w) - 1,
                  random.Random(w).getrandbits(32 * w) | 1 << 32 * w - 1):
            value = core._residue(0, N, "recursive", exact=True)
            assert isinstance(value, Decimal) == (offset >= 0)
            _eval_matches_digit_dp(N, capsys)


def test_eval_exact_route_equals_the_int_route():
    """The residue sums eval prints, by exact scans, against the int scans:
    every N below 2^12, and odd N = 1 (mod 3) past 2^16 bits, whose exact
    values are Decimals and whose decomposition adds a boundary term."""
    rng = random.Random(2 ** 16)
    long = [N for N in (rng.getrandbits(2 ** 16 + 64) | 1 << 2 ** 16 + 63 | 1 for _ in range(12))
            if N % 3 == 1][:3]
    assert len(long) == 3
    for algorithm in ("recursive", "decomposition"):
        for N in (*range(2 ** 12), *long):
            for l in (0, 1, 2):
                value = core._residue(l, N, algorithm, exact=True)
                assert value == core._residue(l, N, algorithm), (N, l, algorithm)
                assert isinstance(value, Decimal) == (N in long)


@pytest.mark.parametrize("bits", [2 ** 18, 2 ** 20])
def test_eval_prints_str_of_the_value(bits, capsys):
    # the printed Decimal against CPython's own int->str, its limit lifted here
    N = random.Random(bits).getrandbits(bits) | 1 << bits - 1
    code, out, err = invoke(["eval", hex(N)], capsys)
    with cli._any_length_ints():
        want = str(core.newman_sum_recursive(N))
    assert (code, err) == (0, "")
    assert out == want + "\n"


@pytest.mark.parametrize("algorithm, parent_kib", [("recursive", 88), ("decomposition", 92)])
def test_eval_residue_two_memory(algorithm, parent_kib):
    # tracemalloc peaks at a 2^15-bit N: 87.9 and 92.1 KiB before the
    # Decimal merge levels, 84.8 and 88.2 KiB with them; with the Decimal
    # merges from the first level on, 220 and 223 KiB
    N = random.Random(2 ** 15).getrandbits(2 ** 15) | 1 << 2 ** 15 - 1
    argv = ["eval", hex(N), "--algorithm", algorithm, "--residue", "2"]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert cli.main(argv) == 0   # the byte tables and the parser
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < parent_kib * 1024, f"{peak / 1024:.1f} KiB"


def test_eval_trace_usage_errors(capsys):
    code, _, err = invoke(["eval", "5", "--algorithm", "oracle", "--trace"], capsys)
    assert code == 64
    assert "trace" in err
    code, _, err = invoke(["eval", "5", "--residue", "1", "--trace"], capsys)
    assert code == 64


def test_eval_oracle_cap_exceeded(capsys):
    code, _, err = invoke(
        ["eval", str(2 ** 33), "--algorithm", "oracle"], capsys)
    assert code == 2
    assert "oracle cap" in err


@pytest.mark.parametrize("argv", [["eval", "100", "--algorithm", "oracle"],
                                  ["verify", "--max", "10"],
                                  ["bounds", "--max", "10"],
                                  ["bench", "--exponents", "4"]])
@pytest.mark.parametrize("cap", ["abc", "-1"])
def test_malformed_oracle_cap(argv, cap, capsys, monkeypatch):
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", cap)
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error: NEWMANSUM_ORACLE_CAP")
    assert out == ""


@pytest.mark.parametrize("argv", [["verify", "--max", "100"],
                                  ["bounds", "--max", "100"]])
def test_oracle_cap_exceeded_by_sweeps(argv, capsys, monkeypatch):
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", "50")
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error: oracle cap")
    assert out == ""


def test_usage_errors(capsys):
    assert invoke(["eval", "-5"], capsys)[0] == 64
    assert invoke(["eval", "abc"], capsys)[0] == 64
    assert invoke(["eval", "5", "--bogus"], capsys)[0] == 64
    assert invoke(["nonsense"], capsys)[0] == 64
    assert invoke([], capsys)[0] == 64


# ------------------------------------------------------------------- verify

def test_verify_clean(capsys):
    code, out, _ = invoke(["verify", "--max", "256"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_verify_trivial(capsys):
    code, out, _ = invoke(["verify", "--max", "0"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_verify_detects_fault(capsys, corrupt_correction):
    code, out, _ = invoke(["verify", "--max", "64"], capsys)
    assert code == 1
    assert "first failure" in out
    assert "N=15" in out


@pytest.mark.parametrize("max_n,faults,summary", [
    (300, {2: 5, 8: 0, 62: 40}, "2031 checks, 19 failures"),
    (300, {0: 1}, "2031 checks, 7 failures"),
    (65536, {16384: 0}, "280720 checks, 5 failures"),     # a chunk's first entry
])
def test_verify_reports_oracle_faults(max_n, faults, summary, capsys, faulty_oracle):
    faulty_oracle(faults)
    code, out, _ = invoke(["verify", "--max", str(max_n)], capsys)
    assert code == 1
    assert out == (f"range: 0..{max_n}\n{summary}\n"
                   f"first failure: decomposition-vs-oracle at N={min(faults)}\n")


# ------------------------------------------------------------------- scan

def test_scan_csv(tmp_path, capsys):
    out_path = tmp_path / "d.csv"
    code, _, _ = invoke(
        ["scan", "--from", "2", "--to", "100", "--step", "1",
         "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "N,S,delta,lower,upper,in_bounds"
    assert len(lines) == 99
    assert all(line.endswith("true") for line in lines[1:])
    assert lines[5] == "6,2,0.483459078354,2,3,true"


def test_scan_row_for_n1_leaves_upper_empty(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    code, _, _ = invoke(
        ["scan", "--from", "1", "--to", "2", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text().splitlines()[1] == "1,1,1.0,0,,true"


def test_scan_checkpoint_row(tmp_path, capsys):
    out_path = tmp_path / "big.csv"
    code, _, _ = invoke(
        ["scan", "--from", "500000", "--to", "500001", "--out", str(out_path)],
        capsys)
    assert code == 0
    row = out_path.read_text().splitlines()[1]
    assert row.startswith("500000,18261,")


def test_scan_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = invoke(
            ["scan", "--from", "2", "--to", "60", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_past_str_limit(tmp_path, capsys):
    # N of 4401 digits, past CPython's default int->str limit of 4300
    start = 10 ** 4400
    out_path = tmp_path / "huge.csv"
    limit = sys.get_int_max_str_digits()
    code, _, err = invoke(
        ["scan", "--from", str(Decimal(start)), "--to", str(Decimal(start + 3)),
         "--out", str(out_path)], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 3
    for N, row in zip(range(start, start + 3), rows):
        rec = analysis.delta_record(N)
        upper = "" if rec.upper is None else str(Decimal(rec.upper))
        assert row == ",".join([str(Decimal(N)), str(Decimal(rec.S)), rec.delta_text,
                                str(Decimal(rec.lower)), upper, "true"])


def test_scan_bad_range(tmp_path, capsys):
    code, _, _ = invoke(
        ["scan", "--from", "9", "--to", "5", "--out", str(tmp_path / "x.csv")],
        capsys)
    assert code == 64


def _scan_fails_alike(target, capsys):
    """Run scan into target twice; both runs must exit 2 with the same
    stderr, naming target and not the temporary file.  Returns stderr."""
    argv = ["scan", "--from", "2", "--to", "5", "--out", str(target)]
    runs = [invoke(argv, capsys) for _ in range(2)]
    assert [code for code, _, _ in runs] == [2, 2]
    err = runs[0][2]
    assert runs[1][2] == err
    assert err.startswith(f"error: {target}: ")
    assert ".scan-" not in err
    return err


def test_scan_unwritable_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    err = _scan_fails_alike(target, capsys)
    assert err == f"error: {target}: No such file or directory\n"
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_scan_out_is_a_directory(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    _scan_fails_alike(target, capsys)
    # the rows were written to a temporary file, which is removed
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(target) == []


# ------------------------------------------------------------------- bounds

BOUNDS_1000 = """\
scanned N in [1, 1000]
bound violations: 0
newman inequality violations: 0
lower bound attained at: 3, 6, 24, 96, 384
upper bound attained at: 19, 67, 259, 260, 271
"""


def test_bounds_output(capsys):
    code, out, _ = invoke(["bounds", "--max", "1000"], capsys)
    assert code == 0
    assert out == BOUNDS_1000


def test_bounds_usage(capsys):
    assert invoke(["bounds", "--max", "1"], capsys)[0] == 64


@pytest.mark.parametrize("command", ["bounds", "scan"])
def test_precision_cap_exits_2(command, tmp_path, capsys, monkeypatch):
    # a cap below the first guard digits leaves every decimal evaluation of
    # a bound undecided: bounds' spot check at N = 9973, and scan's rows
    # from 2^1023 on, past the float stage
    monkeypatch.setattr(analysis, "_MAX_GUARD", 1)
    out_path = tmp_path / "rows.csv"
    argv = (["bounds", "--max", "10000"] if command == "bounds"
            else ["scan", "--from", str(2 ** 1023), "--to", str(2 ** 1023 + 2),
                  "--out", str(out_path)])
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert err.startswith("error: a sharp bound at a ") and err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_bounds_counts_one_oracle_fault_once(capsys, faulty_oracle):
    # 9973 is a spot-check point in a block the fault makes the sweep read
    # entry by entry; its one recursion mismatch is one violation
    faulty_oracle({9973: oracle.oracle_sum(3, 0, 9973) + 3})
    code, out, _ = invoke(["bounds", "--max", "20000"], capsys)
    assert code == 1
    assert "bound violations: 1\n" in out
    assert "first violation: N=9973\n" in out


# ------------------------------------------------------------------- eta

ETA_9 = """\
     x  defined  derived   half  status
     1       +1       -1     +0  MISMATCH
     3       +1       -1     +0  MISMATCH
     5       +1       -1     +0  MISMATCH
     7       +1       +1     +0  ok
     9       +1       -1     +0  MISMATCH
"""


def test_eta_table(capsys):
    code, out, _ = invoke(["eta", "--max", "9"], capsys)
    assert code == 0
    assert out == ETA_9


def _eta_peak_bytes(x_max):
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert cli.main(["eta", "--max", str(x_max)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_eta_memory_does_not_grow_with_max(monkeypatch):
    # Constant eta values keep the test fast; what is measured is whether
    # the table holds its rows, about 130 B each, before printing them.
    for name in ("eta_defined", "eta_derived", "eta_half"):
        monkeypatch.setattr(analysis, name, lambda x: 1)
    _eta_peak_bytes(1)
    assert abs(_eta_peak_bytes(80001) - _eta_peak_bytes(20001)) < 256 * 1024


# ------------------------------------------------------------------- bench

def test_bench_runs(capsys):
    code, out, _ = invoke(["bench", "--exponents", "4,20,64"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("N=2^20:") for line in lines)
    assert any("oracle n/a (over cap)" in line for line in lines if "2^64" in line)
    assert any(line.startswith("prefix scan to ") for line in lines)


def test_bench_holds_no_prefix():
    # the prefix scan times the chunk stream, not a 10^6-entry array
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert cli.main(["bench", "--exponents", "1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


# ---------------------------------------------------------------- parser

def _call_sequence(out, capsys, monkeypatch, fresh):
    """Exit code, stdout, stderr and written file of each of a fixed
    sequence of calls, each on a newly built parser when fresh."""
    argvs = [["eval", "-5"], ["eval", "--help"], ["eval", "500000"],
             ["eval", "8", "--residue", "1"], ["verify", "--max", "100"],
             ["scan", "--from", "1", "--to", "40", "--step", "3", "--out", str(out)]]
    results = []
    for argv in argvs:
        if fresh:
            monkeypatch.setattr(cli, "_parser", None)
        results.append((*invoke(argv, capsys), out.read_text() if out.exists() else None))
    return results


def test_parser_reuse_is_invisible(tmp_path, capsys, monkeypatch):
    out = tmp_path / "scan.csv"
    reused = _call_sequence(out, capsys, monkeypatch, fresh=False)
    out.unlink()
    assert reused == _call_sequence(out, capsys, monkeypatch, fresh=True)
    code, _, err, _ = reused[0]
    assert code == 64 and err.startswith("usage: newmansum eval")
    assert reused[1][0] == 0 and reused[1][1].startswith("usage: newmansum eval")
    assert reused[2][:2] == (0, "18261\n")
    assert reused[-1][3].startswith("N,S,delta")


def test_import_builds_no_parser():
    # importing the module builds no parser; the first main call builds
    # it and later calls reuse it
    code = "\n".join([
        "import argparse, contextlib, io",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(kwargs.get('prog'))",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import newmansum.cli",
        "assert built == [], built",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert newmansum.cli.main(['eval', '19']) == 0",
        "    first = len(built)",
        "    assert newmansum.cli.main(['eval', '19']) == 0",
        "assert first == len(built) > 0, (first, built)",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_import_builds_no_byte_table():
    # the digit scan's byte tables are built at the first scan, not at import
    code = "\n".join([
        "import contextlib, io",
        "import newmansum.cli",
        "from newmansum import core",
        "assert len(core._TABLES) == 0, core._TABLES",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert newmansum.cli.main(['eval', '19']) == 0",
        "assert len(core._TABLES) == 1, core._TABLES",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr


def test_commands_import_no_mpmath():
    # the exact bounds and deltas are evaluated in the standard library's
    # decimal: no command reaches for mpmath
    code = "\n".join([
        "import contextlib, io, os, sys, tempfile",
        "import newmansum.cli",
        "out = os.path.join(tempfile.mkdtemp(), 'rows.csv')",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['eval', '500000'], ['verify', '--max', '1000'],",
        "                 ['bounds', '--max', '1000'],",
        "                 ['scan', '--from', '2', '--to', '300', '--out', out]):",
        "        assert newmansum.cli.main(argv) == 0, argv",
        "os.unlink(out)",
        "os.rmdir(os.path.dirname(out))",
        "assert 'mpmath' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- packaging

def _package_env():
    """The environment with the imported package's directory first on
    PYTHONPATH, so that a ``python -m newmansum`` child runs the code
    under test."""
    path = [os.path.dirname(newmansum.__path__[0])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "newmansum", "eval", "19"],
        capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def _close_after_first_line(argv):
    """Run ``python -m newmansum argv``, close its stdout after the first
    line and return (exit code, first line, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "newmansum", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), first, err


def test_closed_stdout_exits_2_without_traceback():
    # eta prints about 380 kB here, more than a pipe holds, so the writer
    # is still printing when the reader goes away after the first line
    code, first, err = _close_after_first_line(["eta", "--max", "20001"])
    assert code == 2
    assert first.split() == [b"x", b"defined", b"derived", b"half", b"status"]
    assert err == b""


def test_closed_stdout_during_trace_exits_2_without_traceback():
    # about 3 MB of trace, written in pieces after the first line
    N = random.Random(4096).getrandbits(4096) | 1 << 4095
    code, first, err = _close_after_first_line(["eval", hex(N), "--trace"])
    assert code == 2
    assert first == f"{core.newman_sum_recursive(N)}\n".encode()
    assert err == b""


# eta writes about 38 kB here, more than stdout's buffer, so a full device
# fails a write inside the command, not only the flush at its end
_STDOUT_COMMANDS = [["eval", "5"], ["eval", "5", "--trace"], ["verify", "--max", "300"],
                    ["eta", "--max", "2001"], ["bounds", "--max", "100"],
                    ["bench", "--exponents", "4"]]

_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="needs the /dev/full device")


def _run_without_stdout(argv, stdout):
    """Run ``python -m newmansum argv`` with stdout on /dev/full (``"full"``)
    or closed at start (``"closed"``); return (exit code, stderr)."""
    def close_stdout():
        os.close(1)

    cmd = [sys.executable, "-m", "newmansum", *argv]
    if stdout == "full":
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE,
                                  env=_package_env())
    else:
        proc = subprocess.run(cmd, stderr=subprocess.PIPE, env=_package_env(),
                              preexec_fn=close_stdout)
    return proc.returncode, proc.stderr


@_NO_DEV_FULL
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=" ".join)
def test_full_stdout_exits_2_with_one_error_line(argv):
    code, err = _run_without_stdout(argv, "full")
    assert code == 2
    assert err == f"error: stdout: {os.strerror(errno.ENOSPC)}\n".encode()


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=" ".join)
def test_stdout_closed_at_start_exits_2_with_one_error_line(argv):
    code, err = _run_without_stdout(argv, "closed")
    assert code == 2
    assert err == f"error: stdout: {os.strerror(errno.EBADF)}\n".encode()


@pytest.mark.parametrize("stdout", [pytest.param("full", marks=_NO_DEV_FULL), "closed"])
def test_scan_to_its_file_needs_no_stdout(tmp_path, stdout):
    out = tmp_path / "rows.csv"
    code, err = _run_without_stdout(["scan", "--from", "2", "--to", "5", "--out", str(out)],
                                    stdout)
    assert (code, err) == (0, b"")
    assert out.read_text().splitlines() == [cli._CSV_HEADER] + [
        cli._csv_row(rec) for rec in analysis.scan(2, 5)]


def _run_without_stderr(argv, stderr, env=None):
    """Run ``python -m newmansum argv`` with stderr on /dev/full (``"full"``)
    or closed at start (``"closed"``); return (exit code, stdout)."""
    def close_stderr():
        os.close(2)

    cmd = [sys.executable, "-m", "newmansum", *argv]
    env = {**_package_env(), **(env or {})}
    if stderr == "full":
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=full, env=env)
    else:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              preexec_fn=close_stderr)
    return proc.returncode, proc.stdout


_STDERR = [pytest.param("full", marks=_NO_DEV_FULL), "closed"]


@pytest.mark.parametrize("stderr", _STDERR)
@pytest.mark.parametrize("argv", [["eval", "5", "--trace", "--algorithm", "oracle"],
                                  ["eval", "5", "--trace", "--residue", "1"],
                                  ["scan", "--from", "5", "--to", "2", "--out", "rows.csv"],
                                  ["bounds", "--max", "1"]], ids=" ".join)
def test_usage_error_exits_64_without_stderr(argv, stderr):
    # the error line cannot be written; the usage error keeps its own code
    assert _run_without_stderr(argv, stderr) == (64, b"")


@pytest.mark.parametrize("stderr", _STDERR)
def test_cap_error_exits_2_without_stderr(stderr):
    assert _run_without_stderr(["verify", "--max", "5"], stderr,
                               {"NEWMANSUM_ORACLE_CAP": "bad"}) == (2, b"")


@pytest.mark.parametrize("stderr", _STDERR)
def test_scan_file_error_exits_2_without_stderr(tmp_path, stderr):
    out = tmp_path / "missing" / "rows.csv"
    assert _run_without_stderr(["scan", "--from", "2", "--to", "5", "--out", str(out)],
                               stderr) == (2, b"")
