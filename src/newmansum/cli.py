"""Command-line front end.

Subcommands: eval, verify, scan, bounds, eta, bench.  Exit codes follow
the contract {0 ok, 1 verification failure, 2 I/O or cap error, 64 usage
error}.  All output except bench timings is byte-deterministic.

``main`` builds its argument parser once per process, on its first call,
and every later call reuses it; importing this module builds none.
"""

import argparse
import contextlib
import decimal
import errno
import os
import sys
import tempfile
from array import array
from collections import deque
from decimal import Decimal

from . import analysis, core, oracle, verify

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _error(message: str) -> None:
    """Write ``error: message`` to stderr.  A failed write, or a stderr
    closed at start (None), is ignored, as argparse ignores it, so that the
    command keeps its own exit code."""
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(f"error: {message}\n")


@contextlib.contextmanager
def _any_length_ints():
    """Lift CPython's limit on int<->decimal string conversions for the
    duration, restoring the caller's setting afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):   # Python without the limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _natural(text: str) -> int:
    s = text.strip().lower()
    try:
        if s.startswith("0x"):
            value = int(s[2:], 16)
        elif s.startswith("0b"):
            value = int(s[2:], 2)
        else:
            value = int(s, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a natural number: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _exponents(text: str) -> list:
    try:
        exps = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad exponent list: {text!r}")
    if not exps or any(e < 0 for e in exps):
        raise argparse.ArgumentTypeError("exponents must be nonnegative integers")
    return exps


def _scaled_powers_of_3(terms):
    """Decimal c * 3^j for each (c, j) of terms, j never increasing, all
    from one power of 3 divided down as j falls.

    A fall of j is one short division by an int power of 3, and a c of
    +-1 takes the power or its negation, with no product.  str() of a
    Decimal is linear in its length, where str() of an int is quadratic.
    Needs core's exact context, core._EXACT.
    """
    power = top = None
    for c, j in terms:
        if power is None:
            power, top = Decimal(3) ** j, j
        elif j < top:
            power, top = power // 3 ** (top - j), j
        yield power if c == 1 else -power if c == -1 else power * c


def _write_sum_line(terms, total_text: str) -> None:
    """Write t_0+t_1...=total from Decimal terms, one term with its sign
    at a time, so that the line is never held whole; an empty sum is
    written as 0."""
    write = sys.stdout.write
    first = True
    for term in terms:
        text = str(term)
        write(text if first or text[0] == "-" else "+" + text)
        first = False
    if first:
        write("0")
    write(f"={total_text}\n")


def _write_recursion_trace(N: int, total_text: str) -> None:
    write = sys.stdout.write
    corrections = core.recursion_trace(N)
    with decimal.localcontext(core._EXACT):
        n = Decimal(N)
        n_text = str(n)
        for c in corrections:
            n //= 4
            quarter_text = str(n)
            write(f"S({n_text}) = 3*S({quarter_text}) "
                  f"{'+' if c >= 0 else '-'} {abs(c)}\n")
            n_text = quarter_text
        # S(N) = sum of 3^k * c(N >> 2k), written from the top level down
        top = len(corrections) - 1
        _write_sum_line(_scaled_powers_of_3(
            (c, top - i) for i, c in enumerate(reversed(corrections)) if c), total_text)


def _write_decomposition_trace(N: int, total_text: str) -> None:
    write = sys.stdout.write
    # each term line is written as its term is made, and the terms' (c, j)
    # are kept in two arrays, 9 bytes a term, for the sum line.  The line's
    # values come from those arrays too, each (c, j) read just after it is
    # appended: an array's iterator reads the items appended since it began.
    coefficients, exponents = array("b"), array("q")
    with decimal.localcontext(core._EXACT):
        values = _scaled_powers_of_3(zip(coefficients, exponents))
        for desc, c, j in core._decomposition_terms(N):
            coefficients.append(c)
            exponents.append(j)
            write(f"{desc} = {next(values)}\n")
        _write_sum_line(_scaled_powers_of_3(zip(coefficients, exponents)), total_text)


def _cmd_eval(args) -> int:
    N = args.number
    if args.trace and args.algorithm == "oracle":
        _error("--trace needs --algorithm decomposition or recursive")
        return 64
    if args.trace and args.residue != 0:
        _error("--trace is only available for residue 0")
        return 64

    if args.algorithm == "oracle":
        value = oracle.oracle_sum(3, args.residue, N)
    else:
        # a long N's value is a Decimal, never an int turned into text
        value = core._residue(args.residue, N, args.algorithm, exact=True)

    value_text = str(value)
    print(value_text)
    if args.trace:
        if args.algorithm == "decomposition":
            _write_decomposition_trace(N, value_text)
        else:
            _write_recursion_trace(N, value_text)
    return 0


def _cmd_verify(args) -> int:
    rep = verify.run_core_checks(args.max)
    print(f"range: 0..{args.max}")
    print(f"{rep.checks} checks, {len(rep.failures)} failures")
    if rep.failures:
        name, witness = rep.failures[0]
        print(f"first failure: {name} at N={witness}")
        return 1
    return 0


_CSV_HEADER = "N,S,delta,lower,upper,in_bounds"


def _csv_row(rec) -> str:
    upper = "" if rec.upper is None else str(rec.upper)
    flag = "true" if rec.in_bounds else "false"
    return (f"{rec.N},{rec.S},{rec.delta_text},"
            f"{rec.lower},{upper},{flag}")


def _cmd_scan(args) -> int:
    if not 1 <= args.start < args.stop:
        _error("need 1 <= --from < --to")
        return 64
    out = os.path.abspath(args.out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out), prefix=".scan-",
                                   suffix=".csv")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(_CSV_HEADER + "\n")
            for rec in analysis.scan(args.start, args.stop, args.step):
                fh.write(_csv_row(rec) + "\n")
        os.replace(tmp, out)
        tmp = None
    except OSError as exc:
        # named by the path given, not the temporary file's random name
        _error(f"{args.out}: {exc.strerror or exc}")
        return 2
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return 0


def _cmd_bounds(args) -> int:
    if args.max < 2:
        _error("--max must be >= 2")
        return 64
    rep = verify.bounds_sweep(args.max)
    print(f"scanned N in [1, {args.max}]")
    print(f"bound violations: {len(rep.bound_violations)}")
    print(f"newman inequality violations: {len(rep.newman_violations)}")
    print("lower bound attained at: "
          + (", ".join(str(n) for n in rep.lower_attained) or "none"))
    print("upper bound attained at: "
          + (", ".join(str(n) for n in rep.upper_attained) or "none"))
    if not rep.ok:
        first = (rep.bound_violations or [(rep.newman_violations[0],)])[0]
        print(f"first violation: N={first[0]}")
        return 1
    return 0


def _cmd_eta(args) -> int:
    print(f"{'x':>6} {'defined':>8} {'derived':>8} {'half':>6}  status")
    for x in range(1, args.max + 1, 2):
        row = analysis.eta_row(x)
        half = analysis.eta_half(row.x)
        status = "ok" if row.agree else "MISMATCH"
        print(f"{row.x:>6} {row.eta_defined:>+8d} {row.eta_derived:>+8d} "
              f"{half:>+6d}  {status}")
    return 0


def _cmd_bench(args) -> int:
    import timeit       # here, so that no other command's start-up pays for it
    cap = oracle.oracle_cap()
    for e in args.exponents:
        N = 2 ** e
        td = min(timeit.repeat(lambda: core.newman_sum_decomposition(N), number=1, repeat=5))
        tr = min(timeit.repeat(lambda: core.newman_sum_recursive(N), number=1, repeat=5))
        if N <= cap:
            to = f"{timeit.timeit(lambda: oracle.oracle_sum(3, 0, N), number=1) * 1e3:.3f} ms"
        else:
            to = "n/a (over cap)"
        print(f"N=2^{e}: decomposition {td * 1e3:.3f} ms, "
              f"recursive {tr * 1e3:.3f} ms, oracle {to}")
    limit = min(10 ** 6, cap)
    # a zero-length deque drops each chunk as it arrives
    dt = timeit.timeit(lambda: deque(oracle._prefix_chunks(3, 0, limit), maxlen=0), number=1)
    print(f"prefix scan to {limit}: {dt * 1e3:.1f} ms")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="newmansum",
                     description="Exact Newman digit sum evaluation and verification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate S_{3,l}(N)")
    p.add_argument("number", metavar="N", type=_natural,
                   help="decimal, 0x... or 0b..., any length")
    p.add_argument("--algorithm", choices=["decomposition", "recursive", "oracle"],
                   default="recursive")
    p.add_argument("--residue", type=int, choices=[0, 1, 2], default=0)
    p.add_argument("--trace", action="store_true",
                   help="print the term-by-term expansion")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run the core invariant suite")
    p.add_argument("--max", type=_natural, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="write a CSV of N,S,delta,bounds rows")
    p.add_argument("--from", dest="start", type=_positive, required=True)
    p.add_argument("--to", dest="stop", type=_positive, required=True)
    p.add_argument("--step", type=_positive, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("bounds", help="sweep the sharp bounds, report attainment")
    p.add_argument("--max", type=_natural, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("eta", help="correction-term comparison table")
    p.add_argument("--max", type=_positive, required=True)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("bench", help="time both algorithms and the oracle")
    p.add_argument("--exponents", type=_exponents, required=True,
                   help="comma-separated bit sizes, e.g. 20,64,256")
    p.set_defaults(func=_cmd_bench)

    return parser


# Built by the first main call and reused by every later one; building it
# at import would add its build time to every import of this module.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    with _any_length_ints():
        args = _parser.parse_args(argv)
        try:
            return args.func(args)
        except (oracle.OracleCapError, analysis.PrecisionCapError) as exc:
            _error(str(exc))
            return 2


class _ClosedStdout:
    """Stands in for a stdout closed at start (``sys.stdout`` is None): a
    write fails as one to a closed descriptor does, and a command that
    writes nothing there, such as a scan to its --out file, runs as usual."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass


def run() -> None:
    closed = sys.stdout is None
    if closed:
        sys.stdout = _ClosedStdout()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # A write or flush of stdout failed: the reader closed the pipe, the
        # device is full or stdout is closed.  Point fd 1 at devnull so that
        # the interpreter's final flush of what stdout still holds is quiet,
        # and report an I/O error; a closed pipe is the reader's choice and
        # gets no message.
        if not closed:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _error(f"stdout: {exc.strerror or exc}")
        code = 2
    sys.exit(code)
