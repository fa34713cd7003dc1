"""Verification sweeps: every identity the library relies on, checked
against the brute-force oracle over a configurable range.

``run_core_checks`` is the invariant suite behind the CLI ``verify``
command: algorithm-vs-oracle equivalence, the mod-3 congruence of the
alternating exponent sum, the closed forms for power and dyadic
intervals, the one-point boundary term, the balance and quadrupling
identities, and the residue-class combinations.

``bounds_sweep`` checks the sharp bounds floor(2*(N/6)^lam) <= S_{3,0}(N)
<= ceil((55/3)*(N/65)^lam) and Newman's inequality over a full range.
It walks the 4-adic blocks of ``analysis.bound_blocks`` rather than
visiting every N: the recursion's least and greatest S on each block clear
both bounds strictly, and with them Newman's inequality, or the block is
a single N.  One pass over the oracle prefix takes each block's minimum
and maximum.  Where they equal the recursion's, the block holds no
violation and no attainment; where they differ, or the block is a single
N, each entry is read and compared with the recursion once.  So every
block's extremes are checked against the recursion, which keeps the bounds
verdict sound; ``run_core_checks`` is the per-N cross-check.

Both sweeps read the oracle prefix as a stream of fixed chunks, in
ascending order, so their memory is bounded by the chunk size, not by
the range; ``run_core_checks`` makes one plain pass per identity.
"""

from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

from . import analysis, core, oracle

__all__ = ["CheckReport", "run_core_checks", "BoundsReport", "bounds_sweep"]


@dataclass
class CheckReport:
    checks: int = 0
    failures: list = field(default_factory=list)  # (check name, witness)

    def note(self, ok: bool, name: str, witness) -> None:
        self.checks += 1
        if not ok:
            self.failures.append((name, witness))

    @property
    def ok(self) -> bool:
        return not self.failures


def _entries(modulus, residue, limit):
    """S_{modulus,residue}(x), x = 0..limit, entry by entry, holding one
    chunk; the arguments and the cap are checked at the call."""
    return chain.from_iterable(map(itemgetter(1),
                                   oracle._prefix_chunks(modulus, residue, limit)))


def run_core_checks(max_n: int) -> CheckReport:
    """Run the core invariant suite for all arguments up to max_n, reading
    the oracle in one ascending pass per identity."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    rep = CheckReport()
    fail = rep.failures.append   # the two hottest loops count their checks once

    # both fast algorithms against the enumeration oracle
    for N, want in enumerate(_entries(3, 0, max_n)):
        if core.newman_sum_decomposition(N) != want:
            fail(("decomposition-vs-oracle", N))
        if core.newman_sum_recursive(N) != want:
            fail(("recursion-vs-oracle", N))
    rep.checks += 2 * (max_n + 1)

    # alternating exponent sum is congruent to its argument mod 3
    for y in range(1, max_n + 1):
        if core.alt_exponent_sum(y) % 3 != y % 3:
            fail(("alt-exponent-congruence", y))
    rep.checks += max_n

    # closed forms for the primitive intervals
    n_hi = min(18, max(max_n.bit_length() - 1, 0))
    for m in range(n_hi + 1):
        want = oracle.oracle_sum(3, 0, 2 ** m)
        rep.note(core.power_sum(m) == want, "power-closed-form", m)
    for n in range(2, n_hi + 1):
        parity = "even" if n % 2 == 0 else "odd"
        for m in range(1, n):
            want = oracle.oracle_interval_sum(3, 0, 2 ** n, 2 ** n + 2 ** m)
            rep.note(core.dyadic_sum(parity, m) == want, "dyadic-closed-form", (n, m))

    # one-point boundary term for odd arguments: entries N - 1 and N
    entries = _entries(3, 0, max_n)
    for N, before, S in zip(range(1, max_n + 1, 2), entries, entries):
        rep.note(core.boundary_term(N) == S - before, "boundary-term", N)

    # the full Thue-Morse sum over an even prefix vanishes
    for x, S in zip(range(0, max_n + 1, 2), islice(_entries(1, 0, max_n), 0, None, 2)):
        rep.note(S == 0, "balance", x)

    # quadrupling: S([0,4y)) = 3*S([0,y)) for even y
    q_max = min(max_n // 4, 2 ** 14)
    evens = islice(_entries(3, 0, q_max), 0, None, 2)
    quads = islice(_entries(3, 0, 4 * q_max), 0, None, 8)
    for y, S, S4 in zip(range(0, q_max + 1, 2), evens, quads):
        rep.note(S4 == 3 * S, "quadrupling", y)

    # residue-class combinations against their own enumerations; the
    # partition reuses the class-1 and class-2 sums of even N
    cap_r = min(max_n, 4096)
    totals = []
    for N, S1, S2 in zip(range(cap_r + 1), _entries(3, 1, cap_r), _entries(3, 2, cap_r)):
        r1, r2 = core.residue_sum(1, N), core.residue_sum(2, N)
        rep.note(r1 == S1, "residue-one", N)
        rep.note(r2 == S2, "residue-two", N)
        if N % 2 == 0:
            totals.append(r1 + r2)
    for N, total in zip(range(0, cap_r + 1, 2), totals):
        rep.note(core.residue_sum(0, N) + total == 0, "residue-partition", N)

    return rep


@dataclass
class BoundsReport:
    max_n: int
    checks: int = 0
    bound_violations: list = field(default_factory=list)   # (N, S, lower, upper)
    newman_violations: list = field(default_factory=list)  # N
    lower_attained: list = field(default_factory=list)
    upper_attained: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bound_violations and not self.newman_violations


_SPOT_STEP = 9973   # every _SPOT_STEP-th N checks the bounds against their decimal path


def bounds_sweep(max_n: int) -> BoundsReport:
    """Verify the sharp bounds and Newman's inequality for 1 <= N <= max_n.

    S values come from the enumeration oracle.  Each block of
    ``analysis.bound_blocks`` has the oracle's extremes checked against the
    recursion's.  Every entry of a single-N or disagreeing block, and every
    multiple of _SPOT_STEP in a whole one, is read and compared with the
    recursion once; at a multiple of _SPOT_STEP the bounds are compared
    with their decimal-only evaluation too.

    The prefix is read in one ascending pass, faults included, and no block
    read is wider than a chunk: blocks are capped at 4^top entries, the
    largest power of 4 dividing ``oracle._CHUNK``, and a block starts at a
    multiple of its width, so it lies inside one chunk.
    """
    if max_n < 2:
        raise ValueError("bounds_sweep needs max_n >= 2")
    chunks = oracle._prefix_chunks(3, 0, max_n)     # checks the cap before any work
    top = ((oracle._CHUNK & -oracle._CHUNK).bit_length() - 1) // 2
    start, chunk = 0, ()
    lam = analysis.LAMBDA
    rep = BoundsReport(max_n)
    for a, b, smin, smax in analysis.bound_blocks(max_n, _top=top):
        rep.checks += 2 * (b - a)
        while a >= start + len(chunk):
            start, chunk = next(chunks)
        piece = memoryview(chunk)[a - start:b - start]
        whole = b - a > 1 and min(piece) == smin and max(piece) == smax
        if whole:
            entries = [(N, piece[N - a]) for N in range(a + -a % _SPOT_STEP, b, _SPOT_STEP)]
        else:
            entries = enumerate(piece, a)
        for N, S in entries:
            if core.newman_sum_recursive(N) != S:
                rep.bound_violations.append((N, S, "recursion-mismatch", None))
            lo = analysis.lower_bound(N)
            hi = analysis.upper_bound(N) if N >= 2 else None
            if N % _SPOT_STEP == 0:
                rep.checks += 2
                if (analysis._exact_round(N, *analysis._LOWER) != lo or (hi is not None
                        and analysis._exact_round(N, *analysis._UPPER) != hi)):
                    rep.bound_violations.append((N, S, "fast-path-mismatch", None))
            if whole:
                continue
            if S < lo or (hi is not None and S > hi):
                rep.bound_violations.append((N, S, lo, hi))
            if hi is not None:      # attainment is recorded from N = 2
                if S == lo:
                    rep.lower_attained.append(N)
                if S == hi:
                    rep.upper_attained.append(N)
            # Newman's inequality 1/20 < S * N^-lam < 5; the ratio never
            # comes within 0.3 of either endpoint, so a float is ample
            if not 0.05 < S / N ** lam < 5.0:
                rep.newman_violations.append(N)

    return rep
