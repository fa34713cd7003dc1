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
a single N.  A correct prefix is equal at 3k+1, 3k+2 and 3k+3, as
S_{3,0}(x) counts only the multiples of 3 below x; two strided
comparisons check that on each block, and the block's minimum and maximum
are then read from the entries at multiples of 3 and its last.  Where
they equal the recursion's, the block holds no violation and no
attainment; where a step is not flat, the extremes differ, or the block
is a single N, each entry is read and compared with the recursion once.
So every block's extremes are checked against the recursion, which keeps
the bounds verdict sound; ``run_core_checks`` is the per-N cross-check.

Both sweeps read the oracle prefix as a stream of fixed chunks, in
ascending order, so their memory is bounded by the chunk size, not by
the range.  ``run_core_checks`` reads each oracle class in one pass,
S_{3,0} beside one stride-2 stream of its own for quadrupling, and no
stream outlives its pass; ``bounds_sweep`` lets go of each chunk before
the next one is built.
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
    each oracle class in one ascending pass."""
    max_n = core._at_least(max_n, 0, "run_core_checks needs max_n")
    rep = CheckReport()
    # each loop counts its checks once, and the core functions are read
    # once per run, not at import, so that a function replaced in core
    # after import is the one checked
    fail = rep.failures.append
    decomposition, recursive = core.newman_sum_decomposition, core.newman_sum_recursive
    boundary_term = core.boundary_term

    # S_{3,0}: both fast algorithms against the oracle at every N, the
    # one-point boundary term S(N) - S(N - 1) at odd N, and quadrupling
    # S(4y) = 3*S(y) at N = 4y for even y <= q_max, S(y) read from a
    # stride-2 stream of its own
    q_max = min(max_n // 4, 2 ** 14)
    q_end, before = 4 * q_max, 0
    evens = islice(_entries(3, 0, q_max), 0, None, 2)
    for N, S in enumerate(_entries(3, 0, max_n)):
        if decomposition(N) != S:
            fail(("decomposition-vs-oracle", N))
        if recursive(N) != S:
            fail(("recursion-vs-oracle", N))
        if N & 1:
            if boundary_term(N) != S - before:
                fail(("boundary-term", N))
        elif not N & 7 and N <= q_end and 3 * next(evens) != S:
            fail(("quadrupling", N >> 2))
        before = S
    del evens       # its last chunk is not alive in the later passes
    rep.checks += 2 * (max_n + 1) + (max_n + 1) // 2 + q_max // 2 + 1

    # alternating exponent sum is congruent to its argument mod 3
    alt_exponent_sum = core.alt_exponent_sum
    for y in range(1, max_n + 1):
        if alt_exponent_sum(y) % 3 != y % 3:
            fail(("alt-exponent-congruence", y))
    rep.checks += max_n

    # closed forms for the primitive intervals
    n_hi = min(18, max(max_n.bit_length() - 1, 0))
    power_sum, dyadic_sum = core.power_sum, core.dyadic_sum
    for m in range(n_hi + 1):
        if power_sum(m) != oracle.oracle_sum(3, 0, 2 ** m):
            fail(("power-closed-form", m))
    for n in range(2, n_hi + 1):
        parity = "even" if n % 2 == 0 else "odd"
        for m in range(1, n):
            if dyadic_sum(parity, m) != oracle.oracle_interval_sum(3, 0, 2 ** n, 2 ** n + 2 ** m):
                fail(("dyadic-closed-form", (n, m)))
    rep.checks += n_hi + 1 + n_hi * (n_hi - 1) // 2

    # the full Thue-Morse sum over an even prefix vanishes
    for x, S in zip(range(0, max_n + 1, 2), islice(_entries(1, 0, max_n), 0, None, 2)):
        if S:
            fail(("balance", x))
    rep.checks += max_n // 2 + 1

    # residue-class combinations against their own enumerations, and at
    # even N the partition S_{3,0} + S_{3,1} + S_{3,2} = 0
    cap_r = min(max_n, 4096)
    residue_sum = core.residue_sum
    for N, S1, S2 in zip(range(cap_r + 1), _entries(3, 1, cap_r), _entries(3, 2, cap_r)):
        r1, r2 = residue_sum(1, N), residue_sum(2, N)
        if r1 != S1:
            fail(("residue-one", N))
        if r2 != S2:
            fail(("residue-two", N))
        if not N & 1 and residue_sum(0, N) + r1 + r2:
            fail(("residue-partition", N))
    rep.checks += 2 * (cap_r + 1) + cap_r // 2 + 1

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


def _block_extremes(piece, a):
    """(least, greatest) of ``piece``, the prefix entries S(a), ...,
    S(a + len(piece) - 1) of a block at least 4 wide, or None where an
    entry at x = 1 or 2 (mod 3) differs from the one at x + 1.

    S_{3,0}(x) counts only the multiples of 3 below x, so a correct prefix
    is equal at 3k+1, 3k+2 and 3k+3.  The two strided comparisons check
    that in C; where it holds, every entry equals one at a multiple of 3 or
    the last, and only those are read.
    """
    n = len(piece)
    for r in (1, 2):
        i = (r - a) % 3
        if piece[i:n - 1:3] != piece[i + 1::3]:
            return None
    steps, last = piece[-a % 3::3], piece[-1]
    return min(min(steps), last), max(max(steps), last)


def bounds_sweep(max_n: int) -> BoundsReport:
    """Verify the sharp bounds and Newman's inequality for 1 <= N <= max_n.

    S values come from the enumeration oracle.  Each block of
    ``analysis.bound_blocks`` has its steps checked flat and the oracle's
    extremes checked against the recursion's (``_block_extremes``).  Every
    entry of a single-N block, of one that fails either check, and every
    multiple of _SPOT_STEP in a whole one, is read and compared with the
    recursion once; at a multiple of _SPOT_STEP the bounds are compared
    with their decimal-only evaluation too.

    The prefix is read in one ascending pass, faults included, and no block
    read is wider than a chunk: blocks are capped at 4^top entries, the
    largest power of 4 dividing ``oracle._CHUNK``, and a block starts at a
    multiple of its width, so it lies inside one chunk.  A chunk and its
    views are dropped before the next chunk is built, so the sweep holds
    one chunk and that build.
    """
    max_n = core._at_least(max_n, 2, "bounds_sweep needs max_n")
    chunks = oracle._prefix_chunks(3, 0, max_n)     # checks the cap before any work
    top = ((oracle._CHUNK & -oracle._CHUNK).bit_length() - 1) // 2
    start = end = 0
    lam = analysis.LAMBDA
    rep = BoundsReport(max_n)
    for a, b, smin, smax in analysis.bound_blocks(max_n, _top=top):
        rep.checks += 2 * (b - a)
        while a >= end:
            chunk = piece = entries = None      # not alive while the next is built
            start, chunk = next(chunks)
            end = start + len(chunk)
        piece = memoryview(chunk)[a - start:b - start]
        whole = b - a > 1 and _block_extremes(piece, a) == (smin, smax)
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
