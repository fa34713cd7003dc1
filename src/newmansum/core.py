"""Exact evaluation of Newman digit sums.

The central object is

    S_{m,l}(x) = sum of (-1)^sigma(n) over 0 <= n < x with n = l (mod m),

where sigma(n) is the number of ones in the binary expansion of n, so
(-1)^sigma(n) is the Thue-Morse sign of n.  For m = 3, l = 0 this sum is
always positive (Newman's phenomenon) and grows like x^(ln3/ln4).

Two exact evaluators for S_{3,0} are provided, both far faster than the
O(x) enumeration in :mod:`newmansum.oracle`:

* ``newman_sum_decomposition`` walks the binary expansion of x and reduces
  each interval between set bits to a closed-form primitive (a power
  interval [0, 2^m) or a dyadic interval [2^n, 2^n + 2^m)), selected by a
  six-way case split on the alternating exponent sum of the prefix.
* ``newman_sum_recursive`` applies the divide-by-four recursion
  S(N) = 3*S(N//4) + c(N) whose correction term c(N) depends only on
  N mod 24 and the Thue-Morse sign of N.

Both algorithms take O(log x) steps.  Each evaluator runs its steps as a
finite-state transducer: it finds the small digits d_j of
S_{3,0}(x) = sum of d_j * 3^j in one pass over the bytes of x, summed on
one of two paths.  An x below 2^16 takes two table lookups and no loop: it
is read as two bytes, the top one zero for x < 2^8, which is sound because
a zero byte read in any start state outputs 0 and stays there.  Any larger
x, padded on top with zero bytes by the same rule, is read four bytes a
step into one radix-81^4 digit per step, a list a quarter as long as its
bytes, whose digits are summed by divide and conquer (``_assemble``), so
its cost is bounded by big-integer multiplication.
That merge runs on ints; for the CLI's printed value its levels from
``_DECIMAL_BITS`` on run in ``Decimal``, in the exact context ``_EXACT``
that this module enters itself, and the text of that value is linear in
its length where int->str is quadratic.
``decomposition_terms`` and ``recursion_trace`` run the same transducer
steps one set bit or one digit at a time and return its small outputs, the
terms c * 3^j, for display; the decomposition's terms are made one at a
time, so that a trace can write each and drop it.

Sums over the other residue classes mod 3 are the same transducers
started in another state, one per class l, so S_{3,l} is one scan like
S_{3,0}.  Those mod 6 and mod 3*2^m map onto a class mod 3 by doubling or by
dropping low bits.  They are exposed as ``residue_sum``,
``six_residue_sum`` and ``scaled_residue_sum``.

Everything operates on arbitrary-precision integers; no operation here is
limited to machine-word range.
"""

from array import array
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from operator import index

__all__ = [
    "digit_sum",
    "thue_morse_sign",
    "bit_exponents",
    "alt_exponent_sum",
    "classify_prefix",
    "power_sum",
    "dyadic_sum",
    "boundary_term",
    "newman_sum_decomposition",
    "decomposition_terms",
    "recursion_correction",
    "newman_sum_recursive",
    "recursion_trace",
    "residue_sum",
    "six_residue_sum",
    "scaled_residue_sum",
]


def _at_least(n, least: int, what: str) -> int:
    """index(n), checked to be at least ``least``; below it, raises
    ValueError(f"{what} >= {least}")."""
    # newman_sum_decomposition, newman_sum_recursive and alt_exponent_sum keep
    # their checks inline, and _run reads its tables from _TABLES rather than
    # through a call: verify.run_core_checks calls each once per N
    n = index(n)
    if n < least:
        raise ValueError(f"{what} >= {least}")
    return n


def digit_sum(n: int) -> int:
    """Number of ones in the binary expansion of n (the binary digit sum)."""
    n = _at_least(n, 0, "digit_sum needs n")
    return n.bit_count()


def thue_morse_sign(n: int) -> int:
    """(-1)^digit_sum(n): +1 when n has evenly many binary ones, else -1."""
    n = _at_least(n, 0, "thue_morse_sign needs n")
    return -1 if n.bit_count() & 1 else 1


def bit_exponents(x: int) -> list:
    """Exponents of the set bits of x, largest first.

    The powers 2^k over the returned exponents sum back to x exactly.
    """
    x = _at_least(x, 0, "bit_exponents needs x")
    top = x.bit_length() - 1
    return [top - i for i, bit in enumerate(format(x, "b")) if bit == "1"]


def alt_exponent_sum(y: int) -> int:
    """Alternating sum of (-1)^k over the set-bit exponents k of y.

    Congruent to y mod 3, which is what makes it drive the six-way
    interval reduction.  Undefined for y = 0 (empty expansion).
    """
    y = index(y)
    if y < 1:
        raise ValueError("alt_exponent_sum needs y >= 1")
    # (4^k - 1) // 3 has ones in the k even bit positions below 2k
    even = (y & (1 << (y.bit_length() + 2 & -2)) // 3).bit_count()
    return 2 * even - y.bit_count()


def classify_prefix(y: int) -> int:
    """The class alt_exponent_sum(y) mod 6, normalized into 0..5."""
    return alt_exponent_sum(y) % 6


def power_sum(m: int) -> int:
    """S_{3,0}(2^m): 2*3^(m/2 - 1) for even m >= 2, 3^((m-1)/2) for odd m.

    m = 0 is the single summand n = 0, so S_{3,0}(1) = 1.
    """
    m = _at_least(m, 0, "power_sum needs m")
    if m == 0:
        return 1
    if m % 2 == 0:
        return 2 * 3 ** (m // 2 - 1)
    return 3 ** ((m - 1) // 2)


def dyadic_sum(n_parity: str, m: int) -> int:
    """S_{3,0}([2^n, 2^n + 2^m)) for any n > m of the given parity.

    The value depends only on the parities: 3^(m/2 - 1) for even m,
    3^((m-1)/2) for odd m with odd n, and 0 for odd m with even n.
    m = 0 is outside this closed form; single-point intervals are handled
    by ``boundary_term``.
    """
    m = _at_least(m, 1, "dyadic_sum needs m")
    if n_parity not in ("even", "odd"):
        raise ValueError("n_parity must be 'even' or 'odd'")
    if m % 2 == 0:
        return 3 ** (m // 2 - 1)
    if n_parity == "odd":
        return 3 ** ((m - 1) // 2)
    return 0


# How S_{3,0}([y, y + 2^m)) reduces to a closed form, by the class
# classify_prefix(y) of a prefix y whose lowest set bit lies above m >= 1:
# (sign, 'power' for [0, 2^m) or 'dyadic' for [2^n, 2^n + 2^m), parity of n).
_REDUCTION_TABLE = (
    (1, "power", None),
    (1, "dyadic", "even"),
    (-1, "dyadic", "odd"),
    (-1, "power", None),
    (-1, "dyadic", "even"),
    (1, "dyadic", "odd"),
)


def boundary_term(N: int) -> int:
    """S_{3,0}([N-1, N)) for odd N: the Thue-Morse sign of N-1 when
    N = 1 (mod 3), else 0."""
    N = index(N)
    if N < 1 or N % 2 == 0:
        raise ValueError("boundary_term needs odd N >= 1")
    return _boundary(N)


def _boundary(N, l=0):
    # S_{3,l}([N-1, N)) of an odd int N >= 1, unchecked: boundary_term for
    # l = 0; N - 1 has one binary one fewer than N, so its Thue-Morse sign is
    # the opposite of N's, counted when N - 1 = l (mod 3)
    return (1 if N.bit_count() & 1 else -1) if (N - l) % 3 == 1 else 0


def newman_sum_decomposition(x: int) -> int:
    """S_{3,0}(x) by binary decomposition.

    Splits [0, x) at the set bits of x, takes the leading power interval
    in closed form, reduces every later interval through the six-way case
    split on the running alternating exponent sum of the prefix, and
    closes an odd x with the one-point boundary term.  O(sigma(x)) closed
    forms overall, found together by one digit scan of x.
    """
    x = index(x)
    if x < 0:
        raise ValueError("newman_sum_decomposition needs x >= 0")
    return _run(x >> 1, _decomposition_step) + (_boundary(x) if x & 1 else 0)


def decomposition_terms(x: int) -> list:
    """The terms summed by ``newman_sum_decomposition``, in processing
    order (descending bits): one (description, c, j) per set bit, where
    the term is c * 3^j with c in -2..2."""
    return list(_decomposition_terms(_at_least(x, 0, "decomposition_terms needs x")))


def _decomposition_terms(x):
    # decomposition_terms of an int x >= 0, made one set bit at a time as
    # format(x, "b") is walked, so that a caller can write each term and drop it
    top = x.bit_length() - 1
    t = 0
    first = True
    for i, bit in enumerate(format(x, "b")):
        if bit == "0":
            continue
        k = top - i
        if k == 0:
            # through Decimal, which has no int->str length limit
            desc = "S(2^0)" if first else f"S([{Decimal(x - 1)},{Decimal(x)}))"
            yield desc, _boundary(x), 0
            return
        sign, form, parity = _REDUCTION_TABLE[t]
        s = "" if first else "+" if sign > 0 else "-"
        desc = (f"{s}S(2^{k})" if form == "power"
                else f"{s}S([2^n,2^n+2^{k})) n {parity}")
        c, t = _bit_term(t, k)
        first = False
        yield desc, c, (k - 1) // 2


# Correction term of the divide-by-four recursion, keyed by N mod 24, with
# the sign factor (the Thue-Morse sign of N itself) taken out.
_CORRECTION = (0, -1, -1, 1, 1, -1, -1, 0, 0, 0, 1, -1,
               1, -2, -2, 2, 0, 0, 0, -1, 1, -1, 0, 0)


def recursion_correction(N: int) -> int:
    """c(N) in S_{3,0}(N) = 3*S_{3,0}(N//4) + c(N), for N >= 1."""
    N = _at_least(N, 1, "recursion_correction needs N")
    c = _CORRECTION[N % 24]
    return -c if N.bit_count() & 1 else c


def newman_sum_recursive(N: int) -> int:
    """S_{3,0}(N) by the divide-by-four recursion.

    Unrolled, S_{3,0}(N) = sum of 3^k * c(N >> 2k) over the log4(N) levels;
    one digit scan of N finds every c(N >> 2k).
    """
    N = index(N)
    if N < 0:
        raise ValueError("newman_sum_recursive needs N >= 0")
    return _run(N, _recursion_step)


def recursion_trace(N: int) -> list:
    """The corrections c(N >> 2k) of the recursion, k = 0 first, one per
    base-4 digit of N, from one pass over the digits from the top.

    S_{3,0}(N) = sum of 3^k * c_k over the returned list.
    """
    N = _at_least(N, 0, "recursion_trace needs N")
    state = 0
    corrections = []
    for byte in N.to_bytes((N.bit_length() + 7) // 8, "big"):
        for shift in (6, 4, 2, 0):
            state, c = _recursion_step(state, byte >> shift & 3)
            corrections.append(c)
    corrections.reverse()
    del corrections[(N.bit_length() + 1) // 2:]   # the top byte's leading zeros
    return corrections


# Coefficient rows of the residue identities: row l gives
#     S_{3,l}(N) = sum of c_i * S_{3,0}(2^i N),
# one evaluation per entry, for an evaluator that is not one of the two below.
_RESIDUE_ROWS = ((1,), (1, -1), (1, 1, -1))


# residue_sum's two evaluators, named as _residue takes them, at load so that
# a caller who rebinds the public names (a test's cache, say) changes no path
_ALGORITHMS = ((newman_sum_recursive, "recursive"), (newman_sum_decomposition, "decomposition"))


def residue_sum(l: int, N: int, evaluate=newman_sum_recursive) -> int:
    """S_{3,l}(N) for l in {0, 1, 2}.

    By the divide-by-four recursion, or by ``newman_sum_decomposition`` if
    that is given as ``evaluate``, it is one digit scan of N, that
    evaluator's transducer started in the state of class l.  Any other
    evaluator of S_{3,0} is called once per entry of the rows

        S_{3,1}(N) = S(N) - S(2N)
        S_{3,2}(N) = S(N) + S(2N) - S(4N)
    """
    l, N = index(l), _at_least(N, 0, "residue_sum needs N")
    if l not in (0, 1, 2):
        raise ValueError("residue must be 0, 1 or 2")
    for known, algorithm in _ALGORITHMS:
        if evaluate is known:
            return _residue(l, N, algorithm)
    total = 0
    for c in _RESIDUE_ROWS[l]:
        total += c * evaluate(N)
        N <<= 1
    return total


def six_residue_sum(j: int, x: int, y: int) -> int:
    """S_{6,j}([2x, 2y)) for j in 0..5, by two digit scans.

    Each n = 2m + b in [2x, 2y) with b = j mod 2 has n = j (mod 6) exactly
    when m = l = 2(j - b) (mod 3), and (-1)^b times m's Thue-Morse sign, so
    S_{6,j}([2x, 2y)) = (-1)^b S_{3,l}([x, y)), the recursion's scans of y
    and x from class l's state.  As fixed combinations of S_{3,0} over
    [x,y), [2x,2y), [4x,4y) and [8x,8y), writing I_i = S([2^i x, 2^i y)):

        S_{6,0} = I_0            S_{6,1} = -I_0
        S_{6,2} = I_0 - I_1      S_{6,3} = I_1 - I_0
        S_{6,4} = I_0 + I_1 - I_2
        S_{6,5} = 2 I_1 + I_2 - I_3 - I_0   (S_{3,2} minus S_{6,2} over [2x, 2y))
    """
    j, x, y = index(j), index(x), index(y)
    if j not in range(6):
        raise ValueError("j must be in 0..5")
    if x < 0 or x > y:
        raise ValueError("need 0 <= x <= y")
    if x == y:
        return 0
    b = j & 1
    l = 2 * (j - b) % 3
    value = _residue(l, y, "recursive") - _residue(l, x, "recursive")
    return -value if b else value


def scaled_residue_sum(m: int, k: int, r: int, n: int) -> int:
    """S_{3*2^m, k*2^m + r}(2^n) for 0 <= r < 2^m and n > m.

    Dropping the low m bits maps the class onto S_{3,k}(2^(n-m)), with the
    Thue-Morse sign of the fixed low part r as a global factor.
    """
    m = _at_least(m, 0, "scaled_residue_sum needs m")
    k, r, n = index(k), index(r), index(n)
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if r < 0 or r.bit_length() > m:   # 0 <= r < 2^m without building 2^m
        raise ValueError("r must satisfy 0 <= r < 2^m")
    if n <= m:
        raise ValueError("scaled_residue_sum needs n > m")
    return thue_morse_sign(r) * residue_sum(k, 2 ** (n - m))


# ---------------------------------------------------------------- digit scan
#
# Both evaluators compute S_{3,0}(x) = sum of d_j * 3^j with small digits d_j:
# the recursion has d_k = c(x >> 2k), the decomposition adds each term
# +-{1,2} * 3^j into digit j.  Either digit sequence is the output of a
# finite-state transducer reading x one base-4 digit at a time from the top
# (S_{3,0} is 4-regular; Allouche & Shallit, Automatic Sequences, ch. 16).
# Started in another state, the same transducer gives S_{3,l}: the
# recursion's state holds N_k mod 3 for the part N_k of N from digit k up,
# and as 4 = 1 (mod 3), from state ((-l) mod 3) << 2 (0, 8 or 4) it holds
# N_k - l mod 3; the decomposition's holds the prefix class t mod 6, and
# from t = 2l (0, 2 or 4) it sums class l.  So every class is one scan.
# _byte_table extends a transducer to whole bytes, four base-4 digits at a
# time, so one pass over the bytes of x gives the digits, four per byte as
# one digit in radix 81 = 3^4, highest first.  _run sums them on one of two
# paths, both resting on one rule of both step functions: a zero byte read in
# any of the start states outputs 0 and stays there.  An x below 2^16 takes
# two lookups, with no bytes object and no loop (its top byte is zero for
# x < 2^8).  Any larger x is padded on top with zero bytes to a multiple of
# four and read four bytes a step; each step appends one radix-81^4 digit,
# below 2^30 in size and so a one-digit CPython int, and _assemble's
# pairwise merge sums the list, a quarter as long as the bytes.  This
# replaces O(log x) steps on O(log x)-bit integers by a linear scan and a
# divide-and-conquer sum whose cost is bounded by big-integer
# multiplication.  The merge's levels run on ints; _residue's exact scan,
# the CLI's, runs them from the first level whose base has _DECIMAL_BITS bits
# on in Decimal, in _EXACT, and the CLI prints that Decimal, whose str() is
# linear in its length, where CPython 3.11's int->str is quadratic.

# The package's one context for exact Decimal integer arithmetic at any length,
# entered here for core's Decimal work and used by cli's traces and analysis
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = True

# Bits of the merge base from which _assemble's exact levels run in Decimal.
# The sixth level, reached by an x of more than 32 words (128 bytes), has a
# base of 81^128, 811 bits, so the exact merge of such an x ends in a
# Decimal.  Medians of alternating timings of the
# exact scan and str() of its sum at 2 random x (41 rounds at 2^15 bits, 7
# at 2^18, 5 at 2^20; 2 vCPU, CPython 3.11.7), switching at 256 / 512 /
# 1024 / 2048 bits: 1.77 / 1.76 / 1.79 / 1.85 ms at 2^15 bits, 19.8 / 19.4
# / 18.9 / 19.9 ms at 2^18 and 106 / 98 / 104 / 110 ms at 2^20; the int
# merge with str() took 2.02, 81 and 1220 ms.  Decimal(int) is quadratic,
# and a switch at the first level took 1.93, 20.9 and 117 ms, its
# tracemalloc peak at 2^15 bits 210 KiB against 75 KiB.
_DECIMAL_BITS = 512


def _assemble(digits, base=81, exact=False) -> int:
    """sum of digits[i] * base^(n-1-i) over the n digits, highest first, by
    merging adjacent values pairwise (hi * B + lo), an odd level padded with a
    leading 0, with B = base squared at each level: the cost of a few
    big-integer products rather than one per digit.  With exact, the levels
    from the first whose B has _DECIMAL_BITS bits merge Decimal values in
    _EXACT, and the sum is a Decimal if one is reached."""
    while len(digits) > 1:
        if exact and base.bit_length() >= _DECIMAL_BITS:
            with localcontext(_EXACT):
                return _assemble([*map(Decimal, digits)], Decimal(base))
        if len(digits) % 2:
            digits = [0, *digits]
        pairs = iter(digits)
        digits = [hi * base + lo for hi, lo in zip(pairs, pairs)]
        if len(digits) > 1:
            base *= base
    return sum(digits)   # the one value left, or 0 for no digits


def _step_table(step) -> list:
    """``step(state, base-4 digit) -> (state, base-3 digit)`` as a table
    [state][digit], states 0 to the largest reached, from step's tables now."""
    table = []
    while len(table) <= max((t for row in table for t, _ in row), default=0):
        table.append([step(len(table), d) for d in range(4)])
    return table


# The byte tables of each step function, keyed by it: filled by _byte_table
# at a step's first scan, so none is built at import and there are at most
# two, one per evaluator, shared by the two summing paths of _run.
_TABLES = {}


def _byte_table(step) -> tuple:
    """Extend ``step`` to bytes, and store the tables in ``_TABLES[step]``.

    Returns arrays indexed by ``state << 8 | byte``: the state after the
    byte, shifted left by 8, and the byte's four output digits as one
    radix-81 digit d0 + 3*d1 + 9*d2 + 27*d3, d0 from the lowest bits.
    """
    # one pair stage: pairs[state][p] is (state, lo + 3*hi) after the base-4
    # digits hi, lo of p; a byte steps through its high pair, then its low pair
    table = _step_table(step)
    pairs = [[(s2, lo + 3 * hi) for s1, hi in row for s2, lo in table[s1]] for row in table]
    tables = _TABLES[step] = (
        array("H", (t << 8 for row in pairs for s, _ in row for t, _ in pairs[s])),
        array("b", (lo + 9 * hi for row in pairs for s, hi in row for _, lo in pairs[s])))
    return tables


def _run(x: int, step, start=0) -> int:
    """sum of d_j * 81^j over the radix-81 output digits d_j of ``step``'s
    byte transducer on x from the state ``start >> 8``, highest first as read
    from the top byte: by two table lookups for x < 2^16, else by _assemble
    from _words.  The tables come from _TABLES, read without a call;
    _byte_table builds them on a step's first scan."""
    try:
        next_state, out = _TABLES[step]
    except KeyError:
        next_state, out = _byte_table(step)
    if x < 65536:
        # x as two bytes, the top one 0 for x < 256: a zero byte read in any
        # start state outputs 0 and stays there, for both steps
        i = start | x >> 8
        return 81 * out[i] + out[next_state[i] | x & 255]
    return _assemble(_words(x, step, start), 81 ** 4)


def _residue(l, N, algorithm, exact=False):
    """residue_sum(l, N) of an int N >= 0 and l in 0..2 by one digit scan of
    ``algorithm``, "recursive" or "decomposition", from class l's start
    state; with exact, by the exact merge, summed in _EXACT, so a long N's
    value is an exact Decimal in any context."""
    # start is the class's start state shifted by 8, as _run and _words index
    if algorithm == "recursive":
        # state ((-l) mod 3) << 2, whose N_k mod 3 is then N_k - l mod 3
        step, x, start, total = _recursion_step, N, -l % 3 << 10, 0
    else:
        # t = 2l, from which the scan of N >> 1 gives S_{3,l}(N) for even N;
        # an odd N adds its boundary term
        step, x, start = _decomposition_step, N >> 1, l << 9
        total = _boundary(N, l) if N & 1 else 0
    if not exact:
        return total + _run(x, step, start)
    with localcontext(_EXACT):
        return total + _assemble(_words(x, step, start), 81 ** 4, True)


def _words(x: int, step, start) -> list:
    """``step``'s radix-81 output digits on x from the state ``start >> 8``,
    highest first, four bytes a step into one radix-81^4 digit, x padded on
    top with zero bytes to a multiple of four."""
    next_state, out = _TABLES.get(step) or _byte_table(step)
    data = iter(x.to_bytes(-(-x.bit_length() // 32) * 4, "big"))
    state = start
    digits = []
    for b0, b1, b2, b3 in zip(data, data, data, data):
        i = state | b0
        j = next_state[i] | b1
        k = next_state[j] | b2
        m = next_state[k] | b3
        digits.append(531441 * out[i] + 6561 * out[j] + 81 * out[k] + out[m])
        state = next_state[m]
    return digits


def _recursion_step(state, d):
    # state = (N_k mod 3) << 2 | popcount parity << 1 | low bit of the digit
    # above, for N_k the part of N from digit k up.  N_k mod 8 is d plus
    # that bit; the CRT gives N_k mod 24 from N_k mod 8 and N_k mod 3.
    m3 = (state >> 2) + d
    m3 -= 3 if m3 >= 3 else 0
    odd = (state >> 1 ^ d ^ d >> 1) & 1
    c = _CORRECTION[(9 * (d + 4 * (state & 1)) + 16 * m3) % 24]
    return m3 << 2 | odd << 1 | d & 1, -c if odd else c


# Coefficient of 3^j in the decomposition term of a set bit k >= 1 with
# j = (k - 1) // 2, by prefix class t mod 6 and k mod 2.  It is the term's
# value at k = 2 (even) or k = 1 (odd), where j = 0.
_TERM_DIGIT = tuple(
    tuple(sign * (power_sum(k) if form == "power" else dyadic_sum(parity, k))
          for k in (2, 1))
    for sign, form, parity in _REDUCTION_TABLE)


def _bit_term(t, k):
    # Set bit k >= 1 seen with t, the running alternating exponent sum mod 6:
    # the coefficient of 3^((k - 1) // 2) in its term, and t after the bit.
    # The leading bit sees t = 0, whose class gives the power interval S(2^k).
    return _TERM_DIGIT[t][k & 1], (t - 1 if k & 1 else t + 1) % 6


def _decomposition_step(t, d):
    # d holds bits 2j+2 (high) and 2j+1 (low) of x, both landing in digit j,
    # so each takes the rule of bit 2 or bit 1.
    c = 0
    for k in (2, 1):
        if d & k:
            term, t = _bit_term(t, k)
            c += term
    return t, c
