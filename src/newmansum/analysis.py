"""Growth analysis of S_{3,0}: normalized ratios, sharp bounds, extremal
sequences, and the half-integer consistency check for Coquet's correction
term.

The public functions of the growth exponent lam = ln3/ln4 (``delta``,
``coquet_ratio``, ``growth_exponent`` and the four constants) return
``decimal.Decimal`` values of 40 significant digits.  Every exact value
is one evaluation of (a/b)*x^lam, x <= 1 rational, in the standard
library's ``decimal``, whose ln and exp are correctly rounded; so the
operation count bounds its error (derived above ``_ERR_ULPS``).  The 40
digits carry that error, at most 110 units of the 40th: ``growth_exponent()``
ends in ...796 where lam ends in ...799.

``lower_bound`` and ``upper_bound``, one evaluator per sharp bound, serve
``bound_blocks``, ``verify.bounds_sweep`` and ``delta_record`` (so
``scan``), which passes its row's one float N**LAMBDA.  A bound is floored
or ceiled from an enclosure of its value that holds no integer.  The
extremal families (N = 6*4^k for the lower bound, N = 65*4^k with k >= 1
for the upper) sit exactly on integers: an enclosure holding the integer
of such a family point N0 is settled exactly at N0 and, as the bounds grow
with N, at the N next to it.  For N < 2^1023 the first enclosure is the
float N**LAMBDA widened by the error bound derived above ``_FLOAT_LIMIT``;
past it, or where that cannot tell, the value is evaluated at _GUARD
digits past its integer part, then twice the digits, and past _MAX_GUARD
digits raises ``PrecisionCapError``.  A row's delta text comes from its
float delta, widened alike, or else from that ladder past 12 digits; the
float is S/N**LAMBDA, or past 2^1023 the float of the 40-digit delta.

``bound_blocks`` walks the 4-adic blocks of the recursion transducer: a
block's least and greatest S come from a min/max dynamic program over the
transducer's states, and a block whose extremes clear the lower bound at
its last N and the upper at its first clears both, and Newman's looser
inequality, at every N in it.

The sharp constants are never hard-coded as decimals; they are evaluated
on demand from their closed forms:

    liminf  of S(N)/N^lam over N           : 2/6^lam
    limsup  of S(N)/N^lam over N >= 2      : 55/(3*65^lam)
    liminf  of S(3x)/x^lam over x          : 2/sqrt(3)
    limsup  of S(3x)/x^lam over x          : (55/3)*(3/65)^lam
"""

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from operator import index

from .core import (_EXACT, _at_least, _recursion_step, _step_table, newman_sum_recursive,
                   thue_morse_sign)

__all__ = [
    "LAMBDA",
    "PrecisionCapError",
    "growth_exponent",
    "delta_liminf",
    "delta_limsup",
    "ratio_liminf",
    "ratio_limsup",
    "delta",
    "lower_bound",
    "upper_bound",
    "coquet_ratio",
    "newman_inequality_check",
    "eta_defined",
    "eta_derived",
    "eta_half",
    "DeltaRecord",
    "delta_record",
    "bound_blocks",
    "extremal_sequences",
    "scan",
    "EtaRow",
    "eta_row",
    "eta_rows",
    "format_significant",
]

_DPS = 40          # significant digits of the public Decimal values
_GUARD = 20        # digits past a value's integer or printed part, at first
_MAX_GUARD = 640   # the most digits past them that are ever tried

# _power evaluates v = (a/b)*x^lam, x = xn/xd in [1/65, 1], at p digits in
# nine correctly rounded operations (ROUND_HALF_EVEN), each within
# u = 10^(1-p)/2 relative: x; ln 3, ln 4 and their quotient lam~, within
# 3u of lam; ln x~; y = lam~*ln x~; exp(y); the product with a; the
# quotient by b.  |lam*ln x| <= lam*ln 65 < 3.31, so y is within
# 3.31*5u + lam*u < 17.4u of lam*ln x, the rounded exp(y) within 18.5u of
# x^lam relatively, and the last two steps make v within 20.5u of its
# computed value V, relatively, up to O(u^2).  V < 10^(E+1), E its
# adjusted exponent, so that is under 105 units of 10^(E+1-p), the last
# place of a p-digit number of V's size; _ladder widens V by _ERR_ULPS of
# them.
_ERR_ULPS = 110

#: Float approximation of the growth exponent ln3/ln4.
LAMBDA = math.log(3) / math.log(4)

# The float stage of the bounds and of delta_record, for N < _FLOAT_LIMIT
# = 2^1023, bits = N.bit_length().  p = N**LAMBDA differs from N^lam
# relatively by: the exponent error |LAMBDA - lam| * ln N, LAMBDA being
# 5.82e-17 above lam and ln N < bits * ln 2, so under 4.03e-17 * bits,
# which _ERR_BIT * bits covers with no log call; pow's rounding, under one
# ulp, 2^-52 = 2.2e-16; and float(N)'s, none below 2^53 and past it 2^-53
# scaled by lam, 8.8e-17.  A bound's v = c*p adds c's error (_C_LO and
# _C_HI lie 1.5e-16 and 2.4e-16 from 2/6^lam and (55/3)/65^lam) and the
# product's rounding, 1.1e-16, and its ends v*(1 -+ w) the rounding of
# 1 -+ w and of the products, 2.2e-16: _ERR_BOUND covers these 8.9e-16.
# w is _ERR_SAFETY times the error at 1023 bits, one constant for every N,
# so that the common case costs one comparison.  Delta's d = S/p adds the
# quotient's rounding, 1.1e-16: _ERR_ROUND covers the 4.2e-16 in all, and
# the excess of _delta_text's e = _ERR_SAFETY * (_ERR_BIT * bits +
# _ERR_ROUND) covers the rounding of its ends d*(1 -+ e).  Over 20 random N
# of each bit length below 1024, the worst errors measured were 0.96 of
# the bound for v and 0.98 for d.  Past _FLOAT_LIMIT float(N) overflows,
# and delta_record's d is the float nearest the 40-digit delta.  That is
# within 2^-53 + 110*10^-39 relative of delta, which is inside _ERR_ROUND,
# and the exponent term does not apply, so _delta_text reads it at bits = 0.
_FLOAT_LIMIT = 1 << 1023
_ERR_BIT = 4.1e-17
_ERR_ROUND = 5.1e-16
_ERR_BOUND = 1.2e-15
_ERR_SAFETY = 2
_WIDEN = _ERR_SAFETY * (_ERR_BIT * 1023 + _ERR_BOUND)    # w = 8.6e-14
_BELOW, _ABOVE = 1 - _WIDEN, 1 + _WIDEN
_C_LO = 2 / 6 ** LAMBDA           # lower bound argument = _C_LO * N^lam
_C_HI = 55 / 3 / 65 ** LAMBDA     # upper bound argument = _C_HI * N^lam
_LOWER = (2, 1, 6, 0)             # floor((2/1)*(N/6)^lam): (num, den, base, up)
_UPPER = (55, 3, 65, 1)           # ceil((55/3)*(N/65)^lam)


class PrecisionCapError(ArithmeticError):
    """An exact bound or delta text that _MAX_GUARD digits past its
    integer or printed part could not decide."""


def _context(prec: int) -> decimal.Context:
    """A fresh decimal context of prec-digit evaluations, of any exponent."""
    return decimal.Context(prec=prec, rounding=decimal.ROUND_HALF_EVEN,
                           Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@lru_cache(maxsize=64)
def _lam(prec: int) -> Decimal:
    """ln3/ln4 at prec digits: three correctly rounded operations, so
    within 3u of lam, u as above _ERR_ULPS."""
    ctx = _context(prec)
    return ctx.divide(ctx.ln(3), ctx.ln(4))


def _power(a: int, b: int, xn: int, xd: int, prec: int) -> Decimal:
    """(a/b)*(xn/xd)^lam at prec digits, for positive integers with
    1/65 <= xn/xd <= 1; within _ERR_ULPS units of the last place."""
    ctx = _context(prec)
    w = ctx.exp(ctx.multiply(_lam(prec), ctx.ln(ctx.divide(xn, xd))))
    return ctx.divide(ctx.multiply(w, a), b)


def _ladder(digits: int, evaluate, *args):
    """(lo, hi), exact, around the value that ``evaluate(*args, prec)``, a
    ``_power`` evaluation, computes at prec = digits + _GUARD, then at
    twice the guard digits past ``digits``, and so on up to _MAX_GUARD."""
    guard = _GUARD
    while guard <= _MAX_GUARD:
        prec = digits + guard
        v = evaluate(*args, prec)
        err = _EXACT.scaleb(_ERR_ULPS, v.adjusted() + 1 - prec)
        yield _EXACT.subtract(v, err), _EXACT.add(v, err)
        guard *= 2


def growth_exponent():
    """ln3/ln4 as a 40-digit Decimal (4^lam = 3 exactly)."""
    return _lam(_DPS)


def delta_liminf():
    """liminf of S_{3,0}(N)/N^lam: 2/6^lam, realized along N = 6*4^k."""
    return _power(2, 1, 1, 6, _DPS)


def delta_limsup():
    """limsup of S_{3,0}(N)/N^lam: 55/(3*65^lam), realized along N = 260*4^k."""
    return _power(55, 3, 1, 65, _DPS)


def ratio_liminf():
    """liminf of S_{3,0}(3x)/x^lam: 2/sqrt(3), attained at every x = 2*4^k."""
    ctx = _context(_DPS)
    return ctx.divide(2, ctx.sqrt(3))


def ratio_limsup():
    """limsup of S_{3,0}(3x)/x^lam: (55/3)*(3/65)^lam."""
    return _power(55, 3, 3, 65, _DPS)


def _settle(N: int, lo, hi, num: int, den: int, base: int, up: int):
    """floor (up = 0) or ceil (up = 1) of v = (num/den)*(N/base)^lam from
    an enclosure lo <= v <= hi, hi > 0, or None where it cannot tell.

    An enclosure that holds one integer k is settled where one of the two
    family points n0 = base*4^i around N, base*4^j <= N < base*4^(j+1), has
    the value num*3^i/den = k: v grows with N, so it lies below k for
    N < n0, is k at n0, and lies above k for N > n0.
    """
    k = math.floor(hi)
    if k < lo:                      # no integer in [lo, hi]
        return k + up
    if k - 1 < lo:                  # k alone
        j = max((N // base).bit_length() - 1, 0) // 2   # base*4^j <= N, or j = 0
        for i in (j, j + 1):
            if num * 3 ** i == k * den:
                n0 = base << 2 * i
                return k + (N > n0) if up else k - (N < n0)
    return None


def _exact_round(N: int, num: int, den: int, base: int, up: int) -> int:
    """``_settle``'s answer for v = (num/den)*(N/base)^lam, base in [4, 65],
    from decimal enclosures alone: with N = 4^e*f, 1 <= f < 4,
    v = (num*3^e/den)*(f/base)^lam, f/base in [1/65, 1], so v has at most as
    many integer digits as num*3^e // den; the evaluation carries _GUARD
    digits more, then twice as many, up to _MAX_GUARD, until it can tell.
    """
    e = (N.bit_length() - 1) // 2
    a, xd = num * 3 ** e, base << 2 * e
    digits = (a // den).bit_length() * 30103 // 100000 + 1   # log10(2) < 0.30103
    for lo, hi in _ladder(digits, _power, a, den, N, xd):
        if (b := _settle(N, lo, hi, num, den, base, up)) is not None:
            return b
    raise PrecisionCapError(f"a sharp bound at a {N.bit_length()}-bit N is not "
                            f"decided {_MAX_GUARD} digits past its integer part")


def _bound(N: int, p, c: float, spec) -> int:
    """``_exact_round(N, *spec)``, c*N^lam being its v, read first from the
    float c*p, p = N**LAMBDA, or None for N >= _FLOAT_LIMIT: widened by w
    relative, it encloses v."""
    if p is not None:
        v = c * p
        k = math.floor(v * _ABOVE)
        if k < v * _BELOW:          # no integer in the enclosure: _settle's first case
            return k + spec[3]
        if (b := _settle(N, v * _BELOW, v * _ABOVE, *spec)) is not None:
            return b
    return _exact_round(N, *spec)


def delta(N: int, S: int | None = None):
    """S_{3,0}(N) / N^lam as a 40-digit Decimal.

    S may be passed in when already known; otherwise it is computed with
    the divide-by-four recursion.
    """
    N = _at_least(N, 1, "delta needs N")
    S = newman_sum_recursive(N) if S is None else index(S)
    return _delta_at(N, S, _DPS)


def _delta_at(N: int, S: int, prec: int) -> Decimal:
    """S/N^lam at prec digits, as (S/3^e)*(4^e/N)^lam with 4^e <= N < 4^(e+1)."""
    e = (N.bit_length() - 1) // 2
    return _power(S, 3 ** e, 1 << 2 * e, N, prec)


def _exact_text(N: int, S: int) -> str:
    """``format_significant`` of S/N^lam, S = S_{3,0}(N), from enclosures
    of it on ``_exact_round``'s ladder of guard digits past the 12 printed
    ones, until both ends print alike.  The printing rounds monotonically,
    so then S/N^lam prints so too."""
    for lo, hi in _ladder(12, _delta_at, N, S):
        if (text := format_significant(lo)) == format_significant(hi):
            return text
    raise PrecisionCapError(f"delta at a {N.bit_length()}-bit N is not decided "
                            f"{_MAX_GUARD} digits past its 12th")


def lower_bound(N: int) -> int:
    """floor(2*(N/6)^lam), a sharp lower bound for S_{3,0}(N), N >= 1: exact,
    read from the float N**LAMBDA first and from ``decimal`` where it cannot tell."""
    N = _at_least(N, 1, "lower_bound needs N")
    return _bound(N, N ** LAMBDA if N < _FLOAT_LIMIT else None, _C_LO, _LOWER)


def upper_bound(N: int) -> int:
    """ceil((55/3)*(N/65)^lam), a sharp upper bound for S_{3,0}(N), N >= 2,
    evaluated as ``lower_bound`` is."""
    N = _at_least(N, 2, "upper_bound needs N")
    return _bound(N, N ** LAMBDA if N < _FLOAT_LIMIT else None, _C_HI, _UPPER)


def coquet_ratio(x: int):
    """S_{3,0}(3x) * x^(-lam) for x >= 2; stays inside
    [2/sqrt(3), (55/3)*(3/65)^lam]."""
    x = _at_least(x, 2, "coquet_ratio needs x")
    return delta(x, newman_sum_recursive(3 * x))


def newman_inequality_check(x: int) -> bool:
    """Whether 1/20 < S_{3,0}(x) * x^(-lam) < 5 (Newman's inequality)."""
    x = _at_least(x, 1, "newman_inequality_check needs x")
    return Decimal("0.05") < delta(x) < 5


def eta_defined(x: int) -> int:
    """Coquet's piecewise correction term: 0 for even x, the Thue-Morse
    sign of 3x-3 for odd x."""
    x = _at_least(x, 1, "eta_defined needs x")
    if x % 2 == 0:
        return 0
    return thue_morse_sign(3 * x - 3)


def eta_derived(x: int) -> int:
    """The correction term that 1-periodicity of Coquet's F would force:
    3*S_{3,0}(3x) - S_{3,0}(12x).

    Disagrees with ``eta_defined`` already at x = 1, 3, 5, 9; that
    contradiction is the point of the checker.
    """
    x = _at_least(x, 1, "eta_derived needs x")
    return 3 * newman_sum_recursive(3 * x) - newman_sum_recursive(12 * x)


def eta_half(k: int) -> int:
    """The half-integer extension eta(k + 1/2) that periodicity of F would
    force: 3*S(3k) - S(3*(4k+2)) + 3*(-1)^sigma(3k), for k >= 0."""
    k = _at_least(k, 0, "eta_half needs k")
    return (3 * newman_sum_recursive(3 * k)
            - newman_sum_recursive(3 * (4 * k + 2))
            + 3 * thue_morse_sign(3 * k))


def _extremes(steps, levels: int):
    """Tables lo, hi with lo[j][s] and hi[j][s] the min and max over
    0 <= r < 4^j of T_j(s, r), for j = 0..levels and every state s of
    ``steps``, a ``core._step_table`` of the recursion.

    T_j(s, r) sums the outputs 3^i * c_i of the transducer ``steps``
    reading r's j base-4 digits from the top, starting in state s.  The top
    digit d is read first and weighs 3^(j-1), so
    lo[j][s] = min over d of 3^(j-1) * c(s, d) + lo[j-1][s'(s, d)].
    """
    lo, hi = [[0] * len(steps)], [[0] * len(steps)]
    for j in range(1, levels + 1):
        w = 3 ** (j - 1)
        lo.append([min(w * c + lo[-1][t] for t, c in row) for row in steps])
        hi.append([max(w * c + hi[-1][t] for t, c in row) for row in steps])
    return lo, hi


def bound_blocks(max_n: int, _top=math.inf):
    """Yield (a, b, smin, smax) for 4-adic blocks [a, b) covering
    1 <= N <= max_n in ascending order, smin and smax being the least and
    the greatest S_{3,0}(N) on the block by the recursion.

    A block is [m*4^j, (m+1)*4^j), on which S(N) = 3^j*S(m) + T_j(s_m, r)
    for N = m*4^j + r, s_m the recursion's state after m's digits; so its
    extremes are 3^j*S(m) plus the ``_extremes`` of T_j from s_m.  The
    walk starts from the block of m = 0 that covers max_n and carries
    (S(m), s_m) down each split.  A block is yielded whole when it lies in
    [2, max_n] and clears both sharp bounds strictly at every N:

        smin > lower(b-1)  and  smax < upper(a),

    which suffices as both bounds are nondecreasing.  For integer S,
    S > floor(v) gives S > v and S < ceil(v) gives S < v, so such a block
    has 2/6^lam < S*N^-lam < 55/(3*65^lam), 0.483... and 0.671..., and
    clears Newman's 1/20 < S*N^-lam < 5 too.  Any other block splits into
    its four children, down to single N (b = a + 1, smin = smax = S(a)),
    where a bound may be attained or violated.
    """
    # _top, set only by verify.bounds_sweep, caps the level of a block yielded
    # whole; a wider one splits, its children's extremes lying inside its own
    max_n = _at_least(max_n, 1, "bound_blocks needs max_n")
    levels = (max_n.bit_length() + 1) // 2      # 4^levels > max_n
    steps = _step_table(_recursion_step)
    lo, hi = _extremes(steps, levels)
    stack = [(0, levels, 0, 0)]                 # (m, j, S(m), s_m), next last
    while stack:
        m, j, S, s = stack.pop()
        a = m << 2 * j
        b = a + (1 << 2 * j)
        if j == 0:
            if a >= 1:
                yield a, b, S, S
            continue
        if j <= _top and a >= 2 and b <= max_n + 1:
            smin = 3 ** j * S + lo[j][s]
            smax = 3 ** j * S + hi[j][s]
            if smin > lower_bound(b - 1) and smax < upper_bound(a):
                yield a, b, smin, smax
                continue
        width = 1 << 2 * (j - 1)
        for d in range(3, -1, -1):
            if a + d * width <= max_n:
                t, c = steps[s][d]
                stack.append((4 * m + d, j - 1, 3 * S + c, t))


def _delta_text(d: float, bits: int) -> str | None:
    """``format_significant(delta)`` from d = S/N**LAMBDA at an N of
    ``bits`` bits, N < _FLOAT_LIMIT, or from d the float of the 40-digit
    delta and bits = 0 past it; None where d cannot tell.

    d is within _ERR_BIT * bits + _ERR_ROUND relative of delta, so delta
    lies between d*(1 - e) and d*(1 + e) for e _ERR_SAFETY times that.
    Correctly rounded formatting is monotone, so if both ends print alike,
    delta prints so too.  '%.12g' and ``format_significant`` differ only
    in the form of integral values ('1' against '1.0') and of exponents,
    so those go to the exact path as well.
    """
    e = _ERR_SAFETY * (_ERR_BIT * bits + _ERR_ROUND)
    text = "%.12g" % (d * (1 - e))
    if "." in text and "e" not in text and text == "%.12g" % (d * (1 + e)):
        return text
    return None


@dataclass
class DeltaRecord:
    """One scan row: N, S = S_{3,0}(N), delta = S/N^lam, delta's text to
    12 significant digits, the two sharp bounds (upper is None for N < 2
    where it is not defined), and whether S sits inside them.

    delta is a float: S/N**LAMBDA below 2^1023, within _ERR_BIT * bits +
    _ERR_ROUND relative (4.2e-14 at 1023 bits), else the float nearest the
    40-digit ``delta``; delta_text is exact at every N."""

    N: int
    S: int
    delta: float
    delta_text: str
    lower: int
    upper: int | None
    in_bounds: bool


def delta_record(N: int) -> DeltaRecord:
    """Assemble the DeltaRecord for one N >= 1."""
    N = _at_least(N, 1, "delta_record needs N")
    S = newman_sum_recursive(N)
    p = N ** LAMBDA if N < _FLOAT_LIMIT else None
    lo = _bound(N, p, _C_LO, _LOWER)
    hi = _bound(N, p, _C_HI, _UPPER) if N >= 2 else None
    d = S / p if p else float(delta(N, S))
    text = _delta_text(d, N.bit_length() if p else 0)
    ok = lo <= S and (hi is None or S <= hi)
    return DeltaRecord(N, S, d, text or _exact_text(N, S), lo, hi, ok)


def extremal_sequences(n_max: int) -> list:
    """DeltaRecords of both extremal families up to exponent n_max >= 8.

    For even n: N = 2^n + 2^(n-1) realizes the liminf plateau 2/6^lam
    exactly, and (for n >= 8) N = 2^n + 2^(n-6) realizes the limsup
    plateau 55/(3*65^lam) exactly.  Records are returned in ascending N.
    """
    n_max = _at_least(n_max, 8, "extremal_sequences needs n_max")
    ns = []
    for n in range(2, n_max + 1, 2):
        ns.append(2 ** n + 2 ** (n - 1))
        if n >= 8:
            ns.append(2 ** n + 2 ** (n - 6))
    return [delta_record(N) for N in sorted(ns)]


def scan(start: int, stop: int, step: int = 1):
    """Yield DeltaRecords for N = start, start+step, ... below stop.

    Requires 1 <= start < stop and step >= 1; rows come out in ascending N.
    """
    start, stop, step = index(start), index(stop), index(step)
    if not 1 <= start < stop:
        raise ValueError("scan needs 1 <= start < stop")
    if step < 1:
        raise ValueError("scan needs step >= 1")
    for N in range(start, stop, step):
        yield delta_record(N)


@dataclass
class EtaRow:
    """One row of the correction-term comparison table (odd x only)."""

    x: int
    eta_defined: int
    eta_derived: int
    agree: bool


def eta_row(x: int) -> EtaRow:
    """The EtaRow of x >= 1, computed on its own, so that a table of any
    length can be printed row by row."""
    x = _at_least(x, 1, "eta_row needs x")
    d = eta_defined(x)
    e = eta_derived(x)
    return EtaRow(x, d, e, d == e)


def eta_rows(x_max: int) -> list:
    """EtaRows for all odd x up to x_max."""
    x_max = _at_least(x_max, 1, "eta_rows needs x_max")
    return [eta_row(x) for x in range(1, x_max + 1, 2)]


# 12 significant digits, ties rounded away from zero
_TWELVE = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_UP,
                          Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def format_significant(value) -> str:
    """A float, int or Decimal rounded half away from zero to 12
    significant digits, in fixed notation where the leading digit's
    exponent is between -4 and 11 ('0.483459078354', '1.0'), else in
    exponent notation ('1.2e+12', '5.0e-7').  An infinity or NaN raises
    ValueError."""
    d = Decimal(value)
    if not d.is_finite():
        raise ValueError(f"format_significant needs a finite value, not {value!r}")
    d = _TWELVE.plus(d).normalize(_TWELVE)
    if not d:
        return "0.0"
    if -5 < d.adjusted() < 12:
        mantissa, exponent = f"{d:f}", ""
    else:
        mantissa, _, exponent = f"{d:e}".partition("e")
        exponent = "e" + exponent
    return mantissa + exponent if "." in mantissa else f"{mantissa}.0{exponent}"
