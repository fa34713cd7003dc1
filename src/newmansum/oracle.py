"""Brute-force reference oracle for Newman digit sums.

Direct O(x) enumeration of (-1)^sigma(n) over a residue class.  This is
the ground truth every fast evaluator is checked against, so it stays
deliberately naive: every member n of the class is visited one by one and
takes its sign from its own ``bit_count``, with no recurrence and no
shortcut in the math.  It takes integers of any size.

Every answer comes from ``_signs``, the one loop that visits the members
of the class and signs each: sums add its signs up, and ``_prefix_sums``
accumulates them and fills the entries between members by strided slices.
``_prefix_chunks`` streams a prefix in chunks of ``_CHUNK`` entries, each
kernel call's entry at its stop popped as the next one's carry, so a sweep
holds one chunk at a time; ``oracle_prefix`` copies them into one array.

A configurable cap (default 2^32, override through the
``NEWMANSUM_ORACLE_CAP`` environment variable) refuses enumerations that
would silently run for hours.
"""

import os
from array import array
from decimal import Decimal
from itertools import accumulate, chain

__all__ = [
    "OracleCapError",
    "DEFAULT_ORACLE_CAP",
    "KERNEL_BACKEND",
    "oracle_cap",
    "oracle_sum",
    "oracle_interval_sum",
    "oracle_prefix",
]

KERNEL_BACKEND = "pure"     # the one enumeration kernel; perfbench records it
DEFAULT_ORACLE_CAP = 2 ** 32
# Entries per prefix chunk, a power of 4: ``bounds`` reads each block of up to
# _CHUNK entries in one chunk.  Any other size gives smaller blocks and, from a
# correct oracle, the same reports.
_CHUNK = 2 ** 14
_CAP_ENV = "NEWMANSUM_ORACLE_CAP"


class OracleCapError(ValueError):
    """Enumeration bound exceeds the oracle cap, or the cap is malformed."""


def oracle_cap() -> int:
    """The active enumeration cap (environment override or default)."""
    env = os.environ.get(_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = -1     # reported below, like a negative cap
        if cap < 0:
            raise OracleCapError(
                f"{_CAP_ENV} must be a nonnegative integer, got {env!r}")
        return cap
    return DEFAULT_ORACLE_CAP


def _check_class(modulus, residue):
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= residue < modulus:
        raise ValueError("residue must be in [0, modulus)")


def _check_cap(bound):
    cap = oracle_cap()
    if bound > cap:
        # through Decimal, which has no int->str length limit
        raise OracleCapError(f"oracle cap: enumerating up to {Decimal(bound)} "
                             f"exceeds the cap of {Decimal(cap)}")


def _signs(modulus, residue, start, stop):
    """(-1)^popcount(n) for each n in [start, stop) with n % modulus == residue,
    in ascending n, in lists of at most _CHUNK signs, each made by one
    comprehension: a generator resumed per member is 10 to 16 % slower."""
    step = _CHUNK * modulus
    for lo in range(start + (residue - start) % modulus, stop, step):
        yield [1 - 2 * (n.bit_count() & 1) for n in range(lo, min(lo + step, stop), modulus)]


def _prefix_sums(modulus, residue, start, stop, carry):
    """array('q') holding S_{modulus,residue}(x) for start <= x <= stop,
    given carry = S_{modulus,residue}(start).

    Only the members n = first, first + modulus, ... below stop are
    enumerated.  Entry x > first is the carry plus the signs of the
    ceil((x - first) / modulus) members below it, so the entries from
    first + 1 on are ``modulus`` strided slices of the running sums, each
    as long as the one before it or one shorter; entries up to first are
    the carry.
    """
    first = start + (residue - start) % modulus     # least member >= start
    # sums[i]: the carry plus the signs of the first i + 1 members
    sums = array("q", accumulate(chain.from_iterable(_signs(modulus, residue, start, stop)),
                                 initial=carry))
    del sums[0]
    out = array("q", [carry]) * (stop - start + 1)
    for lo in range(first + 1 - start, min(first + modulus, stop) + 1 - start):
        # trimmed in place: a sliced copy would add to the peak memory
        del sums[len(range(lo, stop + 1 - start, modulus)):]
        out[lo::modulus] = sums
    return out


def _prefix_chunks(modulus, residue, limit):
    """The prefix S_{modulus,residue}(x), x = 0..limit, as an iterator of
    (start, array('q')) chunks of _CHUNK entries in ascending order.

    The class, the limit and the cap are checked here, before any
    enumeration.
    """
    _check_class(modulus, residue)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    _check_cap(limit)
    return _stream(modulus, residue, limit)


def _stream(modulus, residue, limit):
    carry = 0
    for start in range(0, limit + 1, _CHUNK):
        stop = min(start + _CHUNK, limit + 1)
        chunk = _prefix_sums(modulus, residue, start, stop, carry)
        carry = chunk.pop()     # entry stop, the next chunk's first
        yield start, chunk
        del chunk       # not alive while the next one is built


def oracle_sum(modulus: int, residue: int, x: int) -> int:
    """S_{modulus,residue}(x) by direct enumeration of all n < x."""
    _check_class(modulus, residue)
    if x < 0:
        raise ValueError("x must be >= 0")
    _check_cap(x)
    return sum(map(sum, _signs(modulus, residue, 0, x)))


def oracle_interval_sum(modulus: int, residue: int, start: int, stop: int) -> int:
    """S_{modulus,residue}([start, stop)) by direct enumeration."""
    _check_class(modulus, residue)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    _check_cap(stop)
    return sum(map(sum, _signs(modulus, residue, start, stop)))


def oracle_prefix(modulus: int, residue: int, limit: int) -> array:
    """All prefix values S_{modulus,residue}(x) for x = 0..limit, one pass.

    Returns an ``array('q')`` of length limit+1; entry x is exactly
    ``oracle_sum(modulus, residue, x)``.
    """
    chunks = _prefix_chunks(modulus, residue, limit)
    out = array("q", [0]) * (limit + 1)
    for start, chunk in chunks:
        out[start:start + len(chunk)] = chunk
        del chunk       # so that beside out one chunk at most is alive
    return out
