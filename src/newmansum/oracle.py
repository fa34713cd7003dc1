"""Brute-force reference oracle for Newman digit sums.

Direct O(x) enumeration of (-1)^sigma(n) over a residue class.  This is
the ground truth every fast evaluator is checked against, so it stays
deliberately naive: one pure-Python loop over n, with no shortcuts in the
math.  It takes integers of any size.

A configurable cap (default 2^32, override through the
``NEWMANSUM_ORACLE_CAP`` environment variable) refuses enumerations that
would silently run for hours.
"""

import os
from array import array

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
        raise OracleCapError(
            f"oracle cap: enumerating up to {bound} exceeds the cap of {cap}")


def _range_sum(modulus, residue, start, stop):
    """Sum of (-1)^popcount(n) over start <= n < stop with n % modulus == residue."""
    if stop <= start:
        return 0
    first = start + (residue - start) % modulus
    total = 0
    for n in range(first, stop, modulus):
        total += 1 - 2 * (n.bit_count() & 1)
    return total


def _prefix_sums(modulus, residue, limit):
    """array('q') holding S_{modulus,residue}(x) for every x = 0..limit."""
    out = array("q", [0]) * (limit + 1)
    s = 0
    for n in range(limit):
        if n % modulus == residue:
            s += 1 - 2 * (n.bit_count() & 1)
        out[n + 1] = s
    return out


def oracle_sum(modulus: int, residue: int, x: int) -> int:
    """S_{modulus,residue}(x) by direct enumeration of all n < x."""
    _check_class(modulus, residue)
    if x < 0:
        raise ValueError("x must be >= 0")
    _check_cap(x)
    return _range_sum(modulus, residue, 0, x)


def oracle_interval_sum(modulus: int, residue: int, start: int, stop: int) -> int:
    """S_{modulus,residue}([start, stop)) by direct enumeration."""
    _check_class(modulus, residue)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    _check_cap(stop)
    return _range_sum(modulus, residue, start, stop)


def oracle_prefix(modulus: int, residue: int, limit: int) -> array:
    """All prefix values S_{modulus,residue}(x) for x = 0..limit, one pass.

    Returns an ``array('q')`` of length limit+1; entry x is exactly
    ``oracle_sum(modulus, residue, x)``.
    """
    _check_class(modulus, residue)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    _check_cap(limit)
    return _prefix_sums(modulus, residue, limit)
