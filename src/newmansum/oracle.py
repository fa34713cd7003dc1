"""Brute-force reference oracle for Newman digit sums.

Direct O(x) enumeration of (-1)^sigma(n) over a residue class.  This is
the ground truth every fast evaluator is checked against, so it stays
deliberately naive; speed comes only from the compiled kernel, never from
shortcuts in the math.

A configurable cap (default 2^32, override per call or through the
``NEWMANSUM_ORACLE_CAP`` environment variable) refuses enumerations that
would silently run for hours.

The enumeration kernel is selected at import time: the Cython module
``newmansum._speedups`` when it was built, else the pure-Python twin
``newmansum._pykernel``.  Setting ``NEWMANSUM_PURE`` in the environment
forces the pure kernel.  ``KERNEL_REASON`` says why the compiled kernel
is not in use (empty when it is).
"""

import os
from array import array
from importlib import import_module

from . import _pykernel

KERNEL_REASON = ""
if os.environ.get("NEWMANSUM_PURE"):
    KERNEL_REASON = "forced by NEWMANSUM_PURE"
else:
    try:
        _kernel = import_module("._speedups", __package__)
    except ImportError as exc:
        KERNEL_REASON = f"compiled kernel not built: {exc}"
if KERNEL_REASON:
    _kernel = _pykernel
KERNEL_BACKEND = "pure" if KERNEL_REASON else "compiled"

__all__ = [
    "OracleCapError",
    "DEFAULT_ORACLE_CAP",
    "KERNEL_BACKEND",
    "KERNEL_REASON",
    "oracle_cap",
    "oracle_sum",
    "oracle_interval_sum",
    "oracle_prefix",
    "available_kernels",
]

DEFAULT_ORACLE_CAP = 2 ** 32
_CAP_ENV = "NEWMANSUM_ORACLE_CAP"

# The compiled kernel works on unsigned 64-bit values; anything beyond
# this goes to the pure kernel (and will have tripped the cap anyway
# unless the caller raised it deliberately).
_KERNEL_LIMIT = 2 ** 62


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


def _check_cap(bound, cap):
    if cap is None:
        cap = oracle_cap()
    if bound > cap:
        raise OracleCapError(
            f"oracle cap: enumerating up to {bound} exceeds the cap of {cap}")


def _pick(bound):
    return _kernel if bound < _KERNEL_LIMIT else _pykernel


def oracle_sum(modulus: int, residue: int, x: int, cap: int | None = None) -> int:
    """S_{modulus,residue}(x) by direct enumeration of all n < x."""
    _check_class(modulus, residue)
    if x < 0:
        raise ValueError("x must be >= 0")
    _check_cap(x, cap)
    return _pick(x).range_sum(modulus, residue, 0, x)


def oracle_interval_sum(modulus: int, residue: int, start: int, stop: int,
                        cap: int | None = None) -> int:
    """S_{modulus,residue}([start, stop)) by direct enumeration."""
    _check_class(modulus, residue)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop")
    _check_cap(stop, cap)
    return _pick(stop).range_sum(modulus, residue, start, stop)


def oracle_prefix(modulus: int, residue: int, limit: int,
                  cap: int | None = None) -> array:
    """All prefix values S_{modulus,residue}(x) for x = 0..limit, one pass.

    Returns an ``array('q')`` of length limit+1; entry x is exactly
    ``oracle_sum(modulus, residue, x)``.
    """
    _check_class(modulus, residue)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    _check_cap(limit, cap)
    return _pick(limit).prefix_sums(modulus, residue, limit)


def available_kernels() -> dict:
    """Importable kernels by name; 'compiled' is absent when not built."""
    kernels = {"pure": _pykernel}
    try:
        from . import _speedups
        kernels["compiled"] = _speedups
    except ImportError:
        pass
    return kernels
