"""Both algorithms walked on the whole integer, one recursion level or one
set bit at a time: the reference that the traces and the digit scan are
tested against.

The walks use core's one-level rules and closed forms
(``recursion_correction``, ``power_sum``, ``dyadic_sum``, ``boundary_term``
and ``_REDUCTION_TABLE``), never the transducer steps or tables that the
evaluators and the traces run on.
"""

from decimal import Decimal

from newmansum import core


def recursion(N):
    """(N_k, c(N_k)) for N_k = N >> 2k, outermost first."""
    pairs = []
    while N:
        pairs.append((N, core.recursion_correction(N)))
        N //= 4
    return pairs


def decomposition(x):
    """(description, signed term) per set bit of x, descending bits."""
    terms = []
    t = 0
    for i, k in enumerate(core.bit_exponents(x)):
        if i == 0:
            terms.append((f"S(2^{k})", core.power_sum(k)))
        elif k == 0:
            terms.append((f"S([{Decimal(x - 1)},{Decimal(x)}))", core.boundary_term(x)))
        else:
            sign, form, parity = core._REDUCTION_TABLE[t % 6]
            s = "+" if sign > 0 else "-"
            if form == "power":
                terms.append((f"{s}S(2^{k})", sign * core.power_sum(k)))
            else:
                terms.append((f"{s}S([2^n,2^n+2^{k})) n {parity}",
                              sign * core.dyadic_sum(parity, k)))
        t += 1 if k % 2 == 0 else -1
    return terms
