"""Reference evaluator for Newman digit sums, independent of ``newmansum``.

    S_{3,l}(N) = sum over 0 <= n < N, n = l (mod 3) of (-1)^sigma(n)

is computed by a digit DP straight from this definition: for every set bit
k of N, the n below N that agree with N above bit k and have a 0 at bit k
are P + m with m < 2^k, where P is N with bits 0..k cleared.  Their sum is
(-1)^sigma(P) times f_k[(l - P) mod 3], where f_k[r] sums (-1)^sigma(m) over
m < 2^k with m = r (mod 3).  f_{k+1} follows from f_k by splitting on the top
bit of m.  No closed form, recursion or code of the package is used, so the
benchmark can check the package's answers against it.
"""

__all__ = ["newman_sum"]


def newman_sum(l: int, N: int) -> int:
    """S_{3,l}(N) for l in {0, 1, 2} and N >= 0, by digit DP over N's bits."""
    if l not in (0, 1, 2) or N < 0:
        raise ValueError("need l in {0, 1, 2} and N >= 0")
    f = [1, 0, 0]        # f_0: only m = 0
    pow2 = 1             # 2^k mod 3
    low = 0              # (N mod 2^k) mod 3
    low_parity = 0       # popcount parity of N mod 2^k
    n_mod3 = N % 3
    n_parity = N.bit_count() & 1
    total = 0
    for bit in bin(N)[:1:-1]:        # bits of N, least significant first
        if bit == "1":
            prefix = (n_mod3 - low - pow2) % 3
            prefix_parity = n_parity ^ low_parity ^ 1
            term = f[(l - prefix) % 3]
            total += -term if prefix_parity else term
            low = (low + pow2) % 3
            low_parity ^= 1
        # m < 2^(k+1): top bit 0 keeps f_k[r]; top bit 1 adds 2^k and flips the sign
        f = [f[r] - f[(r - pow2) % 3] for r in range(3)]
        pow2 = pow2 * 2 % 3
    return total
