"""S_{m,l}(N) for any modulus m >= 1 by a digit DP from the definition,
sharing nothing with the package: the tests' reference for the residue sums
at sizes that ``brute.py`` cannot enumerate.

For every set bit k of N, the n below N that agree with N above bit k and
have a 0 at bit k are P_k + n' with n' < 2^k, where P_k is N with bits 0..k
cleared.  Their sum over the class l is (-1)^sigma(P_k) * f_k[(l - P_k) mod m],
where f_k[r] sums (-1)^sigma(n') over n' < 2^k with n' = r (mod m).  Splitting
on the top bit of n' gives f_{k+1}[r] = f_k[r] - f_k[(r - 2^k) mod m].  The
cost is quadratic in the bit length of N.
"""


def sums(m, N):
    """[S_{m,l}(N) for l in 0..m-1]."""
    f = [1] + [0] * (m - 1)         # f_0: only n' = 0
    out = [0] * m
    P = N
    for k, bit in enumerate(reversed(bin(N)[2:])):
        if bit == "1":
            P ^= 1 << k                 # P_k
            sign, p = (-1 if P.bit_count() % 2 else 1), P % m
            out = [s + sign * f[(l - p) % m] for l, s in enumerate(out)]
        shift = pow(2, k, m)            # 2^k mod m
        f = [f[r] - f[(r - shift) % m] for r in range(m)]
    return out
