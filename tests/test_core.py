import random
import tracemalloc
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

import brute
import digit_dp
import walks
from newmansum import analysis, core, oracle, verify


# ---------------------------------------------------------------- digit sums

def test_digit_sum_examples():
    assert core.digit_sum(0) == 0
    assert core.digit_sum(7) == 3
    assert core.digit_sum(500000) == 7  # 2^18+2^17+2^16+2^15+2^13+2^8+2^5


def test_digit_sum_rejects_negative():
    with pytest.raises(ValueError):
        core.digit_sum(-1)


@given(st.integers(min_value=0, max_value=1 << 300))
def test_digit_sum_matches_bin_count(n):
    assert core.digit_sum(n) == bin(n).count("1")


@given(st.integers(min_value=0, max_value=1 << 300))
def test_thue_morse_sign(n):
    assert core.thue_morse_sign(n) == brute.sign(n)


# ------------------------------------------------------------- decomposition

def test_bit_exponents_examples():
    assert core.bit_exponents(0) == []
    assert core.bit_exponents(1) == [0]
    assert core.bit_exponents(500000) == [18, 17, 16, 15, 13, 8, 5]


@given(st.integers(min_value=0, max_value=1 << 300))
def test_bit_exponents_reconstruct(x):
    exps = core.bit_exponents(x)
    assert sum(1 << k for k in exps) == x
    assert all(a > b for a, b in zip(exps, exps[1:]))


def test_alt_exponent_sum_examples():
    assert core.alt_exponent_sum(1) == 1
    assert core.alt_exponent_sum(2 ** 18 + 2 ** 17) == 0
    six_terms = 2 ** 18 + 2 ** 17 + 2 ** 16 + 2 ** 15 + 2 ** 13 + 2 ** 8
    assert core.alt_exponent_sum(six_terms) == 0
    with pytest.raises(ValueError):
        core.alt_exponent_sum(0)


@given(st.integers(min_value=1, max_value=1 << 300))
def test_alt_exponent_sum_congruent_mod_3(y):
    assert core.alt_exponent_sum(y) % 3 == y % 3


@given(st.integers(min_value=1, max_value=1 << 300))
@example((1 << 64) - 1)
@example(1 << 64)
@example((1 << 64) + 1)
def test_alt_exponent_sum_definition(y):
    expected = sum((-1) ** k for k in core.bit_exponents(y))
    assert core.alt_exponent_sum(y) == expected


def test_classify_prefix_examples():
    assert core.classify_prefix(2 ** 18) == 1
    assert core.classify_prefix(3) == 0
    # prefix of the worked 500000 decomposition after five bits: t = -1
    assert core.classify_prefix(2 ** 18 + 2 ** 17 + 2 ** 16 + 2 ** 15 + 2 ** 13) == 5


def test_classify_prefix_negative_t_normalized():
    # t(2) = -1, floored modulo puts it in 0..5
    assert core.classify_prefix(2) == 5
    assert core.classify_prefix(2 ** 1 + 2 ** 3) == 4  # t = -2


# ---------------------------------------------------------------- closed forms

def test_power_sum_examples():
    assert core.power_sum(4) == 6
    assert core.power_sum(13) == 729
    assert core.power_sum(0) == 1
    with pytest.raises(ValueError):
        core.power_sum(-1)


@pytest.mark.parametrize("m", range(0, 15))
def test_power_sum_vs_brute(m):
    assert core.power_sum(m) == brute.newman(3, 0, 2 ** m)


def test_dyadic_sum_examples():
    assert core.dyadic_sum("even", 8) == 27
    assert core.dyadic_sum("even", 17) == 0
    assert core.dyadic_sum("odd", 3) == 3
    with pytest.raises(ValueError):
        core.dyadic_sum("even", 0)
    with pytest.raises(ValueError):
        core.dyadic_sum("both", 2)


@pytest.mark.parametrize("n", range(2, 14))
def test_dyadic_sum_vs_brute(n):
    parity = "even" if n % 2 == 0 else "odd"
    for m in range(1, n):
        want = brute.newman_interval(3, 0, 2 ** n, 2 ** n + 2 ** m)
        assert core.dyadic_sum(parity, m) == want


def _reduced(tc, m):
    """S_{3,0}([y, y + 2^m)) for a prefix y of class tc, from the table."""
    sign, form, parity = core._REDUCTION_TABLE[tc]
    return sign * (core.power_sum(m) if form == "power" else core.dyadic_sum(parity, m))


def test_reduce_interval_mapping():
    assert core._REDUCTION_TABLE[0] == (1, "power", None)
    assert core._REDUCTION_TABLE[5] == (1, "dyadic", "odd")
    assert _reduced(0, 16) == core.power_sum(16)
    assert _reduced(5, 8) == 27
    # class 2 with m = 4; witness prefix y = 2^8 + 2^6 has t = 2 and its
    # lowest set bit above m, as the reduction requires
    y = 2 ** 8 + 2 ** 6
    assert core.classify_prefix(y) == 2
    assert _reduced(2, 4) == -3
    assert _reduced(2, 4) == brute.newman_interval(3, 0, y, y + 16)


def test_reduce_interval_exhaustive_small():
    # every admissible (prefix, m) with the interval below 2^10
    for y in range(1, 256):
        low = core.bit_exponents(y)[-1]
        for m in range(1, low):
            want = brute.newman_interval(3, 0, y, y + 2 ** m)
            assert _reduced(core.classify_prefix(y), m) == want, (y, m)


def test_boundary_term_examples():
    assert core.boundary_term(1) == 1
    assert core.boundary_term(3) == 0
    # N = 7: the single point n = 6 is a multiple of 3 with sigma(6) = 2
    assert core.boundary_term(7) == 1
    assert core.boundary_term(7) == brute.newman_interval(3, 0, 6, 7)
    with pytest.raises(ValueError):
        core.boundary_term(4)


@pytest.mark.parametrize("N", range(1, 400, 2))
def test_boundary_term_vs_brute(N):
    assert core.boundary_term(N) == brute.newman_interval(3, 0, N - 1, N)


# ------------------------------------------------------------ both algorithms

def test_decomposition_worked_example():
    assert core.newman_sum_decomposition(500000) == 18261
    values = [c * 3 ** j for _, c, j in core.decomposition_terms(500000)]
    assert values == [13122, 0, 4374, 0, 729, 27, 9]


def test_decomposition_trivial():
    assert core.newman_sum_decomposition(0) == 0
    assert core.decomposition_terms(0) == []
    assert core.newman_sum_decomposition(19) == 7


def test_decomposition_vs_brute_exhaustive():
    pref = brute.prefix(3, 0, 1024)
    for N in range(1025):
        assert core.newman_sum_decomposition(N) == pref[N], N


def test_recursion_correction_examples():
    assert core.recursion_correction(7) == 0
    assert core.recursion_correction(4) == -1
    assert core.recursion_correction(13) == 2
    with pytest.raises(ValueError):
        core.recursion_correction(0)


def test_recursion_correction_is_the_recursion_residual():
    # c(N) must equal S(N) - 3*S(N//4) on brute-force values
    pref = brute.prefix(3, 0, 3000)
    for N in range(1, 3000):
        assert core.recursion_correction(N) == pref[N] - 3 * pref[N // 4], N


def test_recursive_worked_example():
    assert core.newman_sum_recursive(500000) == 18261
    assert core.newman_sum_recursive(0) == 0
    assert core.newman_sum_recursive(7) == 3
    corrections = core.recursion_trace(500000)
    assert corrections[0] == 0
    assert (500000 >> 2 * (len(corrections) - 1), corrections[-1]) == (1, 1)
    weighted = [3 ** k * c for k, c in enumerate(corrections)]
    assert sum(weighted) == 18261
    assert [t for t in reversed(weighted) if t] == [19683, -2187, 729, 27, 9]


def test_recursive_vs_brute_exhaustive():
    pref = brute.prefix(3, 0, 1024)
    for N in range(1025):
        assert core.newman_sum_recursive(N) == pref[N], N


@given(st.integers(min_value=0, max_value=1 << 128))
def test_algorithms_agree(x):
    assert core.newman_sum_decomposition(x) == core.newman_sum_recursive(x)


@given(st.integers(min_value=0, max_value=1 << 128))
def test_trace_terms_sum_to_value(x):
    corrections = core.recursion_trace(x)
    assert sum(3 ** k * c for k, c in enumerate(corrections)) == core.newman_sum_recursive(x)
    terms = core.decomposition_terms(x)
    assert sum(c * 3 ** j for _, c, j in terms) == core.newman_sum_decomposition(x)
    # term by term against the whole-integer walks, which must agree
    levels = walks.recursion(x)
    assert corrections == [c for _, c in levels]
    bits = walks.decomposition(x)
    assert [(desc, c * 3 ** j) for desc, c, j in terms] == bits
    assert sum(3 ** k * c for k, (_, c) in enumerate(levels)) == sum(v for _, v in bits)


@given(st.integers(min_value=1, max_value=1 << 128))
def test_positivity_and_growth_cap(N):
    s = core.newman_sum_recursive(N)
    assert 1 <= s <= N


# ---------------------------------------------------------------- digit scan

def _fast_recursive(N):
    return core._run(N, core._recursion_step)


def _fast_decomposition(x):
    return core._run(x >> 1, core._decomposition_step) + (core.boundary_term(x) if x & 1 else 0)


def _horner(digits):
    """sum of digits[k] * 3^k, lowest digit first."""
    s = 0
    for d in reversed(digits):
        s = 3 * s + d
    return s


# bit length first, uniformly, so that sizes up to 2^14 bits are drawn
_BY_BIT_LENGTH = st.sampled_from(range(2 ** 14 + 1)).flatmap(
    lambda b: st.integers(1 << b >> 1, (1 << b) - 1))


def _scalar_recursive(N):
    """The recursion one level at a time: the scan's reference."""
    s = 0
    w = 1
    while N:
        s += w * core.recursion_correction(N)
        N //= 4
        w *= 3
    return s


def _scalar_decomposition(x):
    """The decomposition one set bit at a time: the scan's reference."""
    return sum(v for _, v in walks.decomposition(x))


def _examples(Ns):
    """A decorator that adds each N of Ns as an explicit example."""
    def add(test):
        for N in Ns:
            test = example(N)(test)
        return test
    return add


def _by_length(lengths, rng):
    """The lowest, the highest and a random N of each byte length."""
    return [N for n in lengths
            for N in (1 << 8 * n - 8, (1 << 8 * n) - 1, rng.getrandbits(8 * n) | 1 << 8 * n - 1)]


# Where _run's summing paths and merges change.  2^16 - 1, 2^16 and 2^16 + 1,
# where the scanned value leaves the two-lookup path for the four-byte scan,
# and 2^17 - 1, 2^17 and 2^17 + 1, where the decomposition's scanned x >> 1
# does.  Then N of 3 to 6 bytes, one word with each of its four zero
# paddings, and of 7 to 9 bytes, two words and the first merge.
_at_switch = _examples([2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1,
                        *_by_length(range(3, 10), random.Random(9))])


def _every_29th_bit_length(test):
    """Add a random N of every 29th bit length up to 2^12, then three odd
    N of 2^12 bits."""
    rng = random.Random(12)
    return _examples([*(rng.getrandbits(b) | 1 << b - 1 for b in range(1, 2 ** 12 + 1, 29)),
                      *(rng.getrandbits(2 ** 12) | 1 << 2 ** 12 - 1 | 1 for _ in range(3))])(test)


@settings(max_examples=25)
@given(_BY_BIT_LENGTH)
@_at_switch
def test_digit_scan_matches_scalar_loops(N):
    assert _fast_recursive(N) == _scalar_recursive(N)
    assert _fast_decomposition(N) == _scalar_decomposition(N)


@settings(max_examples=25)
@given(_BY_BIT_LENGTH)
# an odd N past CPython's 4300-digit int->str limit
@example((1 << 2 ** 14) - 1)
@_at_switch
@_every_29th_bit_length
def test_digit_scan_matches_traces(N):
    want = _horner(core.recursion_trace(N))
    assert core.newman_sum_recursive(N) == want
    assert sum(c * 3 ** j for _, c, j in core.decomposition_terms(N)) == want
    assert core.newman_sum_decomposition(N) == want


@pytest.mark.parametrize("bits", [63, 64, 65])
def test_crossover_boundary(bits):
    """Lowest, highest and a random N around a machine word."""
    rng = random.Random(bits)
    for N in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
        want = _scalar_recursive(N)
        assert _scalar_decomposition(N) == want
        assert _horner(core.recursion_trace(N)) == want
        assert core.newman_sum_recursive(N) == want
        assert core.newman_sum_decomposition(N) == want


@pytest.mark.parametrize("l", [0, 1, 2])
def test_digit_scan_small_exhaustive(l):
    # the whole domain of the two-lookup path, a scanned value below 2^16, and
    # one past it, from class l's start state: the recursion scans N, the
    # decomposition x >> 1
    pref = brute.prefix(3, l, 2 ** 17 + 2)
    for N in range(2 ** 16 + 2):
        assert core._residue(l, N, "recursive") == pref[N], N
    for x in range(2 ** 17 + 2):
        assert core._residue(l, x, "decomposition") == pref[x], x


@pytest.mark.parametrize("step, starts", [(core._recursion_step, (0, 4, 8)),
                                          (core._decomposition_step, (0, 2, 4))])
def test_zero_byte_keeps_every_start_state(step, starts):
    """A zero byte read in any class's start state outputs 0 and keeps the
    state: the rule that the two-lookup path, which reads an x < 2^8 as a
    zero top byte, and _words' zero padding rest on."""
    next_state, out = core._TABLES.get(step) or core._byte_table(step)
    for state in starts:
        assert next_state[state << 8] == state << 8, state
        assert out[state << 8] == 0, state


def test_every_residue_class_is_one_scan(monkeypatch):
    """One _words call per _residue of a scanned value from 2^16 on, for
    every class and both algorithms, exact or not, and two per
    six_residue_sum."""
    calls = []
    real = core._words
    monkeypatch.setattr(core, "_words",
                        lambda x, step, start: calls.append(x) or real(x, step, start))
    N = random.Random(36).getrandbits(300) | 1 << 299
    for algorithm in ("recursive", "decomposition"):
        for l in (0, 1, 2):
            for exact in (False, True):
                calls.clear()
                core._residue(l, N, algorithm, exact)
                assert len(calls) == 1, (algorithm, l, exact)
    for j in range(6):
        calls.clear()
        core.six_residue_sum(j, N, 3 * N)
        assert len(calls) == 2, j


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_four_byte_scan_matches_traces(extra):
    """N whose top word holds ``extra`` bytes, padded on top with 3, 2, 1 or
    0 zero bytes: of 3 to 9 bytes, one word and the first merge, and of 161
    to 164 bytes.  The lowest, the highest and random N of each length,
    against the traces, which walk the digits one at a time without the
    byte tables."""
    rng = random.Random(extra)
    for n in (*range(3, 10), *range(161, 165)):
        if n % 4 != extra % 4:
            continue
        for N in (1 << 8 * n - 8, (1 << 8 * n) - 1,
                  *(rng.getrandbits(8 * n) | 1 << 8 * n - 1 for _ in range(4))):
            want = _horner(core.recursion_trace(N))
            assert core.newman_sum_recursive(N) == want, N
            assert core.newman_sum_decomposition(N) == want, N
            assert sum(c * 3 ** j for _, c, j in core.decomposition_terms(N)) == want, N


def test_recursive_sum_memory_is_a_fraction_of_n():
    # under 32 bytes per byte of N (0.125 MiB): the four-byte scan keeps one
    # one-digit int per 4 bytes of N and reads 0.07 MiB; one int per byte, as
    # a scan of one byte a step keeps, reads 0.20 MiB
    N = random.Random(2 ** 15).getrandbits(2 ** 15) | 1 << 2 ** 15 - 1
    core.newman_sum_recursive(N)        # the tables any call fills
    tracemalloc.start()
    try:
        core.newman_sum_recursive(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 15 // 8, f"{peak / 2 ** 20:.3f} MiB"


def test_assemble():
    assert core._assemble([]) == 0
    assert core._assemble([4, 0, -1, 2]) == 4 * 81 ** 3 - 81 + 2
    assert core._assemble([5, 0, 0]) == 5 * 81 ** 2     # an odd level's padding is on top
    assert core._assemble([3, -1, 2], 81 ** 4) == 3 * 81 ** 8 - 81 ** 4 + 2
    rng = random.Random(7)
    # odd and even lengths at every merge level of the short lists
    for n in (*range(20), 45, 1000):
        digits = [rng.randint(-121, 121) for _ in range(n)]
        want = sum(d * 81 ** i for i, d in enumerate(reversed(digits)))
        assert core._assemble(digits) == want, n


def test_exact_assemble_merges_in_decimal_from_its_level():
    """With exact, the levels from the first whose base has _DECIMAL_BITS
    bits merge Decimal values; a merge that ends below that level stays an
    int.  Both give the int merge's value, in a caller's 28-digit context:
    the Decimal levels run in core's own exact one."""
    base = 81 ** 4
    switch = next(level for level in range(20)
                  if (base ** (1 << level)).bit_length() >= core._DECIMAL_BITS)
    rng = random.Random(switch)
    with localcontext(Context(prec=28)):
        # a list of w digits merges through levels 0 .. (w - 1).bit_length() - 1
        for top in (switch - 1, switch, switch + 1):
            for w in ((1 << top) + 1, 3 << top >> 1, 1 << top + 1):
                digits = [rng.randint(-43046720, 43046720) for _ in range(w)]
                want = sum(d * base ** i for i, d in enumerate(reversed(digits)))
                value = core._assemble(digits, base, True)
                assert isinstance(value, Decimal) == (top >= switch), (top, w)
                assert value == want, (top, w)
                assert core._assemble(digits, base) == want
        assert core._assemble([], base, True) == 0
        assert core._assemble([-7], base, True) == -7


def test_exact_residue_is_exact_in_a_28_digit_context():
    """core enters its own exact context: in a caller's 28-digit one, the
    exact residue sums of a 2^13-bit N, Decimals, equal the int route."""
    N = random.Random(2 ** 13).getrandbits(2 ** 13) | 1 << 2 ** 13 - 1
    with localcontext(Context(prec=28)):
        for algorithm in ("recursive", "decomposition"):
            for l in (0, 1, 2):
                value = core._residue(l, N, algorithm, exact=True)
                assert isinstance(value, Decimal), (algorithm, l)
                assert value == core._residue(l, N, algorithm), (algorithm, l)


def test_fast_paths_at_2_16_bits():
    # 2^16 bits: 8192 digits halve evenly to one; 5461 bytes: the digit count
    # is odd at seven merge levels
    for bits in (2 ** 16, 8 * 5461):
        N = random.Random(16).getrandbits(bits) | 1 << (bits - 1)
        # the recursion level by level, without a 2^15-entry trace list
        want = _horner([core.recursion_correction(N >> 2 * k)
                        for k in range((N.bit_length() + 1) // 2)])
        assert core.newman_sum_recursive(N) == want, bits
        assert core.newman_sum_decomposition(N) == want, bits


@pytest.mark.parametrize("step, states", [(core._recursion_step, 12),
                                          (core._decomposition_step, 6)])
def test_byte_table_matches_digit_walk(step, states):
    """Every (state, byte) entry against the byte's four base-4 digits walked
    through the step table, top digit first, with the outputs summed by
    Horner's rule in base 3."""
    rows = core._step_table(step)
    want_state, want_out = [], []
    for state in range(states):
        for byte in range(256):
            s, value = state, 0
            for shift in (6, 4, 2, 0):
                s, c = rows[s][byte >> shift & 3]
                value = 3 * value + c
            want_state.append(s << 8)
            want_out.append(value)
    next_state, out = core._byte_table(step)
    assert (next_state.typecode, out.typecode) == ("H", "b")
    assert next_state.tolist() == want_state
    assert out.tolist() == want_out


def test_byte_table_build_peaks_small():
    # the arrays take 9 KiB; the bound leaves room for one stage of 16-entry
    # pair rows, not for a 3072-entry table of (state, digit) tuples
    core._TABLES.clear()
    tracemalloc.start()
    try:
        core._byte_table(core._recursion_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        core._TABLES.clear()
    assert peak < 0.05 * 2 ** 20


def test_byte_tables_built_once_per_evaluator(monkeypatch):
    # every size of N, the two summing paths of _run included (two lookups
    # below 2^16 and the four-byte scan from there), shares one pair of
    # tables per step function
    builds = []
    real = core._step_table
    monkeypatch.setattr(core, "_step_table", lambda step: builds.append(step) or real(step))
    monkeypatch.setattr(core, "_TABLES", {})
    rng = random.Random(28)
    for bits in [0, 1, 2, 7, 8, 9, *range(15, 75), 2 ** 12, 2 ** 14]:
        N = rng.getrandbits(bits) | 1 << bits >> 1
        assert core.newman_sum_decomposition(N) == core.newman_sum_recursive(N), bits
        for l in (0, 1, 2):
            core.residue_sum(l, N)
            core.residue_sum(l, N, core.newman_sum_decomposition)
    assert set(core._TABLES) == {core._recursion_step, core._decomposition_step}
    assert sorted(builds, key=id) == sorted(core._TABLES, key=id)
    core.newman_sum_decomposition(rng.getrandbits(2 ** 14))
    core.newman_sum_recursive(rng.getrandbits(2 ** 14))
    assert len(builds) == len(core._TABLES) == 2


# ------------------------------------------------------------- residue classes

def test_residue_sum_examples():
    assert core.residue_sum(1, 8) == -3
    assert core.residue_sum(2, 8) == 0
    assert core.residue_sum(0, 500000) == 18261
    with pytest.raises(ValueError):
        core.residue_sum(3, 8)
    with pytest.raises(ValueError):
        core.residue_sum(-1, 8)


def test_residue_sum_vs_brute():
    for l in (0, 1, 2):
        pref = brute.prefix(3, l, 300)
        for N in range(301):
            assert core.residue_sum(l, N) == pref[N], (l, N)
            assert core.residue_sum(l, N, evaluate=core.newman_sum_decomposition) \
                == pref[N], (l, N)
            # any other evaluator is called once per row entry
            assert core.residue_sum(l, N, evaluate=lambda n: brute.newman(3, 0, n)) \
                == pref[N], (l, N)


def test_residue_two_by_the_recursion_at_4n():
    """S_{3,2}(N) = S(2N) - 2*S(N) - c(4N), the recursion's step at 4N in
    the row S_{3,2} = S(N) + S(2N) - S(4N), from the oracle's S_{3,0} and
    S_{3,2} at every N < 5000."""
    S0 = oracle.oracle_prefix(3, 0, 2 * 5000)
    S2 = oracle.oracle_prefix(3, 2, 5000)
    for N in range(5000):
        c = core.recursion_correction(4 * N) if N else 0
        assert S2[N] == S0[2 * N] - 2 * S0[N] - c, N
        assert core.residue_sum(2, N) == S2[N], N


def test_six_residue_examples():
    assert core.six_residue_sum(0, 0, 8) == 3
    assert core.six_residue_sum(1, 0, 4) == -2
    for j in range(6):
        assert core.six_residue_sum(j, 5, 5) == 0
    with pytest.raises(ValueError):
        core.six_residue_sum(0, 4, 3)
    with pytest.raises(ValueError):
        core.six_residue_sum(6, 0, 4)
    with pytest.raises(ValueError):
        core.six_residue_sum(-1, 0, 4)


def test_six_residue_vs_brute_exhaustive():
    prefs = [brute.prefix(6, j, 96) for j in range(6)]
    for x in range(48):
        for y in range(x + 1, 48):
            for j in range(6):
                want = prefs[j][2 * y] - prefs[j][2 * x]
                assert core.six_residue_sum(j, x, y) == want, (j, x, y)


def test_scaled_residue_examples():
    assert core.scaled_residue_sum(0, 0, 0, 4) == 6
    assert core.scaled_residue_sum(1, 0, 1, 5) == -6
    # sigma(3) even, so the sign is +; brute gives S_{12,7}(64) = -3
    assert core.scaled_residue_sum(2, 1, 3, 6) == -3
    assert core.scaled_residue_sum(2, 1, 3, 6) == brute.newman(12, 7, 64)


def test_scaled_residue_rejects_bad_args():
    for m, r in ((2, 4), (2, -1), (0, 1), (0, -1)):   # r outside 0..2^m - 1
        with pytest.raises(ValueError, match=r"^r must satisfy 0 <= r < 2\^m$"):
            core.scaled_residue_sum(m, 1, r, 6)
    with pytest.raises(ValueError):
        core.scaled_residue_sum(3, 1, 0, 3)  # n <= m
    with pytest.raises(ValueError):
        core.scaled_residue_sum(1, 3, 0, 4)  # bad k


def test_scaled_residue_range_check_builds_no_power_of_two():
    # r = 0 at m = 10^7: a check of r < 2^m that builds 2 ** m peaks over 4 MiB
    m = 10 ** 7
    tracemalloc.start()
    try:
        value = core.scaled_residue_sum(m, 1, 0, m + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == core.residue_sum(1, 4) == -1
    assert peak < 2 ** 20


def test_scaled_residue_vs_brute():
    for m in range(4):
        for n in range(m + 1, 11):
            for k in (0, 1, 2):
                for r in range(2 ** m):
                    want = brute.newman(3 * 2 ** m, k * 2 ** m + r, 2 ** n)
                    got = core.scaled_residue_sum(m, k, r, n)
                    assert got == want, (m, k, r, n)


def test_digit_dp_matches_brute():
    for m in range(1, 13):
        prefs = [brute.prefix(m, l, 600) for l in range(m)]
        for N in range(601):
            assert digit_dp.sums(m, N) == [pref[N] for pref in prefs], (m, N)


@pytest.mark.parametrize("bits", [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14])
def test_residue_sums_match_digit_dp(bits):
    """The evaluators and every residue sum at a seeded random N of ``bits``
    bits, far past brute-force sizes, against the definition's digit DP."""
    rng = random.Random(bits)
    N = rng.getrandbits(bits) | 1 << bits - 1
    want = digit_dp.sums(3, N)
    assert core.newman_sum_recursive(N) == core.newman_sum_decomposition(N) == want[0]
    assert [core.residue_sum(l, N) for l in range(3)] == want
    assert [core.residue_sum(l, N, evaluate=core.newman_sum_decomposition)
            for l in range(3)] == want
    x = rng.randrange(N)
    want = [b - a for a, b in zip(digit_dp.sums(6, 2 * x), digit_dp.sums(6, 2 * N))]
    assert [core.six_residue_sum(j, x, N) for j in range(6)] == want
    for m in range(4):
        want = digit_dp.sums(3 * 2 ** m, 2 ** bits)
        got = [core.scaled_residue_sum(m, k, r, bits) for k in range(3) for r in range(2 ** m)]
        assert got == want, m


class _Index:
    """An integer-like object with nothing but ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_residue_sums_take_index_class_arguments():
    for l in (0, 1, 2):
        assert core.residue_sum(_Index(l), _Index(77)) == core.residue_sum(l, 77)
    for j in range(6):
        assert core.six_residue_sum(_Index(j), _Index(5), _Index(30)) \
            == core.six_residue_sum(j, 5, 30)
    for k in (0, 1, 2):
        for r in range(4):
            assert core.scaled_residue_sum(_Index(2), _Index(k), _Index(r), _Index(7)) \
                == core.scaled_residue_sum(2, k, r, 7)
    with pytest.raises(ValueError):
        core.residue_sum(_Index(3), 8)
    with pytest.raises(ValueError):
        core.six_residue_sum(_Index(6), 0, 4)
    with pytest.raises(ValueError):
        core.scaled_residue_sum(2, _Index(1), _Index(4), 6)


def test_index_objects_accepted():
    assert core.digit_sum(_Index(500000)) == 7
    assert core.thue_morse_sign(_Index(7)) == -1
    assert core.boundary_term(_Index(7)) == 1
    assert core.recursion_correction(_Index(13)) == core.recursion_correction(13)
    assert list(analysis.scan(_Index(1), _Index(30), _Index(7))) == list(analysis.scan(1, 30, 7))
    assert analysis.extremal_sequences(_Index(10)) == analysis.extremal_sequences(10)
    assert analysis.eta_rows(_Index(9)) == analysis.eta_rows(9)
    assert analysis.eta_row(_Index(9)) == analysis.eta_row(9)
    for fn, bad in ((core.digit_sum, -1), (core.thue_morse_sign, -1),
                    (core.boundary_term, 4), (core.recursion_correction, 0),
                    (analysis.extremal_sequences, 7), (analysis.eta_rows, 0)):
        with pytest.raises(ValueError):
            fn(_Index(bad))
    with pytest.raises(ValueError):
        next(analysis.scan(_Index(5), _Index(5)))


# Every function that takes a natural-number argument, as a one-argument call,
# with the least value it accepts and its ValueError text below that.
# bound_blocks and scan are generators, so they check at the first next().
_NATURAL_ARGUMENTS = (
    (core.digit_sum, 0, "digit_sum needs n >= 0"),
    (core.thue_morse_sign, 0, "thue_morse_sign needs n >= 0"),
    (core.bit_exponents, 0, "bit_exponents needs x >= 0"),
    (core.alt_exponent_sum, 1, "alt_exponent_sum needs y >= 1"),
    (core.power_sum, 0, "power_sum needs m >= 0"),
    (lambda m: core.dyadic_sum("odd", m), 1, "dyadic_sum needs m >= 1"),
    (core.newman_sum_decomposition, 0, "newman_sum_decomposition needs x >= 0"),
    (core.decomposition_terms, 0, "decomposition_terms needs x >= 0"),
    (core.recursion_correction, 1, "recursion_correction needs N >= 1"),
    (core.newman_sum_recursive, 0, "newman_sum_recursive needs N >= 0"),
    (core.recursion_trace, 0, "recursion_trace needs N >= 0"),
    (lambda N: core.residue_sum(2, N), 0, "residue_sum needs N >= 0"),
    (lambda m: core.scaled_residue_sum(m, 1, 0, 3), 0, "scaled_residue_sum needs m >= 0"),
    (analysis.delta, 1, "delta needs N >= 1"),
    (analysis.lower_bound, 1, "lower_bound needs N >= 1"),
    (analysis.upper_bound, 2, "upper_bound needs N >= 2"),
    (analysis.coquet_ratio, 2, "coquet_ratio needs x >= 2"),
    (analysis.newman_inequality_check, 1, "newman_inequality_check needs x >= 1"),
    (analysis.eta_defined, 1, "eta_defined needs x >= 1"),
    (analysis.eta_derived, 1, "eta_derived needs x >= 1"),
    (analysis.eta_half, 0, "eta_half needs k >= 0"),
    (analysis.delta_record, 1, "delta_record needs N >= 1"),
    (lambda n: next(analysis.bound_blocks(n)), 1, "bound_blocks needs max_n >= 1"),
    (analysis.extremal_sequences, 8, "extremal_sequences needs n_max >= 8"),
    (lambda start: next(analysis.scan(start, 9)), 1, "scan needs 1 <= start < stop"),
    (lambda step: next(analysis.scan(1, 9, step)), 1, "scan needs step >= 1"),
    (analysis.eta_row, 1, "eta_row needs x >= 1"),
    (analysis.eta_rows, 1, "eta_rows needs x_max >= 1"),
    (verify.run_core_checks, 0, "run_core_checks needs max_n >= 0"),
    (verify.bounds_sweep, 2, "bounds_sweep needs max_n >= 2"),
)


@pytest.mark.parametrize("fn, least, message", _NATURAL_ARGUMENTS,
                         ids=[m.split()[0] for _, _, m in _NATURAL_ARGUMENTS])
def test_natural_argument_contract(fn, least, message):
    fn(least)
    fn(_Index(least))
    with pytest.raises(ValueError) as exc:
        fn(least - 1)
    assert str(exc.value) == message
    with pytest.raises(TypeError):
        fn(1.5)
