"""Acceptance suite: one test per acceptance criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criterion 5 is split in two: the
substantive constant/plateau checks, and the 9-decimal comparison of the
plateau constants.  The latter asserts the correct roundings 0.483459078 and
0.670720517 of the exact constants 2/6^lam and 55/(3*65^lam); the paper's
printed 0.483459079 and 0.670720518 are the same closed forms at lam rounded
to 0.79248125, and the test asserts that too.
"""

import functools
import random
import time

from mpmath import mp

from newmansum import analysis, core, oracle, verify


def _mpf(x):
    """A public value, a Decimal or a float, as an mpf at the ambient
    mpmath precision: a Decimal through its text, a float exactly."""
    return mp.mpf(x if isinstance(x, float) else str(x))


def _report(name, ok, detail=""):
    tail = f": {detail}" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")


def _best_of(fn, repeats=5):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_criterion_1_checkpoint_value():
    dec = core.newman_sum_decomposition(500000)
    rec = core.newman_sum_recursive(500000)
    t0 = time.perf_counter()
    orc = oracle.oracle_sum(3, 0, 500000)
    t_orc = time.perf_counter() - t0
    assert dec == rec == orc == 18261

    terms = [c * 3 ** j for _, c, j in core.decomposition_terms(500000)]
    assert terms == [2 * 3 ** 8, 0, 2 * 3 ** 7, 0, 3 ** 6, 3 ** 3, 3 ** 2]
    assert terms == [13122, 0, 4374, 0, 729, 27, 9]

    corrections = core.recursion_trace(500000)
    weighted = [3 ** k * c for k, c in enumerate(corrections)]
    concluding = [t for t in reversed(weighted) if t != 0]
    assert concluding == [19683, -2187, 729, 27, 9]

    t_dec = _best_of(lambda: core.newman_sum_decomposition(500000))
    t_rec = _best_of(lambda: core.newman_sum_recursive(500000))
    assert t_dec < 0.010, f"decomposition took {t_dec * 1e3:.3f} ms"
    assert t_rec < 0.010, f"recursion took {t_rec * 1e3:.3f} ms"
    assert t_orc < 60.0, f"oracle took {t_orc:.1f} s"
    _report("criterion 1 (checkpoint 500000)", True,
            f"dec {t_dec * 1e3:.3f} ms, rec {t_rec * 1e3:.3f} ms, "
            f"oracle {t_orc * 1e3:.0f} ms")


def test_criterion_2_oracle_equivalence_to_65536():
    t0 = time.perf_counter()
    pref = oracle.oracle_prefix(3, 0, 65536)
    bad = [N for N in range(65537)
           if core.newman_sum_decomposition(N) != pref[N]
           or core.newman_sum_recursive(N) != pref[N]]
    elapsed = time.perf_counter() - t0
    assert bad == [], f"first mismatch at N={bad[:1]}"
    assert elapsed < 300, f"sweep took {elapsed:.0f} s"
    _report("criterion 2 (equivalence 0..65536)", True, f"{elapsed:.1f} s")


def test_criterion_3_closed_forms_exact():
    checks = 0
    for m in range(19):
        assert core.power_sum(m) == oracle.oracle_sum(3, 0, 2 ** m), m
        checks += 1
    for n in range(2, 19):
        parity = "even" if n % 2 == 0 else "odd"
        for m in range(1, n):
            want = oracle.oracle_interval_sum(3, 0, 2 ** n, 2 ** n + 2 ** m)
            assert core.dyadic_sum(parity, m) == want, (n, m)
            checks += 1
    _report("criterion 3 (closed forms, n <= 18)", True, f"{checks} identities")


def test_criterion_4_sharp_bounds_to_1e6():
    rep = verify.bounds_sweep(10 ** 6)
    assert rep.bound_violations == []
    assert rep.newman_violations == []

    # attainment: equality holds at 3, 19 and 67, and nothing earlier
    assert rep.lower_attained[0] == 3
    assert rep.upper_attained[0] == 19
    assert 67 in rep.upper_attained
    assert core.newman_sum_recursive(3) == analysis.lower_bound(3)
    assert core.newman_sum_recursive(19) == analysis.upper_bound(19)
    assert core.newman_sum_recursive(67) == analysis.upper_bound(67)

    # exercise the exact high-precision bound functions directly on a
    # subrange.  The sweep's block walk cross-checks them every 9973rd N
    # over the full million; test_analysis checks the float evaluator
    # behind the walk and scan against them at every N up to 5002, every
    # 7th N up to 20002, around 10^9 and on the families 6*4^k and 260*4^k.
    pref = oracle.oracle_prefix(3, 0, 5000)
    for N in range(2, 5001):
        assert analysis.lower_bound(N) <= pref[N] <= analysis.upper_bound(N), N
    _report("criterion 4 (bounds to 1e6)", True,
            f"{rep.checks} checks, lower attained first at "
            f"{rep.lower_attained[0]}, upper at {rep.upper_attained[:2]}")


def test_criterion_5_coquet_constants():
    X = 10 ** 5
    pref = oracle.oracle_prefix(3, 0, 3 * X + 1)
    lam = analysis.LAMBDA
    lim_inf = float(analysis.ratio_liminf())

    lo = float("inf")
    hi = 0.0
    attained = []
    for x in range(2, X + 1):
        r = pref[3 * x] / x ** lam
        lo = min(lo, r)
        hi = max(hi, r)
        if abs(r - lim_inf) < 1e-9:
            attained.append(x)

    assert lo >= lim_inf - 1e-9
    # (55/3)(3/65)^lam at lam = 0.79248125; the exact limsup is 1.6019584206
    assert hi <= 1.601958422
    assert hi > 1.59
    assert attained == [2 * 4 ** k for k in range(8)]  # 2, 8, 32, ..., 32768

    # the exact op agrees with the float sweep at the attainment points
    with mp.workdps(40):
        for x in attained:
            assert abs(_mpf(analysis.coquet_ratio(x)) - _mpf(analysis.ratio_liminf())) < mp.mpf("1e-30")

    # exact plateaus of delta on the two extremal families
    with mp.workdps(40):
        base_inf = _mpf(analysis.delta(2 ** 2 + 2 ** 1))
        for n in range(2, 41, 2):
            d = _mpf(analysis.delta(2 ** n + 2 ** (n - 1)))
            assert abs(d - base_inf) / base_inf < mp.mpf("1e-12"), n
        base_sup = _mpf(analysis.delta(2 ** 8 + 2 ** 2))
        for n in range(8, 41, 2):
            d = _mpf(analysis.delta(2 ** n + 2 ** (n - 6)))
            assert abs(d - base_sup) / base_sup < mp.mpf("1e-12"), n
        # and the plateaus are the symbolic constants themselves
        assert abs(base_inf - _mpf(analysis.delta_liminf())) < mp.mpf("1e-30")
        assert abs(base_sup - _mpf(analysis.delta_limsup())) < mp.mpf("1e-30")

    _report("criterion 5 (coquet constants)", True,
            f"ratio range [{lo:.12f}, {hi:.12f}], min attained at {attained}")


def _plateaus(lam):
    """The closed forms 2/6^lam and 55/(3*65^lam) at the ambient precision."""
    return 2 / mp.mpf(6) ** lam, 55 / (3 * mp.mpf(65) ** lam)


def test_criterion_5_printed_decimal_match():
    """Plateau constants printed to 9 decimals against their references.

    The exact constants 2/6^lam = 0.4834590783544287... and
    55/(3*65^lam) = 0.6707205165604089... round to 0.483459078 and
    0.670720517, and the plateaus must print as exactly those.  The paper
    prints 0.483459079 and 0.670720518: the same closed forms evaluated at
    lam rounded to eight places, 0.79248125, which give 0.48345907867 and
    0.67072051757.
    """
    p_inf = float(analysis.delta_liminf())
    p_sup = float(analysis.delta_limsup())
    for p, ref in ((p_inf, "0.483459078"), (p_sup, "0.670720517")):
        assert f"{p:.9f}" == ref, f"plateau {p:.13f} prints {p:.9f}, not {ref}"
        assert abs(p - float(ref)) <= 5e-10, (
            f"plateau {p:.13f} is {abs(p - float(ref)):.3g} from {ref}")

    # the plateaus are these closed forms at lam, and the paper's decimals
    # are the same closed forms at lam rounded to eight places
    assert f"{analysis.LAMBDA:.8f}" == "0.79248125"
    with mp.workdps(40):
        exact = _plateaus(_mpf(analysis.growth_exponent()))
        assert abs(exact[0] - _mpf(analysis.delta_liminf())) < mp.mpf("1e-30")
        assert abs(exact[1] - _mpf(analysis.delta_limsup())) < mp.mpf("1e-30")
        paper = _plateaus(mp.mpf("0.79248125"))
    printed = tuple(f"{float(v):.9f}" for v in paper)
    assert printed == ("0.483459079", "0.670720518"), printed
    _report("criterion 5 (printed 9-digit decimals)", True,
            f"{p_inf:.13f} -> {p_inf:.9f}, {p_sup:.13f} -> {p_sup:.9f}; "
            f"at lam = 0.79248125 the paper's {printed[0]}, {printed[1]}")


def test_criterion_6_eta_discrepancy_table():
    xs = (1, 3, 5, 7, 9)
    derived = tuple(analysis.eta_derived(x) for x in xs)
    defined = tuple(analysis.eta_defined(x) for x in xs)
    assert derived == (-1, -1, -1, 1, -1)
    assert defined == (1, 1, 1, 1, 1)
    rows = analysis.eta_rows(9)
    assert [r.agree for r in rows] == [False, False, False, True, False]
    _report("criterion 6 (eta discrepancy)", True,
            f"derived {derived} vs defined {defined}")


def test_criterion_7_residue_extensions(monkeypatch):
    # the identities evaluate S at the same few thousand N over and over
    monkeypatch.setattr(core, "newman_sum_recursive",
                        functools.cache(core.newman_sum_recursive))
    checks = 0

    for l in (1, 2):
        pref = oracle.oracle_prefix(3, l, 4096)
        for N in range(4097):
            assert core.residue_sum(l, N) == pref[N], (l, N)
            checks += 1

    prefs6 = [oracle.oracle_prefix(6, j, 2048) for j in range(6)]
    for j in range(6):
        pj = prefs6[j]
        for x in range(1024):
            for y in range(x + 1, 1025):
                assert core.six_residue_sum(j, x, y) == pj[2 * y] - pj[2 * x], (j, x, y)
                checks += 1

    for m in range(5):
        for n in range(m + 1, 17):
            for k in (0, 1, 2):
                for r in range(2 ** m):
                    want = oracle.oracle_sum(3 * 2 ** m, k * 2 ** m + r, 2 ** n)
                    assert core.scaled_residue_sum(m, k, r, n) == want, (m, k, r, n)
                    checks += 1

    _report("criterion 7 (residue extensions)", True, f"{checks} identities")


def test_criterion_8_random_256_bit_agreement():
    rng = random.Random(20240809)
    slow = []
    for _ in range(1000):
        N = rng.getrandbits(256)
        t0 = time.perf_counter()
        a = core.newman_sum_decomposition(N)
        t1 = time.perf_counter()
        b = core.newman_sum_recursive(N)
        t2 = time.perf_counter()
        assert a == b, N
        assert N == 0 or a >= 1, N
        if t1 - t0 >= 0.010:
            slow.append((N, core.newman_sum_decomposition))
        if t2 - t1 >= 0.010:
            slow.append((N, core.newman_sum_recursive))

    # re-time outliers to shed scheduler noise before judging the budget
    for N, fn in slow:
        dt = _best_of(lambda: fn(N), repeats=3)
        assert dt < 0.010, f"{fn.__name__}({N}) took {dt * 1e3:.2f} ms"

    _report("criterion 8 (1000 random 256-bit N)", True,
            f"{len(slow)} evaluations re-timed")
