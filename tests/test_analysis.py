import random
import sys
from decimal import Decimal

import pytest
from mpmath import mp

import brute
from newmansum import analysis, core, verify


def _mpf(x):
    """A public value, a Decimal or a float, as an mpf at the ambient
    mpmath precision: a Decimal through its text, a float exactly."""
    return mp.mpf(x if isinstance(x, float) else str(x))


def test_growth_exponent_bracket():
    assert 0.792481250 < analysis.LAMBDA < 0.792481251
    lam = analysis.growth_exponent()
    with mp.workdps(40):
        assert abs(mp.mpf(4) ** _mpf(lam) - 3) < mp.mpf("1e-35")


def test_delta_examples():
    assert analysis.delta(1) == 1
    with mp.workdps(40):
        assert abs(_mpf(analysis.delta(2)) - 1 / mp.sqrt(3)) < mp.mpf("1e-30")
        # the infimum over all N >= 1 is 1/3^lam, met at N = 3
        assert abs(_mpf(analysis.delta(3))
                   - 3 ** (-_mpf(analysis.growth_exponent()))) < mp.mpf("1e-30")
        assert abs(_mpf(analysis.delta(6)) - _mpf(analysis.delta_liminf())) < mp.mpf("1e-30")
    with pytest.raises(ValueError):
        analysis.delta(0)


def test_symbolic_constants():
    # leading digits of the four sharp constants
    assert str(analysis.delta_liminf())[:7] == "0.48345"[:7]
    assert str(analysis.delta_limsup()).startswith("0.670720516")
    assert str(analysis.ratio_liminf()).startswith("1.154700538")
    assert str(analysis.ratio_limsup()).startswith("1.601958420")
    with mp.workdps(40):
        # internal consistency: the delta and ratio scales differ by 3^lam
        lam = _mpf(analysis.growth_exponent())
        assert abs(_mpf(analysis.ratio_limsup())
                   - _mpf(analysis.delta_limsup()) * 3 ** lam) < mp.mpf("1e-30")
        assert abs(_mpf(analysis.ratio_liminf())
                   - _mpf(analysis.delta_liminf()) * 3 ** lam) < mp.mpf("1e-30")


def test_lower_bound_examples():
    assert analysis.lower_bound(3) == 1
    assert analysis.lower_bound(6) == 2
    assert analysis.lower_bound(1) == 0
    with pytest.raises(ValueError):
        analysis.lower_bound(0)


def test_upper_bound_examples():
    assert analysis.upper_bound(19) == 7
    assert analysis.upper_bound(65) == 19
    assert analysis.upper_bound(260) == 55
    with pytest.raises(ValueError):
        analysis.upper_bound(1)


def test_bounds_attained_at_the_extremes():
    assert core.newman_sum_recursive(3) == analysis.lower_bound(3) == 1
    assert core.newman_sum_recursive(19) == analysis.upper_bound(19) == 7
    assert core.newman_sum_recursive(67) == analysis.upper_bound(67) == 19


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20, 40])
def test_lower_bound_exact_on_the_liminf_family(k):
    # 2*(N/6)^lam is exactly 2*3^k at N = 6*4^k; naive flooring of a value
    # computed a hair below would lose 1
    assert analysis.lower_bound(6 * 4 ** k) == 2 * 3 ** k


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20, 40])
def test_upper_bound_exact_on_the_limsup_family(k):
    # (55/3)*(N/65)^lam is exactly 55*3^(k-1) at N = 65*4^k
    assert analysis.upper_bound(65 * 4 ** k) == 55 * 3 ** (k - 1)


def test_decimal_bound_decides_a_near_integer_by_its_enclosure(monkeypatch):
    # N = base = 6 makes v = num/den exactly; here v = 12345 - 10^-25,
    # which a snap to any integer within 1e-20 would round to 12345.
    # 20 digits past the integer part leave 12345 in the enclosure, and
    # the second evaluation, with 40, decides
    precisions = []
    power = analysis._power

    def recorded(*args):
        precisions.append(args[-1])
        return power(*args)
    monkeypatch.setattr(analysis, "_power", recorded)
    num, den = 12345 * 10 ** 25 - 1, 10 ** 25
    assert analysis._bound(6, None, None, (num, den, 6, 0)) == 12344
    assert analysis._bound(6, None, None, (num, den, 6, 1)) == 12345
    assert precisions == [25, 45] * 2


def _decimal_bound(N, lower):
    """The lower or upper bound at N from the decimal path alone, _bound
    given no float, which bounds_sweep's spot checks compare the
    float-first bounds with."""
    if lower:
        return analysis._bound(N, None, analysis._C_LO, analysis._LOWER)
    return analysis._bound(N, None, analysis._C_HI, analysis._UPPER)


def _count_walks(monkeypatch):
    """Wrap analysis._walk, the decimal path, and return the N it walks at,
    by value: 0 and 1 for the lower and upper bound, whose walks evaluate
    _power over their den (1 and 3), and "text" for a delta text."""
    walks = {0: [], 1: [], "text": []}
    walk, dens = analysis._walk, (analysis._LOWER[1], analysis._UPPER[1])

    def counted(digits, judge, cap, evaluate, *args):
        if evaluate is analysis._delta_at:
            walks["text"].append(args[0])
        else:
            walks[dens.index(args[1])].append(args[2])
        return walk(digits, judge, cap, evaluate, *args)
    monkeypatch.setattr(analysis, "_walk", counted)
    return walks


# k with 6*4^k and 260*4^k below 2^4096; from k = 154 on, neighbours
# N -+ 1, 2 lie within 1e-20 of the family integer
_FAMILY_K = [*range(12), 100, *range(153, 159), 500, 1000, 2043]


@pytest.mark.parametrize("k", _FAMILY_K)
def test_families_and_neighbours_are_exact_to_2_4096(k):
    # 2(N/6)^lam = 2*3^k at N = 6*4^k and (55/3)(N/65)^lam = 55*3^k at
    # N = 260*4^k.  By Bernoulli's inequality, N -+ 1, 2 move the first by
    # under (2/3)(3/4)^k and the second by under (11/26)(3/4)^k, both
    # below 1, and away from the integer
    two, top = 2 * 3 ** k, 55 * 3 ** k
    assert [analysis.lower_bound(6 * 4 ** k + d) for d in (-2, -1, 0, 1, 2)] \
        == [two - 1, two - 1, two, two, two]
    assert [analysis.upper_bound(260 * 4 ** k + d) for d in (-2, -1, 0, 1, 2)] \
        == [top, top, top, top + 1, top + 1]


def test_values_on_an_integer_stop_at_the_precision_cap(monkeypatch):
    # evaluations that land on an integer settle a bound only at a family
    # point or next to one; anywhere else every guard up to the cap is
    # tried, and then the bound is refused.  So is a delta that lands on a
    # tie of its 12-digit rounding
    precisions = []
    power = analysis._power

    def on_an_integer(*args):
        precisions.append(args[-1])
        return power(*args).to_integral_value()
    monkeypatch.setattr(analysis, "_power", on_an_integer)
    assert _decimal_bound(6 * 4 ** 5, True) == 2 * 3 ** 5
    assert _decimal_bound(65 * 4 ** 5, False) == 55 * 3 ** 4
    assert _decimal_bound(260 * 4 ** 5 + 1, False) == 55 * 3 ** 5 + 1
    assert _decimal_bound(6 * 4 ** 5 - 1, True) == 2 * 3 ** 5 - 1
    assert len(precisions) == 4
    precisions.clear()
    with pytest.raises(analysis.PrecisionCapError, match="at a 10-bit N"):
        _decimal_bound(1000, True)
    assert [p - precisions[0] for p in precisions] == [0, 20, 60, 140, 300, 620]
    assert analysis._MAX_GUARD == 640
    precisions.clear()

    def on_a_tie(*args):
        precisions.append(args[-1])
        return Decimal("0.4834590783545")
    monkeypatch.setattr(analysis, "_power", on_a_tie)
    with pytest.raises(analysis.PrecisionCapError, match="640 digits past its 12th"):
        analysis._exact_text(6, 2)
    # the text walks the bounds' ladder: 12 + _GUARD * 2^i, to 12 + _MAX_GUARD
    assert precisions == [32, 52, 92, 172, 332, 652]


def _reference_bound(N, lower):
    """floor(2*(N/6)^lam) or ceil((55/3)*(N/65)^lam) at 200 digits past
    the integer part (N has at least as many digits as either value).

    A value within 10^-150 of an integer is taken as that integer, which
    200 digits cannot tell apart from it.  Among the N tested here only
    the family members 6*4^k and 65*4^k come that close: their neighbours
    N -+ 1, 2 lie over 10^-27 from an integer up to k = 200, but from
    k = 154 on under 1e-20, so a snap at 1e-20 would misround them.
    """
    with mp.workdps(200 + len(str(N))):
        lam = mp.ln(3) / mp.ln(4)
        if lower:
            v = 2 * (mp.mpf(N) / 6) ** lam
        else:
            v = mp.mpf(55) / 3 * (mp.mpf(N) / 65) ** lam
        if abs(v - mp.nint(v)) < mp.mpf(10) ** -150:
            return int(mp.nint(v))
        return int(mp.floor(v) if lower else mp.ceil(v))


def test_guard_handles_huge_arguments():
    # the bounds are evaluated at a precision that grows with N, so the
    # family points must still come out as their integers and their
    # neighbors must not, however large N is
    k = 100
    assert analysis.lower_bound(6 * 4 ** k) == 2 * 3 ** k
    assert analysis.upper_bound(65 * 4 ** k) == 55 * 3 ** (k - 1)
    # neighbors of an exact family member must not get snapped to it
    assert analysis.lower_bound(6 * 4 ** k - 1) == 2 * 3 ** k - 1
    assert analysis.lower_bound(6 * 4 ** k + 1) == 2 * 3 ** k
    ns = []
    for k in range(201):
        assert analysis.lower_bound(6 * 4 ** k) == 2 * 3 ** k
        assert analysis.upper_bound(260 * 4 ** k) == 55 * 3 ** k
        ns += [base * 4 ** k + d for base in (6, 65, 260) for d in (-2, -1, 1, 2)]
    rng = random.Random(1000)
    ns += [rng.randrange(2, 2 ** rng.randrange(2, 1001)) for _ in range(300)]
    for N in ns:
        assert analysis.lower_bound(N) == _reference_bound(N, True), N
        assert analysis.upper_bound(N) == _reference_bound(N, False), N


def test_block_extremes_match_brute_min_max():
    # S(m*4^j + r) = 3^j*S(m) + T_j(s_m, r): the min and max of T_j from
    # bound_blocks' dynamic program, shifted by 3^j*S(m), must be the
    # brute min and max of S over the whole block
    pref = brute.prefix(3, 0, 64 * 4 ** 6)
    steps = core._step_table(core._recursion_step)
    lo, hi = analysis._extremes(steps, 6)
    for m in range(64):
        s = S = 0
        for k in range(2 * (m.bit_length() // 2), -1, -2):
            s, c = steps[s][m >> k & 3]
            S = 3 * S + c
        assert S == pref[m]
        for j in range(7):
            block = pref[m * 4 ** j:(m + 1) * 4 ** j]
            assert 3 ** j * S + lo[j][s] == min(block), (m, j)
            assert 3 ** j * S + hi[j][s] == max(block), (m, j)


def test_whole_blocks_clear_newman_inequality():
    # bound_blocks tests only the sharp bounds; they imply Newman's
    # 1/20 < S*N^-lam < 5 on every whole block, at both of its ends
    whole = 0
    with mp.workdps(40):
        lam = _mpf(analysis.growth_exponent())
        for a, b, smin, smax in analysis.bound_blocks(10 ** 6):
            if b - a > 1:
                whole += 1
                assert smin * mp.mpf(b - 1) ** -lam > mp.mpf(1) / 20, (a, b)
                assert smax * mp.mpf(a) ** -lam < 5, (a, b)
    assert whole > 0


def test_bound_blocks_certify_the_bounds_to_2_64():
    # Every N off the single-N blocks clears both bounds strictly, so the
    # single-N blocks, with S from the recursion, hold every attainment
    # below 2^64: these two families and nothing else
    lower, upper = [], []
    stop = 1
    for a, b, smin, smax in analysis.bound_blocks(2 ** 64):
        assert a == stop
        stop = b
        if b - a > 1:
            continue
        lo = analysis.lower_bound(a)
        assert lo <= smin, a
        if a >= 2:
            hi = analysis.upper_bound(a)
            assert smin <= hi, a
            if smin == lo:
                lower.append(a)
            if smin == hi:
                upper.append(a)
    assert stop == 2 ** 64 + 1
    assert lower == sorted([3] + [6 * 4 ** k for k in range(31)])
    assert upper == sorted({19, 67} | {260 * 4 ** k - d for k in range(28) for d in (0, 1)}
                           | {272 * 4 ** k - 1 for k in range(4)})
    assert (len(lower), len(upper)) == (32, 62)

    rep = verify.bounds_sweep(10 ** 6)
    assert rep.lower_attained == [N for N in lower if N <= 10 ** 6]
    assert rep.upper_attained == [N for N in upper if N <= 10 ** 6]


def test_bound_blocks_ask_each_block_end_one_bound(monkeypatch):
    # A tested block [a, b) has j >= 1, so its lower bound is asked at
    # b-1 = 3 (mod 4) and its upper at a = 0 (mod 4); a call at any other
    # residue is wasted work.  Past about 2^55 a bound's float enclosure,
    # 8.6e-14 of its value each side, is over one unit wide, so the decimal
    # path settles many of these calls near 2^64
    calls = _count_walks(monkeypatch)
    for name in ("lower_bound", "upper_bound"):
        calls[name] = []
        bound = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda N, bound=bound, args=calls[name]:
                            args.append(N) or bound(N))
    for _ in analysis.bound_blocks(2 ** 64):
        pass
    for name, up, residue in (("lower_bound", 0, 3), ("upper_bound", 1, 0)):
        assert {N % 4 for N in calls[name]} == {N % 4 for N in calls[up]} == {residue}
    assert (len(calls[0]), len(calls[1])) == (1919, 1849)


def test_float_first_escalation_counts(monkeypatch):
    # (lower, upper) calls of the decimal path per run.  Below 2^1023 a
    # bound goes there only where its float enclosure holds an integer
    # that is not a family value, or more than one integer, so a wider
    # enclosure raises these counts.  bounds_sweep's are its 200 spot
    # checks of the bounds against the decimal path.
    walks = _count_walks(monkeypatch)

    def calls(run):
        for name in walks:
            walks[name].clear()
        run()
        return len(walks[0]), len(walks[1])

    assert calls(lambda: list(analysis.bound_blocks(10 ** 6))) == (0, 0)
    assert calls(lambda: verify.bounds_sweep(10 ** 6)) == (100, 100)
    assert calls(lambda: list(analysis.scan(2, 5002))) == (0, 0)
    # the same rows' exact delta texts: the float text escalates only where the
    # per-N margin of _delta_text straddles a 12-digit rounding boundary
    # (54 with the old fixed margin of 1e-14; none with no margin)
    assert len(walks["text"]) == 10
    assert calls(lambda: list(analysis.bound_blocks(2 ** 40))) == (0, 0)


def test_bounds_hold_pointwise_small():
    pref = brute.prefix(3, 0, 2000)
    for N in range(2, 2001):
        assert analysis.lower_bound(N) <= pref[N] <= analysis.upper_bound(N), N


def test_coquet_ratio():
    with mp.workdps(40):
        assert abs(_mpf(analysis.coquet_ratio(2)) - _mpf(analysis.ratio_liminf())) < mp.mpf("1e-30")
        assert abs(_mpf(analysis.coquet_ratio(8)) - _mpf(analysis.ratio_liminf())) < mp.mpf("1e-30")
    with pytest.raises(ValueError):
        analysis.coquet_ratio(1)


def test_newman_inequality_examples():
    assert analysis.newman_inequality_check(1)
    assert analysis.newman_inequality_check(3)
    assert analysis.newman_inequality_check(500000)
    assert all(analysis.newman_inequality_check(x) for x in range(1, 500))


def test_eta_defined():
    assert analysis.eta_defined(2) == 0
    assert analysis.eta_defined(1) == 1
    assert analysis.eta_defined(7) == 1
    assert [analysis.eta_defined(x) for x in (1, 3, 5, 7, 9)] == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        analysis.eta_defined(0)


def test_eta_derived():
    assert analysis.eta_derived(1) == -1
    assert analysis.eta_derived(7) == 1
    assert analysis.eta_derived(9) == -1
    # even arguments agree with the piecewise definition
    assert analysis.eta_derived(2) == 0 == analysis.eta_defined(2)


def test_eta_derived_matches_brute():
    for x in range(1, 40):
        want = 3 * brute.newman(3, 0, 3 * x) - brute.newman(3, 0, 12 * x)
        assert analysis.eta_derived(x) == want


def test_eta_half():
    # brute: 3*S(3k) - S(3*(4k+2)) + 3*(-1)^sigma(3k)
    for k in range(12):
        want = (3 * brute.newman(3, 0, 3 * k) - brute.newman(3, 0, 12 * k + 6)
                + 3 * brute.sign(3 * k))
        assert analysis.eta_half(k) == want
    assert analysis.eta_half(0) == 1
    assert analysis.eta_half(1) == 0
    assert analysis.eta_half(2) == 1
    with pytest.raises(ValueError):
        analysis.eta_half(-1)


def test_eta_rows():
    rows = analysis.eta_rows(9)
    assert [r.x for r in rows] == [1, 3, 5, 7, 9]
    assert [r.agree for r in rows] == [False, False, False, True, False]
    assert all(r.eta_defined in (-1, 1) for r in rows)


def test_delta_record_and_scan():
    recs = list(analysis.scan(2, 10, 1))
    assert [r.N for r in recs] == list(range(2, 10))
    assert all(r.in_bounds for r in recs)

    (rec,) = analysis.scan(500000, 500001, 1)
    assert rec.S == 18261

    (rec,) = analysis.scan(1, 2, 1)
    assert rec.delta == 1
    assert rec.delta_text == "1.0"
    assert rec.upper is None and rec.lower == 0 and rec.in_bounds

    with pytest.raises(ValueError):
        list(analysis.scan(0, 5, 1))
    with pytest.raises(ValueError):
        list(analysis.scan(5, 5, 1))
    with pytest.raises(ValueError):
        list(analysis.scan(2, 5, 0))


def _exact_row(N):
    """A scan row from the decimal path alone: the reference for the
    float evaluator behind delta_record."""
    S = core.newman_sum_recursive(N)
    d = analysis.delta(N, S)
    return d, (N, S, analysis.format_significant(d),
               _decimal_bound(N, True), _decimal_bound(N, False) if N >= 2 else None)


@pytest.mark.parametrize("start, stop, step", [
    (1, 5003, 1),
    (1, 20003, 7),
    (10 ** 9 - 3, 10 ** 9 + 4, 1),
    (2 ** 40, 2 ** 40 + 200, 1),
    (2 ** 64, 2 ** 64 + 100, 1),
    (2 ** 1023 - 3, 2 ** 1023 + 4, 1),   # across the float stage's limit
    # -step seeded random N; the float delta's error bound grows with the
    # bit length of N, so it is widest just below 2^1023
    pytest.param(10 ** 8, 10 ** 9, -500, id="500-random-N-in-1e8-1e9"),
    pytest.param(2 ** 1022, 2 ** 1023, -200, id="200-random-N-in-2^1022-2^1023"),
])
def test_scan_rows_match_exact_functions(start, stop, step):
    if step < 0:
        rng = random.Random(start)
        sample = (rng.sample(range(start, stop), -step) if stop - start <= sys.maxsize
                  else [rng.randrange(start, stop) for _ in range(-step)])
        rows = map(analysis.delta_record, sorted(sample))
    else:
        rows = analysis.scan(start, stop, step)
    for rec in rows:
        d, row = _exact_row(rec.N)
        assert (rec.N, rec.S, rec.delta_text, rec.lower, rec.upper) == row
        assert type(rec.delta) is float
        assert rec.in_bounds == (rec.lower <= rec.S
                                 and (rec.upper is None or rec.S <= rec.upper))
        assert abs(_mpf(rec.delta) / _mpf(d) - 1) < analysis._ERR_BIT * rec.N.bit_length() + analysis._ERR_ROUND


def test_delta_record_evaluates_decimal_delta_only_past_2_1023(monkeypatch):
    # below 2^1023 a row's delta is its float S/N**LAMBDA; past that it is
    # read from one 40-digit delta
    calls = []
    delta = analysis.delta

    def counted(*args):
        calls.append(args[0])
        return delta(*args)
    monkeypatch.setattr(analysis, "delta", counted)
    rows = list(analysis.scan(2 ** 40, 2 ** 40 + 2000))
    assert calls == []
    assert all(type(rec.delta) is float for rec in rows)
    assert type(analysis.delta_record(2 ** 1023).delta) is float
    assert calls == [2 ** 1023]


def test_delta_text_past_2_1023_reads_the_float(monkeypatch):
    # past 2^1023 a row's d is the float nearest the 40-digit delta,
    # within 2^-53 + 110*10^-39 relative of delta, inside _ERR_ROUND: its
    # text is read from d as below 2^1023, with no exact text evaluation
    calls = []
    exact_text = analysis._exact_text
    monkeypatch.setattr(analysis, "_exact_text",
                        lambda *args: calls.append(args) or exact_text(*args))
    rows = list(analysis.scan(2 ** 1023, 2 ** 1023 + 20))
    assert calls == []
    for rec in rows:
        assert rec.delta_text == exact_text(rec.N, rec.S), rec.N


def test_float_delta_lies_inside_the_derived_error_bound():
    # _delta_text's premise: d = S/N**LAMBDA is within
    # _ERR_BIT * bits + _ERR_ROUND relative of the exact delta (the bound
    # derived above analysis._FLOAT_LIMIT), at every bit length it serves
    rng = random.Random(2023)
    ns = [*range(1, 5003), *range(10 ** 9 - 1000, 10 ** 9 + 1)]
    ns += [rng.randrange(1 << b - 1, 1 << b) for b in range(2, 1024) for _ in range(20)]
    with mp.workdps(40):
        for N in ns:
            S = core.newman_sum_recursive(N)
            err = abs(S / N ** analysis.LAMBDA / _mpf(analysis.delta(N, S)) - 1)
            assert err < analysis._ERR_BIT * N.bit_length() + analysis._ERR_ROUND, N


def test_float_bounds_lie_inside_the_derived_error_bound():
    # the float stage's premise: v = c*N**LAMBDA is within
    # _ERR_BIT * bits + _ERR_BOUND relative of the bound's value (derived
    # above analysis._FLOAT_LIMIT), and the widened ends v*_BELOW and v*_ABOVE
    # enclose that value, for 20 random N of each bit length below 1024
    # and each 2^bits - 1
    rng = random.Random(1023)
    ns = [N for b in range(2, 1024)
          for N in [(1 << b) - 1, *(rng.randrange(1 << b - 1, 1 << b) for _ in range(20))]]
    with mp.workdps(60):
        lam = mp.ln(3) / mp.ln(4)
        for c, C in ((analysis._C_LO, 2 / mp.mpf(6) ** lam),
                     (analysis._C_HI, mp.mpf(55) / 3 / mp.mpf(65) ** lam)):
            assert abs(c / C - 1) < 2.5e-16
            for N in ns:
                v, V = c * N ** analysis.LAMBDA, C * mp.mpf(N) ** lam
                err = abs(v / V - 1)
                assert err < analysis._ERR_BIT * N.bit_length() + analysis._ERR_BOUND, N
                assert v * analysis._BELOW <= V <= v * analysis._ABOVE, N


def test_float_first_bounds_equal_the_decimal_path():
    # lower_bound and upper_bound read the float first; the decimal path
    # alone must give the same at small N, at a random N of every bit
    # length to 1030, and across 2^1023, where the float stage ends
    rng = random.Random(1030)
    ns = [*range(1, 5003), *(rng.randrange(1 << b - 1, 1 << b) for b in range(2, 1031)),
          *range(2 ** 1023 - 3, 2 ** 1023 + 4)]
    for N in ns:
        assert analysis.lower_bound(N) == _decimal_bound(N, True), N
        if N >= 2:
            assert analysis.upper_bound(N) == _decimal_bound(N, False), N


def test_delta_text_margin_is_the_safety_factor_times_the_bound():
    # _delta_text widens d by _ERR_SAFETY >= 2 times the derived bound:
    # it escalates a d 1.5 bounds above a 12-digit rounding boundary t,
    # and prints one 3 bounds above it
    assert analysis._ERR_SAFETY >= 2
    t = 0.9000000000005
    for bits in range(12, 31):
        bound = analysis._ERR_BIT * bits + analysis._ERR_ROUND
        assert analysis._delta_text(t * (1 + 1.5 * bound), bits) is None, bits
        assert analysis._delta_text(t * (1 + 3 * bound), bits) == "0.900000000001", bits
        assert analysis._delta_text(t * (1 - 3 * bound), bits) == "0.9", bits


def test_extremal_families_escalate_to_exact_bounds(monkeypatch):
    # 2(N/6)^lam = 2*3^k at N = 6*4^k and (55/3)(N/65)^lam = 55*3^k at
    # N = 260*4^k are integers, so a float floor or ceil there could be off
    # by one; the evaluator must hand both to the family rule, which
    # settles them from the float enclosure with no decimal evaluation.
    calls = []
    settle = analysis._settle
    monkeypatch.setattr(analysis, "_settle",
                        lambda N, *args: calls.append((args[-1], N)) or settle(N, *args))
    walk = analysis._walk
    monkeypatch.setattr(analysis, "_walk",
                        lambda *args: calls.append("decimal") or walk(*args))
    for k in range(16):
        for N, up in ((6 * 4 ** k, 0), (260 * 4 ** k, 1)):
            calls.clear()
            rec = analysis.delta_record(N)
            assert (up, N) in calls and "decimal" not in calls, calls
            assert (rec.N, rec.S, rec.delta_text, rec.lower, rec.upper) == _exact_row(N)[1]
            assert rec.S == (rec.upper if up else rec.lower)


def test_extremal_sequences():
    recs = analysis.extremal_sequences(8)
    assert [r.N for r in recs] == [6, 24, 96, 260, 384]
    lim_inf = float(analysis.delta_liminf())
    lim_sup = float(analysis.delta_limsup())
    for r in recs:
        target = lim_sup if r.N == 260 else lim_inf
        assert abs(float(r.delta) - target) < 1e-12
    assert recs[3].S == 55
    # n = 4 member: S(24) = 3*S(6) by quadrupling
    assert recs[1].S == 6
    with pytest.raises(ValueError):
        analysis.extremal_sequences(7)


def test_format_significant():
    assert analysis.format_significant(analysis.delta(6)) == "0.483459078354"
    assert analysis.format_significant(analysis.delta(1)) == "1.0"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   Decimal("Infinity"), Decimal("NaN"), Decimal("sNaN")],
                         ids=repr)
def test_format_significant_rejects_non_finite(value):
    # none of its documented forms: 'Infinity.0' and 'NaN.0' before the check
    with pytest.raises(ValueError, match="finite"):
        analysis.format_significant(value)


def test_format_significant_prints_as_mpmath_nstr():
    # scan's delta column was mpmath's nstr(x, 12) of a 40-digit delta, and
    # prints alike: floats and exact deltas format as nstr formats them,
    # and the exact text is nstr's text of mpmath's 40-digit S/N^lam
    rng = random.Random(25)
    floats = [0.0, 1.0, 100.0, 1e-5, 1e-4, 2.5e-5, -2.5, 123456789012.5,
              1234567890125.0, 999999999999.5, 1e12, 2.0 ** 70]
    floats += [rng.uniform(0.4, 0.7) for _ in range(1000)]
    floats += [rng.random() * 10.0 ** rng.randint(-8, 14) for _ in range(1000)]
    ns = [*range(1, 20002), *(rng.getrandbits(b) | 1 << b - 1 for b in range(31, 300))]
    with mp.workdps(40):
        for x in floats:
            assert analysis.format_significant(x) == mp.nstr(mp.mpf(x), 12), x
        lam = mp.ln(3) / mp.ln(4)
        for N in ns:
            S = core.newman_sum_recursive(N)
            d = analysis.delta(N, S)
            assert analysis.format_significant(d) == mp.nstr(_mpf(d), 12), N
            assert analysis._exact_text(N, S) == mp.nstr(S / mp.mpf(N) ** lam, 12), N


def test_numpy_integers_accepted():
    np = pytest.importorskip("numpy")
    big = 2 ** 62 + 1   # 4N leaves int64, so a numpy product would wrap
    assert core.newman_sum_recursive(np.int64(500000)) == 18261
    assert core.newman_sum_decomposition(np.int64(500000)) == 18261
    assert type(core.newman_sum_recursive(np.int64(7))) is int
    assert core.power_sum(np.int64(90)) == core.power_sum(90)
    assert core.dyadic_sum("even", np.int64(90)) == core.dyadic_sum("even", 90)
    assert core.bit_exponents(np.int64(500000)) == core.bit_exponents(500000)
    assert core.classify_prefix(np.int64(2)) == 5
    assert core.decomposition_terms(np.int64(19)) == core.decomposition_terms(19)
    assert core.recursion_trace(np.int64(19)) == core.recursion_trace(19)
    assert all(type(c) is int for c in core.recursion_trace(np.int64(19)))
    assert all(type(c) is type(j) is int for _, c, j in core.decomposition_terms(np.int64(19)))
    assert core.residue_sum(2, np.int64(big)) == core.residue_sum(2, big)
    assert core.six_residue_sum(5, np.int64(big - 9), np.int64(big)) \
        == core.six_residue_sum(5, big - 9, big)
    assert core.scaled_residue_sum(1, 2, 1, np.int64(70)) == core.scaled_residue_sum(1, 2, 1, 70)
    assert analysis.delta(np.int64(6)) == analysis.delta(6)
    assert analysis.delta(6, np.int64(2)) == analysis.delta(6, 2)
    assert verify.run_core_checks(np.int64(100)) == verify.run_core_checks(100)
    assert type(verify.bounds_sweep(np.int64(1000)).max_n) is int
    assert verify.bounds_sweep(np.int64(1000)) == verify.bounds_sweep(1000)
    assert analysis.lower_bound(np.int64(3)) == 1
    assert analysis.upper_bound(np.int64(19)) == 7
    assert analysis.coquet_ratio(np.int64(2)) == analysis.coquet_ratio(2)
    assert analysis.delta_record(np.int64(260)) == analysis.delta_record(260)
    assert analysis.eta_derived(np.int64(big)) == analysis.eta_derived(big)
    assert analysis.eta_half(np.int64(big)) == analysis.eta_half(big)
    assert analysis.eta_defined(np.int64(big)) == analysis.eta_defined(big)
    assert analysis.newman_inequality_check(np.int64(big)) == analysis.newman_inequality_check(big)
