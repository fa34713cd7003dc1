import math
import tracemalloc

import pytest

from newmansum import analysis, core, oracle, verify


def test_core_checks_clean_run():
    rep = verify.run_core_checks(512)
    assert rep.ok
    assert rep.checks > 2000
    assert rep.failures == []


def test_core_checks_trivial_range():
    rep = verify.run_core_checks(0)
    assert rep.ok
    assert rep.checks >= 1


def test_core_checks_catch_injected_fault(corrupt_correction):
    # negative control: the recursion's correction table is corrupted
    rep = verify.run_core_checks(64)
    assert not rep.ok
    name, witness = rep.failures[0]
    assert witness >= 1
    assert (name, witness) == ("recursion-vs-oracle", 15)


def test_bounds_sweep_small_range():
    rep = verify.bounds_sweep(1100)
    assert rep.ok
    assert rep.bound_violations == []
    assert rep.newman_violations == []
    assert rep.lower_attained == [3, 6, 24, 96, 384]
    assert rep.upper_attained == [19, 67, 259, 260, 271, 1039, 1040, 1087]
    with pytest.raises(ValueError):
        verify.bounds_sweep(1)


def test_bounds_sweep_catches_injected_fault(faulty_oracle):
    # a fake S array with one corrupted entry must be flagged
    faulty_oracle({50: 0})  # S(50) is really 12; 0 violates the lower bound
    rep = verify.bounds_sweep(100)
    assert not rep.ok
    assert rep.bound_violations[0][0] == 50


def test_bounds_sweep_reports_corrupted_recursion(corrupt_correction):
    # negative control: with c(N) negated for N = 15 (mod 24) the
    # recursion disagrees with the oracle long before the first spot check
    # at 9973; the blocks' extremes must show it.  The attainment lists
    # are the clean run's of test_bounds_sweep_small_range
    rep = verify.bounds_sweep(1100)
    assert not rep.ok
    assert (15, 5, "recursion-mismatch", None) in rep.bound_violations
    assert all(v[2] == "recursion-mismatch" for v in rep.bound_violations)
    assert rep.newman_violations == []
    assert rep.lower_attained == [3, 6, 24, 96, 384]
    assert rep.upper_attained == [19, 67, 259, 260, 271, 1039, 1040, 1087]


def test_sweeps_check_the_four_byte_scan(monkeypatch):
    # negative control: with every radix-81^4 digit of the four-byte scan one
    # too high, each scanned value from 2^16 on sums wrong; the recursion
    # scans N, so both sweeps must see it from N = 2^16
    real = core._words
    monkeypatch.setattr(core, "_words", lambda x, step: [d + 1 for d in real(x, step)])
    assert verify.run_core_checks(65536).failures == [("recursion-vs-oracle", 65536)]
    rep = verify.bounds_sweep(10 ** 6)
    assert not rep.ok
    assert all(N >= 65536 and why == "recursion-mismatch"
               for N, _, why, _ in rep.bound_violations)


def test_bounds_sweep_reports_wrong_float_bounds(monkeypatch):
    # negative control: with the lower bound's float constant 1% high, the
    # float bounds disagree with the exact ones at the spot checks
    monkeypatch.setattr(analysis, "_C_LO", 1.01 * analysis._C_LO)
    rep = verify.bounds_sweep(20000)
    assert not rep.ok
    assert (9973, 917, "fast-path-mismatch", None) in rep.bound_violations
    assert (19946, 1621, "fast-path-mismatch", None) in rep.bound_violations


def _per_n_sweep(max_n, prefix, spot_step=9973):
    """The sweep as a loop over every N with its own float bounds, checking
    each prefix entry against the recursion once: the reference for
    bounds_sweep's walk over the blocks of analysis.bound_blocks, with its
    entries in the same order."""
    lam = analysis.LAMBDA
    rep = verify.BoundsReport(max_n)
    for N in range(1, max_n + 1):
        S = prefix[N]
        v = 2.0 * (N / 6.0) ** lam
        lo = math.floor(v) if abs(v - round(v)) > 1e-6 else analysis.lower_bound(N)
        if N >= 2:
            v = (55.0 / 3.0) * (N / 65.0) ** lam
            hi = math.ceil(v) if abs(v - round(v)) > 1e-6 else analysis.upper_bound(N)
        else:
            hi = None
        if core.newman_sum_recursive(N) != S:
            rep.bound_violations.append((N, S, "recursion-mismatch", None))
        if N % spot_step == 0:
            rep.checks += 2     # the recursion above and the exact bounds
            if (analysis.lower_bound(N) != lo
                    or (hi is not None and analysis.upper_bound(N) != hi)):
                rep.bound_violations.append((N, S, "fast-path-mismatch", None))
        rep.checks += 1
        if S < lo or (hi is not None and S > hi):
            rep.bound_violations.append((N, S, lo, hi))
        if N >= 2:
            if S == lo:
                rep.lower_attained.append(N)
            if S == hi:
                rep.upper_attained.append(N)
        rep.checks += 1
        if not 0.05 < S / N ** lam < 5.0:
            rep.newman_violations.append(N)
    return rep


@pytest.mark.parametrize("max_n", [2, 3, 4, 1100, 10 ** 5])
def test_bounds_sweep_matches_per_n_loop(max_n):
    rep = verify.bounds_sweep(max_n)
    assert rep == _per_n_sweep(max_n, oracle.oracle_prefix(3, 0, max_n))
    assert rep.checks == 2 * max_n + 2 * (max_n // 9973)


def test_bounds_sweep_spot_checks_inside_and_outside_whole_blocks(monkeypatch):
    monkeypatch.setattr(verify, "_SPOT_STEP", 7)
    prefix = oracle.oracle_prefix(3, 0, 1100)
    assert verify.bounds_sweep(1100) == _per_n_sweep(1100, prefix, 7)


def _lower_run_start(lo, hi):
    """The first N in (lo, hi] where the lower bound steps up."""
    return next(N for N in range(lo + 1, hi + 1)
                if analysis.lower_bound(N) > analysis.lower_bound(N - 1))


@pytest.mark.parametrize("where", ["run-first", "run-last", "upper", "newman-only", "zero"])
def test_bounds_sweep_reports_injected_faults(where, faulty_oracle):
    start = _lower_run_start(500, 1000)
    if where == "run-first":
        N, S = start, analysis.lower_bound(start) - 1
    elif where == "run-last":
        N = _lower_run_start(start, 1000) - 1
        S = analysis.lower_bound(N) - 1
    elif where == "upper":
        N = start + 1
        S = analysis.upper_bound(N) + 1
    elif where == "newman-only":
        N, S = 2, 0          # S = 0 is on the lower bound at N = 2, ratio 0
    else:
        N, S = 700, 0
    faulty_oracle({N: S})
    rep = verify.bounds_sweep(1000)
    assert rep == _per_n_sweep(1000, oracle.oracle_prefix(3, 0, 1000))
    lo = analysis.lower_bound(N)
    hi = analysis.upper_bound(N)
    mismatch = (N, S, "recursion-mismatch", None)
    if where == "newman-only":
        assert rep.bound_violations == [mismatch]
        assert 2 in rep.lower_attained
    else:
        assert rep.bound_violations == [mismatch, (N, S, lo, hi)]
    assert rep.newman_violations == ([N] if where in ("newman-only", "zero") else [])
    assert not rep.ok


def test_block_extremes_are_the_slice_extremes():
    # every block bounds_sweep(5000) could read whole, at every a mod 3
    prefix = oracle.oracle_prefix(3, 0, 5000)
    blocks = [(a, b) for a, b, _, _ in analysis.bound_blocks(5000, _top=7) if b - a >= 4]
    assert {a % 3 for a, _ in blocks} == {0, 1, 2}
    for a, b in blocks:
        piece = memoryview(prefix)[a:b]
        assert verify._block_extremes(piece, a) == (min(piece), max(piece)), (a, b)


@pytest.mark.parametrize("N", [325, 326, 327])     # x = 1, 2 and 0 (mod 3)
def test_bounds_sweep_catches_a_fault_inside_the_extremes(N, faulty_oracle):
    # the whole block [320, 384) has extremes 54 and 63; raising S(N) by
    # one to 62 keeps them, so only the step check can see it
    S = oracle.oracle_sum(3, 0, N) + 1
    assert (320, 384, 54, 63) in analysis.bound_blocks(5000, _top=7)
    assert S == 62
    faulty_oracle({N: S})
    rep = verify.bounds_sweep(5000)
    assert (N, S, "recursion-mismatch", None) in rep.bound_violations
    assert rep == _per_n_sweep(5000, oracle.oracle_prefix(3, 0, 5000))
    assert not rep.ok


@pytest.mark.parametrize("faults", [{}, {50: 0, 700: 0}, {2: 5, 8: 0, 62: 40}])
def test_small_chunks_give_the_same_reports(faults, faulty_oracle, monkeypatch):
    # the boundary term's pairs straddle chunk edges.  bounds_sweep caps
    # its blocks at the largest power of 4 dividing the chunk: with 7
    # entries every block is a single N, and with 16 and 64 the whole
    # blocks wider than a chunk split at its edges
    faulty_oracle(faults)
    want = verify.bounds_sweep(1100), verify.run_core_checks(300)
    for chunk in (7, 16, 64):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert (verify.bounds_sweep(1100), verify.run_core_checks(300)) == want, chunk
    assert want[0].ok == want[1].ok == (not faults)
    if 62 in faults:
        assert {name for name, _ in want[1].failures} == {
            "decomposition-vs-oracle", "recursion-vs-oracle", "boundary-term",
            "balance", "quadrupling", "residue-one", "residue-two"}
        # one pass per oracle class, in ascending N: S_{3,0} with its
        # boundary terms and quadrupling at N = 4y, then balance, then the
        # residue classes
        assert want[1].failures == [
            ("decomposition-vs-oracle", 2), ("recursion-vs-oracle", 2),
            ("boundary-term", 3),
            ("decomposition-vs-oracle", 8), ("recursion-vs-oracle", 8),
            ("quadrupling", 2), ("boundary-term", 9), ("quadrupling", 8),
            ("decomposition-vs-oracle", 62), ("recursion-vs-oracle", 62),
            ("boundary-term", 63), ("quadrupling", 62),
            ("balance", 2), ("balance", 62),
            ("residue-one", 2), ("residue-two", 2), ("residue-one", 8),
            ("residue-one", 62), ("residue-two", 62)]
        # and grouped by check
        assert sorted(want[1].failures) == [
            ("balance", 2), ("balance", 62),
            ("boundary-term", 3), ("boundary-term", 9), ("boundary-term", 63),
            ("decomposition-vs-oracle", 2), ("decomposition-vs-oracle", 8),
            ("decomposition-vs-oracle", 62),
            ("quadrupling", 2), ("quadrupling", 8), ("quadrupling", 62),
            ("recursion-vs-oracle", 2), ("recursion-vs-oracle", 8),
            ("recursion-vs-oracle", 62),
            ("residue-one", 2), ("residue-one", 8), ("residue-one", 62),
            ("residue-two", 2), ("residue-two", 62)]


@pytest.mark.parametrize("chunk", [7, 16, 64, 2 ** 14])
def test_sweep_blocks_lie_inside_one_chunk(chunk, monkeypatch):
    # bounds_sweep reads a block as a slice of one chunk, which a block
    # crossing a chunk edge would cut short without an error
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    real, blocks = analysis.bound_blocks, []

    def recorded(*args, **kwargs):
        for block in real(*args, **kwargs):
            blocks.append(block[:2])
            yield block
    monkeypatch.setattr(analysis, "bound_blocks", recorded)
    verify.bounds_sweep(10 ** 5)
    assert blocks
    for a, b in blocks:
        assert a // chunk == (b - 1) // chunk, (a, b)
    assert any(b - a > 1 for a, b in blocks) == (chunk > 7)


def test_faulty_sweep_reads_the_oracle_once(faulty_oracle, monkeypatch):
    # the disagreeing block that holds 700 is read from the one stream
    faulty_oracle({700: 0})
    monkeypatch.setattr(oracle, "_CHUNK", 16)
    want = _per_n_sweep(1100, oracle.oracle_prefix(3, 0, 1100))
    real, calls = oracle._prefix_chunks, []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(oracle, "_prefix_chunks", counted)
    rep = verify.bounds_sweep(1100)
    assert calls == [(3, 0, 1100)]
    assert rep == want
    assert not rep.ok


def _peak(sweep, max_n):
    tracemalloc.start()
    try:
        sweep(max_n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sweep,small,large", [
    (verify.bounds_sweep, 2 * 10 ** 5, 8 * 10 ** 5),
    (verify.run_core_checks, 2 ** 15, 2 ** 17),
])
def test_sweep_memory_is_bounded_by_a_chunk(sweep, small, large):
    sweep(small)        # the caches any call fills
    assert abs(_peak(sweep, large) - _peak(sweep, small)) < 8 * oracle._CHUNK


def test_bounds_sweep_holds_one_chunk_while_building_the_next():
    # the previous chunk and its views are dropped before the next is built
    verify.bounds_sweep(2 * 10 ** 5)    # the caches any call fills
    assert _peak(verify.bounds_sweep, 2 * 10 ** 5) < 2 * 8 * oracle._CHUNK


@pytest.mark.parametrize("max_n", [60000, 65536])
def test_core_checks_let_no_stream_outlive_its_pass(max_n):
    # the S_{3,0} pass holds its chunk, the quadrupling stream's and the
    # next build; a stream still referenced after its pass adds its last
    # chunk to a later pass, which at 60000 is a whole one
    verify.run_core_checks(max_n)       # the caches any call fills
    assert _peak(verify.run_core_checks, max_n) < 2.5 * 8 * oracle._CHUNK
