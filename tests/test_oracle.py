import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import brute
from newmansum import oracle, verify


def test_backend_is_reported():
    assert oracle.KERNEL_BACKEND == "pure"


def test_oracle_sum_examples():
    assert oracle.oracle_sum(3, 0, 0) == 0
    assert oracle.oracle_sum(3, 0, 19) == 7
    assert oracle.oracle_sum(3, 0, 500000) == 18261


@pytest.mark.parametrize("m,l", [(1, 0), (2, 1), (3, 0), (3, 2), (6, 5), (24, 13)])
def test_oracle_sum_vs_brute(m, l):
    for x in (0, 1, 2, 17, 100, 257):
        assert oracle.oracle_sum(m, l, x) == brute.newman(m, l, x)


def test_oracle_interval_sum_vs_brute():
    for a, b in [(0, 0), (5, 5), (6, 7), (20, 36), (100, 357)]:
        assert oracle.oracle_interval_sum(3, 0, a, b) == brute.newman_interval(3, 0, a, b)
    with pytest.raises(ValueError):
        oracle.oracle_interval_sum(3, 0, 5, 4)


def test_oracle_prefix_matches_pointwise():
    pref = oracle.oracle_prefix(3, 0, 200)
    assert len(pref) == 201
    for x in range(201):
        assert pref[x] == brute.newman(3, 0, x)


def test_balance_on_even_prefixes():
    pref = oracle.oracle_prefix(1, 0, 400)
    assert all(pref[x] == 0 for x in range(0, 401, 2))


def test_bad_residue_class_rejected():
    with pytest.raises(ValueError):
        oracle.oracle_sum(0, 0, 10)
    with pytest.raises(ValueError):
        oracle.oracle_sum(3, 3, 10)
    with pytest.raises(ValueError):
        oracle.oracle_sum(3, -1, 10)
    with pytest.raises(ValueError):
        oracle.oracle_sum(3, 0, -1)


def test_cap_is_enforced(monkeypatch):
    with pytest.raises(oracle.OracleCapError, match="oracle cap"):
        oracle.oracle_sum(3, 0, oracle.DEFAULT_ORACLE_CAP + 1)
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", "50")
    with pytest.raises(oracle.OracleCapError):
        oracle.oracle_sum(3, 0, 100)
    with pytest.raises(oracle.OracleCapError):
        oracle.oracle_prefix(3, 0, 100)
    # the cap guards the bound, not the count of summands
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", "100")
    assert oracle.oracle_sum(3, 0, 100) == brute.newman(3, 0, 100)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", "64")
    assert oracle.oracle_cap() == 64
    with pytest.raises(oracle.OracleCapError):
        oracle.oracle_sum(3, 0, 65)
    monkeypatch.delenv("NEWMANSUM_ORACLE_CAP")
    assert oracle.oracle_cap() == oracle.DEFAULT_ORACLE_CAP


def test_kernels_match_brute():
    for m, l in [(1, 0), (3, 0), (3, 1), (7, 4), (48, 31)]:
        for a, b in [(0, 0), (0, 513), (100, 612), (511, 517)]:
            assert oracle.oracle_interval_sum(m, l, a, b) == brute.newman_interval(m, l, a, b)
        pref = oracle.oracle_prefix(m, l, 300)
        assert list(pref) == brute.prefix(m, l, 300)


def test_kernels_agree_with_each_other():
    assert list(oracle.oracle_prefix(3, 0, 50000)) == brute.prefix(3, 0, 50000)
    assert (oracle.oracle_interval_sum(5, 2, 12345, 99999)
            == brute.newman_interval(5, 2, 12345, 99999))


def test_prefix_peak_memory_near_output_size():
    limit = 10 ** 5
    tracemalloc.start()
    try:
        pref = oracle.oracle_prefix(3, 0, limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(pref, array) and pref.typecode == "q"
    assert len(pref) == limit + 1
    assert peak < 1.25 * 8 * (limit + 1)


@given(chunk=st.integers(1, 9), k=st.integers(0, 6), d=st.sampled_from([-1, 0, 1]),
       modulus=st.sampled_from([1, 3, 6]))
def test_chunks_join_to_the_prefix(chunk, k, d, modulus):
    limit = max(k * chunk + d, 0)
    for residue in range(modulus):
        whole = oracle.oracle_prefix(modulus, residue, limit)
        with mock.patch.object(oracle, "_CHUNK", chunk):
            chunks = list(oracle._prefix_chunks(modulus, residue, limit))
            assert oracle.oracle_prefix(modulus, residue, limit) == whole
        assert [start for start, _ in chunks] == list(range(0, limit + 1, chunk))
        assert all(len(c) == chunk for _, c in chunks[:-1])
        joined = [x for _, c in chunks for x in c]
        assert joined == list(whole) == brute.prefix(modulus, residue, limit)


def test_chunk_stream_checks_before_any_work(monkeypatch):
    # the stream is lazy, but its arguments and the cap are checked at the call
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", "50")
    with pytest.raises(oracle.OracleCapError):
        oracle._prefix_chunks(3, 0, 51)
    with pytest.raises(ValueError):
        oracle._prefix_chunks(3, 3, 10)
    with pytest.raises(ValueError):
        oracle._prefix_chunks(3, 0, -1)


def test_pure_kernel_handles_beyond_word_range(monkeypatch):
    base = 1 << 70
    monkeypatch.setenv("NEWMANSUM_ORACLE_CAP", str(base + 30))
    want = sum(brute.sign(n) for n in range(base, base + 30) if n % 3 == 0)
    assert oracle.oracle_interval_sum(3, 0, base, base + 30) == want


def test_cap_error_past_the_int_str_limit():
    # a bound of 5001 digits is past CPython's 4300-digit int->str limit
    bound = 10 ** 5000
    text = (f"oracle cap: enumerating up to 1{'0' * 5000} "
            f"exceeds the cap of {oracle.DEFAULT_ORACLE_CAP}")
    for call in (lambda: oracle.oracle_sum(3, 0, bound),
                 lambda: oracle.oracle_interval_sum(3, 0, 0, bound),
                 lambda: oracle.oracle_prefix(3, 0, bound),
                 lambda: verify.run_core_checks(bound),
                 lambda: verify.bounds_sweep(bound)):
        with pytest.raises(oracle.OracleCapError) as exc:
            call()
        assert str(exc.value) == text
