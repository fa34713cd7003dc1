import pytest

from newmansum import verify


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


def test_bounds_sweep_catches_injected_fault():
    # a fake S array with one corrupted entry must be flagged
    from newmansum import oracle

    pref = list(oracle.oracle_prefix(3, 0, 100))
    pref[50] = 0  # S(50) is really 12; 0 violates the lower bound
    rep = verify.bounds_sweep(100, prefix=pref)
    assert not rep.ok
    assert rep.bound_violations[0][0] == 50
