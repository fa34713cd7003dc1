import pytest
from hypothesis import HealthCheck, settings

from newmansum import core, oracle

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def corrupt_correction(monkeypatch):
    """Negate the recursion's correction c(N) for N = 15 (mod 24), in the
    table and in the byte tables built from it, for one test."""
    bad = list(core._CORRECTION)
    bad[15] = -bad[15]
    monkeypatch.setattr(core, "_CORRECTION", tuple(bad))
    core._byte_table.cache_clear()
    yield
    core._byte_table.cache_clear()


@pytest.fixture
def faulty_oracle(monkeypatch):
    """A function that takes {N: S} and, for one test, makes
    ``oracle.oracle_prefix`` set entry N to S in each array it returns."""
    real = oracle.oracle_prefix

    def inject(faults):
        def prefix(modulus, residue, limit):
            out = real(modulus, residue, limit)
            for N, S in faults.items():
                out[N] = S
            return out
        monkeypatch.setattr(oracle, "oracle_prefix", prefix)
    return inject
