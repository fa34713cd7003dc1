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
    core._TABLES.clear()
    yield
    core._TABLES.clear()


@pytest.fixture
def faulty_oracle(monkeypatch):
    """A function that takes {N: S} and, for one test, makes every oracle
    prefix stream set entry N to S in the chunk that holds it; so do the
    arrays of ``oracle.oracle_prefix``, which is made from the stream."""
    real = oracle._prefix_chunks

    def inject(faults):
        def faulty(chunks):
            for start, chunk in chunks:
                for N, S in faults.items():
                    if start <= N < start + len(chunk):
                        chunk[N - start] = S
                yield start, chunk

        def prefix_chunks(modulus, residue, limit):
            return faulty(real(modulus, residue, limit))   # checks as eagerly
        monkeypatch.setattr(oracle, "_prefix_chunks", prefix_chunks)
    return inject
