import pytest

from gpseries import GPSeriesError, PrimeField
from gpseries.fields import _is_prime


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == by_trial(n) for n in range(3000))


@pytest.mark.parametrize("p", [561, 2047, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(p):
    with pytest.raises(GPSeriesError):
        PrimeField(p)


def test_large_primes():
    assert PrimeField(1000000000000000003).p == 10 ** 18 + 3
    assert PrimeField(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    with pytest.raises(GPSeriesError, match="too large"):
        PrimeField(2 ** 89 - 1)
