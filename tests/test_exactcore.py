import math
import random
from fractions import Fraction

import pytest

from conftest import naive_vp
from dworklab.exactcore import (
    INFINITY,
    check_prime,
    floor_log,
    gauss_binom_at,
    is_prime,
    legendre_valuation,
    vp,
)


def test_vp_examples():
    assert vp(0, 5) is INFINITY
    assert vp(Fraction(8, 3), 2) == 3
    # 12 = 2^2 * 3, so v_2(1/12) = -2
    assert vp(Fraction(1, 12), 2) == -2
    assert vp(7, 7) == 1
    assert vp(-8, 2) == 3


def test_vp_requires_prime():
    with pytest.raises(ValueError, match="p must be prime"):
        vp(Fraction(1, 2), 4)
    with pytest.raises(ValueError, match="p must be prime"):
        legendre_valuation(5, 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)
    assert check_prime(13) == 13


def test_infinity_semantics():
    assert INFINITY > 10**100
    assert not INFINITY < 5
    assert INFINITY >= INFINITY
    assert INFINITY <= INFINITY
    assert 3 < INFINITY
    assert INFINITY - 17 == INFINITY
    assert INFINITY + 4 == INFINITY
    assert not INFINITY == 0


def test_vp_multiplicative_and_ultrametric():
    rng = random.Random(20240817)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            y = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            if x and y:
                assert vp(x * y, p) == vp(x, p) + vp(y, p)
            vx, vy = vp(x, p), vp(y, p)
            vsum = vp(x + y, p)
            assert vsum >= min(vx, vy)
            if vx != vy:
                assert vsum == min(vx, vy)


def test_legendre_examples():
    assert legendre_valuation(10, 2) == 8
    assert legendre_valuation(0, 7) == 0
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        legendre_valuation(-1, 2)
    # 9! = 362880 = 2^7 * 3^4 * 5 * 7
    assert legendre_valuation(9, 3) == 4


def test_legendre_matches_factorial():
    for p in (2, 3, 5, 7):
        fact = 1
        for n in range(501):
            if n:
                fact *= n
            expected = naive_vp(fact, p) if n else 0
            assert legendre_valuation(n, p) == expected


def test_gauss_binom_examples():
    # product formula: (2^4-1)(2^4-2)/((2^2-1)(2^2-2))
    assert (2**4 - 1) * (2**4 - 2) // ((2**2 - 1) * (2**2 - 2)) == 35
    assert gauss_binom_at(4, 2, 2) == 35
    assert gauss_binom_at(3, 0, 5) == 1
    assert gauss_binom_at(2, 1, 2) == 3
    assert gauss_binom_at(3, -1, 2) == 0
    assert gauss_binom_at(3, 4, 2) == 0


def test_gauss_binom_klein_oracle():
    # [2 choose 1]_2 counts the order-2 subgroups of the Klein four-group
    from dworklab.groups import PartitionType, abelian_subgroup_counts_bruteforce

    counts = abelian_subgroup_counts_bruteforce(PartitionType((1, 1), 2))
    assert gauss_binom_at(2, 1, 2) == counts[2]


def test_gauss_binom_symmetry_and_recurrence():
    for q in (2, 3, 5):
        for m in range(13):
            for k in range(m + 1):
                val = gauss_binom_at(m, k, q)
                assert val == gauss_binom_at(m, m - k, q)
                if m:
                    assert val == gauss_binom_at(m - 1, k - 1, q) + q**k * gauss_binom_at(m - 1, k, q)


def test_gauss_binom_counts_subspaces():
    # binomial theorem sanity at q=1 is meaningless; check a brute subspace
    # count instead: lines of F_3^2
    assert gauss_binom_at(2, 1, 3) == 4


def test_floor_log():
    for base in (2, 3, 5):
        for n in range(1, 500):
            assert floor_log(base, n) == int(math.log(n, base) + 1e-9) or base ** floor_log(base, n) <= n < base ** (floor_log(base, n) + 1)
    with pytest.raises(ValueError):
        floor_log(2, 0)
