"""Exact rational arithmetic and small number-theoretic kernels.

Everything here is exact: rationals are `fractions.Fraction` (always in
lowest terms with positive denominator), valuations are integers or
:data:`INFINITY` (``math.inf``) for zero, and all helper functions use
arbitrary precision integer arithmetic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .kernels import floor_sum, vp_int

if TYPE_CHECKING:
    # annotations only: `vp` and `residue_mod_p` read a rational's
    # numerator and denominator, so the group layer never loads fractions
    from fractions import Fraction


#: The valuation of zero.  Python compares ints with floats exactly, so it
#: lies above every integer, and INFINITY minus a finite bound stays INFINITY.
INFINITY = math.inf

#: A p-adic valuation: an integer, or INFINITY for the valuation of zero.
Valuation = int | float


def is_prime(n: int) -> bool:
    """Trial-division primality test; all primes in scope are tiny."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    """Validate a prime at an API boundary.  Raises ValueError otherwise."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return p


def vp(x: Fraction | int, p: int) -> Valuation:
    """p-adic valuation of an exact rational (or integer).

    For nonzero x = a/b in lowest terms this is v_p(a) - v_p(b); for zero
    it is INFINITY.  Multiplicative: vp(x*y) = vp(x) + vp(y).
    """
    check_prime(p)
    if x == 0:
        return INFINITY
    if isinstance(x, int):
        return vp_int(x, p)
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def legendre_valuation(n: int, p: int) -> int:
    """v_p(n!) as the floor sum over powers of p (`kernels.floor_sum`)."""
    check_prime(p)
    if n < 0:
        raise ValueError("n must be non-negative")
    return floor_sum(n, p)


def gauss_binom_at(m: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient [m choose k]_q evaluated at integer q >= 2.

    Zero when k is outside 0..m.  Computed by the iterative product
    formula; every intermediate division is exact because each partial
    product is itself a Gaussian binomial.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if k < 0 or k > m:
        return 0
    k = min(k, m - k)
    result = 1
    for i in range(1, k + 1):
        result, rem = divmod(result * (q ** (m - k + i) - 1), q**i - 1)
        if rem:
            raise AssertionError("gaussian binomial product was not exact")
    return result


def floor_log(base: int, n: int) -> int:
    """Exact floor(log_base(n)) for n >= 1, by repeated multiplication."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    e = 0
    power = base
    while power <= n:
        e += 1
        power *= base
    return e


def residue_mod_p(x: Fraction | int, p: int) -> int:
    """Reduce a p-integral rational modulo p.

    Requires vp(x) >= 0, i.e. the denominator in lowest terms is coprime
    to p; the denominator is then inverted modulo p.
    """
    check_prime(p)
    if isinstance(x, int):
        return x % p
    den = x.denominator
    if den % p == 0:
        raise ValueError("rational is not p-integral, no residue mod p")
    return x.numerator * pow(den, -1, p) % p
