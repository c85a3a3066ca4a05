"""Exact rational arithmetic and small number-theoretic kernels.

Everything here is exact: rationals are `fractions.Fraction` (always in
lowest terms with positive denominator), valuations are integers or
:data:`INFINITY` (``math.inf``) for zero, and all helper functions use
arbitrary precision integer arithmetic.  `partition_case`, the case
I/II/III split of an Abelian type, lives here too, so that the bound
catalog and the group layer both read it without loading each other.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .kernels import floor_sum, vp_int

if TYPE_CHECKING:
    # annotations only: `vp` reads a rational's numerator and
    # denominator, so the group layer never loads fractions
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


def partition_case(parts: Sequence[int]) -> tuple[str, int, int]:
    """Case of an abelian type (a_1 >= ... >= a_r) and its (l, m) parameters.

    Case I  (a_1 > a_2+...+a_r):            l = a_1 + 1, m = a_2+...+a_r
    Case II (a_1 <= rest, weight even):     l = A_1 + 1, m = A_1
    Case III(a_1 <= rest, weight odd):      l = A_2 + 1, m = A_2 - 1
    """
    if not parts or any(a < 1 for a in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError("partition must be weakly decreasing positive integers")
    weight = sum(parts)
    a1 = parts[0]
    rest = weight - a1
    if a1 > rest:
        return "I", a1 + 1, rest
    if weight % 2 == 0:
        half = weight // 2
        return "II", half + 1, half
    half = (weight + 1) // 2
    return "III", half + 1, half - 1
