"""Applications of the valuation bounds: permutation counts with
restricted cycle lengths, the three-parameter binomial-sum
supercongruence, ultimate-periodicity detection for subgroup counts
modulo p, and the index-p normal subgroup count formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import kernels
from .bounds import BoundKind, verify_bounds
from .exactcore import check_prime
from .series import ExpSeries

PI_VARIANTS = ("pi1", "pi2", "pi3")


@dataclass(frozen=True)
class CycleRule:
    """Allowed cycle lengths {a p^s : a in A} capped at p^l (strictly for
    pi1, weakly for pi2, strictly below 2 p^l for pi3)."""

    variant: str
    p: int
    l: int
    base_set: frozenset[int]

    def __post_init__(self):
        check_prime(self.p)
        if self.variant not in PI_VARIANTS:
            raise ValueError(f"unknown cycle rule variant {self.variant!r}")
        if self.l < 1:
            raise ValueError("l must be positive")
        if any(a < 1 for a in self.base_set):
            raise ValueError("base set entries must be positive")

    def length_cap(self) -> int:
        """Smallest integer strictly above every allowed length."""
        pl = self.p**self.l
        return {"pi1": pl, "pi2": pl + 1, "pi3": 2 * pl}[self.variant]

    def allowed_lengths(self) -> tuple[int, ...]:
        cap = self.length_cap()
        lengths = set()
        for a in self.base_set:
            length = a
            while length < cap:
                lengths.add(length)
                length *= self.p
        return tuple(sorted(lengths))

    def bound_kind(self) -> BoundKind:
        """The exponent formula the counts are divisible by."""
        p, l = self.p, self.l
        if self.variant == "pi1":
            return BoundKind("cor2.4", p, l=l)
        if self.variant == "pi2":
            if p == 2:
                return BoundKind("thm3.4", 2, l=l)
            if (p, l) == (3, 1):
                return BoundKind("thm3.3", 3)
            return BoundKind("thm3.1", p, l=l)
        return BoundKind("thm3.7", p, l=l)  # validates p >= 3, (p,l) != (3,1)


def permutation_count_series(n_max: int, lengths: Sequence[int]) -> list[int]:
    """Counts of permutations of {1..n} with all cycle lengths in the set,
    for n = 0..n_max."""
    svals = [0] * (n_max + 1)
    for length in set(lengths):
        if length < 1:
            raise ValueError("cycle lengths must be positive")
        if length <= n_max:
            svals[length] = 1
    return kernels.hall_exp(svals, n_max)


@dataclass
class PermDivisibilityReport:
    rule: CycleRule
    kind: BoundKind
    n_max: int
    violations: list[int]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "variant": self.rule.variant,
            "p": self.rule.p,
            "l": self.rule.l,
            "base_set": sorted(self.rule.base_set),
            "allowed_lengths": list(self.rule.allowed_lengths()),
            "kind": self.kind.describe(),
            "n_max": self.n_max,
            "violations": self.violations,
        }


def verify_permutation_divisibility(rule: CycleRule, n_max: int) -> PermDivisibilityReport:
    """Assert v_p(count(n)) >= the rule's exponent for every n <= n_max."""
    kind = rule.bound_kind()
    counts = ExpSeries(tuple(permutation_count_series(n_max, rule.allowed_lengths())))
    return PermDivisibilityReport(rule, kind, n_max, verify_bounds(counts, kind).violations)


# ---------------------------------------------------------------------------
# the supercongruence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupercongInstance:
    p: int
    a: int
    b: int
    c: int
    lhs: int
    rhs: int
    modulus: int
    passed: bool

    def summary(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "modulus": self.modulus,
            "residue_lhs": self.lhs % self.modulus,
            "residue_rhs": self.rhs % self.modulus,
            "passed": self.passed,
        }


def _binomial_half_sum(p: int, outer: int, c: int) -> int:
    """sum_{s=0}^{outer} (p*outer + c)! / (p^{outer-s} (outer-s)! (ps+c)!),
    every summand verified to be an integer."""
    total = 0
    numerator = math.factorial(p * outer + c)
    for s in range(outer + 1):
        denom = p ** (outer - s) * math.factorial(outer - s) * math.factorial(p * s + c)
        q, r = divmod(numerator, denom)
        if r:
            raise ArithmeticError(
                f"non-integral summand at s={s} (p={p}, outer={outer}, c={c})"
            )
        total += q
    return total


def supercongruence_check(
    p: int, a: int, b: int, c: int, h: Sequence[int] | None = None
) -> SupercongInstance:
    """Exact check of the three-parameter congruence

        sum_{s=0}^{pa+b} (p^2 a + p b + c)! / (p^{pa+b-s} (pa+b-s)! (ps+c)!)
          =  (-1)^a p^{(p-1)a} sum_{s=0}^{b} (pb+c)! / (p^{b-s} (b-s)! (ps+c)!)
          (mod p^{(p-1)a+b+1}),

    cross-checking that the left side equals h_{p^2 a + p b + c} for the
    series with s_1 = s_p = 1.  ``h`` holds that series' h_0, h_1, ... at
    least up to that index; it is computed when omitted.
    """
    check_prime(p)
    if a < 1:
        raise ValueError("a must be positive")
    if not (0 <= b < p and 0 <= c < p):
        raise ValueError("b and c must lie in 0..p-1")
    lhs = _binomial_half_sum(p, p * a + b, c)
    rhs = (-1) ** a * p ** ((p - 1) * a) * _binomial_half_sum(p, b, c)
    modulus = p ** ((p - 1) * a + b + 1)

    n = p * p * a + p * b + c
    if h is None:
        h = permutation_count_series(n, (1, p))
    if h[n] != lhs:
        raise ArithmeticError(
            f"direct sum and exp-transform disagree at n={n} (p={p})"
        )
    return SupercongInstance(p, a, b, c, lhs, rhs, modulus, (lhs - rhs) % modulus == 0)


def supercongruence_sweep(p: int, a_max: int) -> list[SupercongInstance]:
    """All instances with 1 <= a <= a_max and 0 <= b, c < p."""
    check_prime(p)
    # one h series, up to the largest n of the sweep, serves every instance
    h = permutation_count_series(p * p * a_max + p * (p - 1) + (p - 1), (1, p))
    return [
        supercongruence_check(p, a, b, c, h)
        for a in range(1, a_max + 1)
        for b in range(p)
        for c in range(p)
    ]


# ---------------------------------------------------------------------------
# ultimate periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodResult:
    preperiod: int
    period: int
    confirmed_window: int
    status: str  # "detected" | "unresolved"
    horizon: int

    @property
    def detected(self) -> bool:
        return self.status == "detected"

    def summary(self) -> dict:
        return {
            "status": self.status,
            "preperiod": self.preperiod,
            "period": self.period,
            "confirmed_periods": self.confirmed_window,
            "horizon": self.horizon,
        }


def periodicity_detect(residues: Sequence[int], confirm_window: int) -> PeriodResult:
    """Minimal period (then minimal preperiod) with at least
    ``confirm_window`` confirmed repetitions; unresolved is a value, not
    an error.  Periods up to half the sequence length are tried.
    """
    n = len(residues)
    if confirm_window < 1:
        raise ValueError("confirm_window must be positive")
    if n < 4 * confirm_window:
        raise ValueError("need at least 4 * confirm_window residues")
    for period in range(1, n // 2 + 1):
        preperiod = 0
        for idx in range(n - period - 1, -1, -1):
            if residues[idx] != residues[idx + period]:
                preperiod = idx + 1
                break
        confirmed = (n - preperiod) // period - 1
        if confirmed >= confirm_window:
            return PeriodResult(preperiod, period, confirmed, "detected", n)
    return PeriodResult(0, 0, 0, "unresolved", n)


def normal_count_index_p(rp_plus_rinf: int, p: int) -> int:
    """(p^k - 1)/(p - 1): the number of index-p normal subgroups when the
    abelianized rank data sum to k; 0 when k = 0, else 1 mod p."""
    check_prime(p)
    if rp_plus_rinf < 0:
        raise ValueError("rank sum must be non-negative")
    return (p**rp_plus_rinf - 1) // (p - 1)
