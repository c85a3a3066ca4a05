"""Applications of the valuation bounds: permutation counts with
restricted cycle lengths, the three-parameter binomial-sum
supercongruence, and ultimate-periodicity detection for subgroup counts
modulo p.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import kernels
from .exactcore import check_prime

if TYPE_CHECKING:
    # annotations only: a periodicity run never loads the bound catalog
    from .bounds import BoundKind

PI_VARIANTS = ("pi1", "pi2", "pi3")


class _CycleRule(NamedTuple):
    variant: str
    p: int
    l: int
    base_set: frozenset[int]


class CycleRule(_CycleRule):
    """Allowed cycle lengths {a p^s : a in A} capped at p^l (strictly for
    pi1, weakly for pi2, strictly below 2 p^l for pi3)."""

    __slots__ = ()

    def __new__(cls, variant, p, l, base_set):
        check_prime(p)
        if variant not in PI_VARIANTS:
            raise ValueError(f"unknown cycle rule variant {variant!r}")
        if l < 1:
            raise ValueError("l must be positive")
        if any(a < 1 for a in base_set):
            raise ValueError("base set entries must be positive")
        return super().__new__(cls, variant, p, l, base_set)

    def allowed_lengths(self) -> tuple[int, ...]:
        pl = self.p**self.l
        # the smallest integer strictly above every allowed length
        cap = {"pi1": pl, "pi2": pl + 1, "pi3": 2 * pl}[self.variant]
        lengths = set()
        for a in self.base_set:
            length = a
            while length < cap:
                lengths.add(length)
                length *= self.p
        return tuple(sorted(lengths))

    def bound_kind(self) -> BoundKind:
        """The exponent formula the counts are divisible by."""
        from .bounds import BoundKind

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


def _cycle_series(n_max: int, lengths: Sequence[int]) -> list[int]:
    """s_0..s_n_max of the counts: s_k = 1 for each allowed length k, else 0."""
    svals = [0] * (n_max + 1)
    for length in set(lengths):
        if length < 1:
            raise ValueError("cycle lengths must be positive")
        if length <= n_max:
            svals[length] = 1
    return svals


def permutation_count_series(n_max: int, lengths: Sequence[int]) -> list[int]:
    """Exact counts of permutations of {1..n} with all cycle lengths in the
    set, for n = 0..n_max; `supercongruence` cross-checks its sums on them."""
    return kernels.hall_exp(_cycle_series(n_max, lengths))


class PermDivisibilityReport(NamedTuple):
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
    """The n <= n_max at which p^e(n), e the rule's exponent, fails to
    divide count(n).

    Row n is a violation exactly when e(n) > 0 and count(n) is not 0
    modulo p^e(n): a zero count, or any e(n) <= 0, never is.  So the
    counts are read only modulo p^E, E = max(e(n), 0), from
    `kernels.hall_exp` with that modulus; no exact count is built.
    """
    from .bounds import bound_values

    kind = rule.bound_kind()
    p = kind.p
    bounds = bound_values(kind, n_max)
    residues = kernels.hall_exp(_cycle_series(n_max, rule.allowed_lengths()), modulus=p ** max(0, *bounds))
    violations = [n for n, e in enumerate(bounds) if e > 0 and residues[n] % p**e]
    return PermDivisibilityReport(rule, kind, n_max, violations)


# ---------------------------------------------------------------------------
# the supercongruence
# ---------------------------------------------------------------------------


class SupercongInstance(NamedTuple):
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


def supercongruence_check(p: int, a: int, b: int, c: int, h: Sequence[int]) -> SupercongInstance:
    """Exact check of the three-parameter congruence

        sum_{s=0}^{pa+b} (p^2 a + p b + c)! / (p^{pa+b-s} (pa+b-s)! (ps+c)!)
          =  (-1)^a p^{(p-1)a} sum_{s=0}^{b} (pb+c)! / (p^{b-s} (b-s)! (ps+c)!)
          (mod p^{(p-1)a+b+1}),

    cross-checking that the left side equals h_{p^2 a + p b + c} for the
    series with s_1 = s_p = 1.  ``h`` holds that series' h_0, h_1, ... at
    least up to that index (`permutation_count_series(n, (1, p))`).
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


class PeriodResult(NamedTuple):
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

