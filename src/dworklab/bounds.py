"""Valuation-bound catalog and verification harness.

`RULES` is the catalog: one `Rule` record per bound kind holds the
parameters the kind needs, the range of primes and parameters it admits,
its exponent e(n), and, where one is stated, the recurrence of the
normalized quotients Q_n = h_n / p^{e(n)} and the residue classes claimed
tight.  Adding a rule means adding one record.  The checkable theorems,
each naming the rule whose exponent it proves together with its
hypotheses, are `dworklab.series.THEOREMS`.

`BoundKind` names one rule together with its parameters; `bound_value`
evaluates e(n) exactly, and `bound_values` e(0)..e(N), working out the
parameters a kind derives (a partition's (l, m)) once; `verify_bounds`
compares v_p(h_n) against e(n) row by row for n = 0..N on any sequence
h_0..h_N, such as the list that `series.exp_transform` returns
(violations are never dropped), keeps each row once, as the dict the
report prints, and yields each row's valuation and Q_n mod p from one
reduction of h_n modulo p^(e(n)+64);
`verify_bounds_mod`, which `verify-group` runs, gives the same report
from s_0..s_N, computing h only modulo p^(max(E, 0)+64), E = max e(n):
a nonzero residue of h_n modulo p^M, M > max(e(n), 0), reads exactly as
h_n does, so it falls back to the exact h only when some residue is 0
(both from `kernels.hall_exp`, with and without the modulus);
`verify_q_recurrence` checks on those residues the mod-p recurrence of
the quotients that certifies tightness; and `floor_lemma_checks`
exhaustively tests the two floor-sum inequalities the bound proofs rest
on.  The partition rules read the case split from `exactcore`, so the
catalog never loads the group layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import kernels
from .exactcore import INFINITY, Valuation, check_prime, floor_log, partition_case, vp
from .kernels import floor_sum, vp_int

if TYPE_CHECKING:
    # annotations only: the catalog never loads the group layer
    from .groups import SubgroupCounts


class _BoundKind(NamedTuple):
    tag: str
    p: int
    l: int | None
    m: int | None
    partition: tuple[int, ...] | None
    dihedral_m: int | None


class BoundKind(_BoundKind):
    """A named exponent formula with its parameters and the prime p."""

    __slots__ = ()

    def __new__(cls, tag, p, l=None, m=None, partition=None, dihedral_m=None):
        self = super().__new__(cls, tag, p, l, m, partition, dihedral_m)
        check_prime(p)
        rule = RULES.get(tag)
        if rule is None:
            raise ValueError(f"unknown bound kind {tag!r}")
        for name in rule.needs:
            if getattr(self, name) is None:
                raise ValueError(f"{tag} needs parameter {name}")
        if not rule.admissible(self):
            raise ValueError(f"{tag} needs {rule.requirement}")
        return self

    def describe(self) -> dict:
        return {key: val for key, val in self._asdict().items() if val is not None}


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _first_exponent(n: int, p: int, l: int, m: int) -> int:
    """thm2.1: sum_{s=1}^{l-1} floor(n/p^s) - (l-m-1) floor(n/p^l).

    cor2.4 is m = 0, kty is (l+1, m), and thm6.1 is the (l, m) of the
    partition's case.
    """
    return floor_sum(n, p, 1, l - 1) - (l - m - 1) * (n // p**l)


def _p2_exponent(n: int, l: int) -> int:
    """thm2.7; thm6.2 is l = A_1 + 1."""
    return floor_sum(n, 2, 1, l - 1) + n // 2 ** (l + 1) - n // 2 ** (l + 2)


def _thm33_exponent(n: int) -> int:
    # the correction term is ceil(floor(n/9)/2): up to floor(n/9) tail
    # indices at 3^2 each cost half a digit, rounded up since the
    # valuation is an integer (floor(n/18) is too small at n = 9)
    return floor_sum(n, 3) - floor_sum(n // 2, 3) - _ceil_div(n // 9, 2)


def _thm31_exponent(p: int, l: int) -> Callable[[int], int]:
    """thm3.1; cor3.6 at p >= 5 is l = 1."""
    return lambda n: floor_sum(n, p) - (l - 1) * (n // p**l) - floor_sum(n // 2, p, l)


def _thm34_exponent(l: int) -> Callable[[int], int]:
    """thm3.4; cor3.6 at p = 2 is l = 1."""
    if l == 1:
        return lambda n: n // 2 - n // 4
    if l == 2:
        return lambda n: n // 2
    return lambda n: floor_sum(n, 2, 1, l + 1) - (l - 1) * (n // 2**l)


def _cor36_exponent(kind: BoundKind) -> Callable[[int], int]:
    """thm3.4 at l = 1 for p = 2, thm3.3 for p = 3, thm3.1 at l = 1 for p >= 5."""
    if kind.p == 2:
        return _thm34_exponent(1)
    if kind.p == 3:
        return _thm33_exponent
    return _thm31_exponent(kind.p, 1)


def _first_family(p: int, l: int, m: int) -> tuple[int, int, int, int, int]:
    """rho = (-1)^l (s_{p^l} - s_{p^{l-1}}) / p^m with step p^l."""
    return p ** (l - 1), p**l, m, p**l, (-1) ** l


def _p2_family(l: int) -> tuple[int, int, int, int, int]:
    """rho = (s_{2^{l+1}} - s_{2^l}) / 2^{l-2} with step 2^{l+2}."""
    return 2**l, 2 ** (l + 1), l - 2, 2 ** (l + 2), 1


def _thm61_recurrence(kind: BoundKind) -> tuple[int, int, int, int, int]:
    case, l, m = partition_case(kind.partition)
    if case == "II" and kind.p == 2:
        raise ValueError(
            "p = 2 case II has no first-family quotient recurrence; "
            "use the thm6.2 kind"
        )
    return _first_family(kind.p, l, m)


def _thm61_exponent(kind: BoundKind) -> Callable[[int], int]:
    _, l, m = partition_case(kind.partition)
    return lambda n: _first_exponent(n, kind.p, l, m)


def _thm62_l(kind: BoundKind) -> int:
    return partition_case(kind.partition)[1]  # case II: A_1 + 1


def _thm62_exponent(kind: BoundKind) -> Callable[[int], int]:
    l = _thm62_l(kind)
    return lambda n: _p2_exponent(n, l)


def _odd_p_admissible(kind: BoundKind) -> bool:
    return kind.p >= 3 and kind.l >= 1 and (kind.p, kind.l) != (3, 1)


_ODD_P_REQUIREMENT = "p >= 3, l >= 1, (p, l) != (3, 1)"


class Rule(NamedTuple):
    """One bound kind of the catalog.

    `exponent(kind)` is the function n -> e(n), with the parameters the
    kind derives, such as a partition's (l, m), worked out once.
    `admissible(kind)` runs once every field named in `needs` is set and
    says whether the kind lies in the rule's range; `requirement` states
    that range in the error message.  `recurrence(kind)` gives (lo, hi,
    shift, step, sign) of the quotient recurrence Q_n = rho Q_{n-step}
    (mod p), rho = sign (s_hi - s_lo) / p^shift.  `tight_classes(kind)`
    lists the residues mod that step at which the bound is claimed tight.
    """

    exponent: Callable[[BoundKind], Callable[[int], int]]
    needs: tuple[str, ...] = ()
    admissible: Callable[[BoundKind], bool] = lambda kind: True
    requirement: str = ""
    recurrence: Callable[[BoundKind], tuple[int, int, int, int, int]] | None = None
    tight_classes: Callable[[BoundKind], list[int]] | None = None


RULES: dict[str, Rule] = {
    "thm2.1": Rule(
        lambda k: lambda n: _first_exponent(n, k.p, k.l, k.m),
        needs=("l", "m"),
        admissible=lambda k: 0 <= k.m < k.l,
        requirement="0 <= m < l",
        recurrence=lambda k: _first_family(k.p, k.l, k.m),
    ),
    "cor2.4": Rule(
        lambda k: lambda n: _first_exponent(n, k.p, k.l, 0),
        needs=("l",),
        admissible=lambda k: k.l >= 1,
        requirement="l >= 1",
        recurrence=lambda k: _first_family(k.p, k.l, 0),
    ),
    "thm2.7": Rule(
        lambda k: lambda n: _p2_exponent(n, k.l),
        needs=("l",),
        admissible=lambda k: k.p == 2 and k.l >= 2,
        requirement="p = 2 and l >= 2",
        recurrence=lambda k: _p2_family(k.l),
    ),
    "thm3.1": Rule(
        lambda k: _thm31_exponent(k.p, k.l),
        needs=("l",),
        admissible=_odd_p_admissible,
        requirement=_ODD_P_REQUIREMENT,
    ),
    "thm3.3": Rule(
        lambda k: _thm33_exponent,
        admissible=lambda k: k.p == 3,
        requirement="p = 3",
    ),
    "thm3.4": Rule(
        lambda k: _thm34_exponent(k.l),
        needs=("l",),
        admissible=lambda k: k.p == 2 and k.l >= 1,
        requirement="p = 2 and l >= 1",
    ),
    "cor3.6": Rule(_cor36_exponent),
    "thm3.7": Rule(
        lambda k: lambda n: floor_sum(n, k.p)
        - (k.l - 1) * _ceil_div(n, 2 * k.p**k.l)
        - floor_sum(n // 2, k.p, k.l),
        needs=("l",),
        admissible=_odd_p_admissible,
        requirement=_ODD_P_REQUIREMENT,
    ),
    "thm5.2": Rule(lambda k: lambda n: n // k.p - n // k.p**2),
    "thm5.3": Rule(
        lambda k: lambda n: n // k.p + n // k.p**2 - 2 * (n // k.p**3),
        admissible=lambda k: k.p != 2,
        requirement="an odd p",
    ),
    "thm5.5": Rule(
        lambda k: lambda n: n // 2 if k.dihedral_m % 4 == 0 else n // 2 - n // 4,
        needs=("dihedral_m",),
        admissible=lambda k: k.p == 2 and k.dihedral_m >= 1,
        requirement="p = 2 and dihedral_m >= 1",
    ),
    "thm6.1": Rule(
        _thm61_exponent,
        needs=("partition",),
        # partition_case raises on a malformed partition
        admissible=lambda k: bool(partition_case(k.partition)),
        requirement="a partition",
        recurrence=_thm61_recurrence,
        tight_classes=lambda k: [0],
    ),
    "thm6.2": Rule(
        _thm62_exponent,
        needs=("partition",),
        admissible=lambda k: partition_case(k.partition)[0] == "II" and k.p == 2,
        requirement="p = 2 and a case II partition",
        recurrence=lambda k: _p2_family(_thm62_l(k)),
        tight_classes=lambda k: [0, 2 ** _thm62_l(k), 2 ** (_thm62_l(k) + 1)],
    ),
    "kty": Rule(
        lambda k: lambda n: _first_exponent(n, k.p, k.l + 1, k.m),
        needs=("l", "m"),
        admissible=lambda k: 0 <= k.m <= k.l,
        requirement="l >= m >= 0",
    ),
    "hnc2": Rule(
        lambda k: lambda n: (n + 2) // 4,
        admissible=lambda k: k.p == 2,
        requirement="p = 2",
    ),
}


def bound_value(kind: BoundKind, n: int) -> int:
    """Exact integer value of the named exponent formula at n >= 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return RULES[kind.tag].exponent(kind)(n)


def bound_values(kind: BoundKind, n_max: int) -> list[int]:
    """[e(0), ..., e(n_max)], with the kind's derived parameters worked
    out once, not once per n as repeated `bound_value` calls would."""
    exponent = RULES[kind.tag].exponent(kind)
    return [exponent(n) for n in range(n_max + 1)]


def _encode(v: Valuation) -> int | str:
    """A valuation or slack as the report prints it."""
    return "infinity" if v == INFINITY else v


class BoundReport(NamedTuple):
    kind: BoundKind
    # one dict per row n, as the report prints it: n, valuation, bound,
    # slack and tight, with an infinite valuation or slack as "infinity"
    rows: list[dict]
    violations: list[int]
    tight_set: list[int]
    min_slack: Valuation
    # Q_n mod p for each row, None where the bound is violated; not part
    # of the report document
    q_residues: tuple[int | None, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "kind": self.kind.describe(),
            "rows_checked": len(self.rows),
            "violations": self.violations,
            "min_slack": _encode(self.min_slack),
            "tight": self.tight_set,
        }


# digits of p kept beyond p^e(n) when a row is reduced, and beyond
# p^max(E, 0) when `verify_bounds_mod` reduces h.  A nonzero residue reads
# exactly whatever the guard, so the guard only makes a zero residue, and
# with it the exact fallback, rare: row n reads 0 only when its slack is at
# least _GUARD + max(E, 0) - e(n) >= _GUARD.  The largest slack of the
# tightness sweep over every small Abelian type up to n = 1024 is 18 (p = 2,
# type (3,3,2,1,1)); test_c04_tightness_scope_sweep checks that it stays
# below this guard, so verify-group never falls back on those types
_GUARD = 64


def _split_row(
    x: Fraction | int,
    p: int,
    e: int,
    powers: dict[int, tuple[int, int]],
) -> tuple[Valuation, int | None]:
    """(v_p(x), Q mod p) for Q = x / p^e; the residue is None when v_p(x) < e.

    x is h_n itself, or a nonzero residue of h_n modulo p^M with
    M > max(e, 0).  Such a residue reads as h_n does: v_p(x) < M, so
    v_p(x) = v_p(h_n), and x / p^e = h_n / p^e (mod p).

    For an int x and e >= 0 one reduction r = x mod p^(e+64) gives both:
    when r != 0, v_p(x) = v_p(r) < e + 64 and Q = r / p^e (mod p).  When
    r == 0 the valuation is taken from x itself and Q = 0 (mod p).  For
    p = 2 both come from the bits of x.  For an int x and e < 0,
    Q = x p^(-e) is 0 (mod p).  Only a Fraction x, which a series holds
    only for a non-integral coefficient, goes through the exact rational
    quotient, whose denominator is prime to p once v_p(x) >= e.

    ``powers`` maps e to (p^e, p^(e+64)); a caller that reads many rows
    passes one dict, so that a pair is not formed again for each row.
    """
    if x == 0:
        return INFINITY, 0
    if not isinstance(x, int):
        val = vp(x, p)
        if val < e:
            return val, None
        q = x / p**e if e >= 0 else x * p**-e
        return val, q.numerator * pow(q.denominator, -1, p) % p
    if e < 0:
        return vp_int(x, p), 0
    if p == 2:
        val = (x & -x).bit_length() - 1
        return val, (x >> e) & 1 if val >= e else None
    if e not in powers:
        powers[e] = p**e, p ** (e + _GUARD)
    pe, pm = powers[e]
    r = x % pm
    if r == 0:
        return vp_int(x, p), 0
    q, t = divmod(r, pe)
    if t:
        return vp_int(t, p), None
    return e + vp_int(q, p), q % p


def _read_rows(
    h: Sequence[int | Fraction], p: int, bounds: list[int]
) -> list[tuple[Valuation, int | None]]:
    """`_split_row` of h_n against e(n) = bounds[n] for n = 0..len(bounds)-1.

    Only the powers of the last e are kept: e(n) seldom falls as n grows,
    so each pair is still formed about once per distinct e, and the
    pairs, each as large as a residue of h_n, never pile up beside h.
    """
    reads = []
    powers: dict[int, tuple[int, int]] = {}
    for n, bnd in enumerate(bounds):
        if bnd not in powers:
            powers.clear()
        reads.append(_split_row(h[n], p, bnd, powers))
    return reads


def _verify_rows(
    kind: BoundKind, bounds: list[int], reads: list[tuple[Valuation, int | None]]
) -> BoundReport:
    """The report on rows n = 0..len(bounds)-1 from (v_p(h_n), Q_n mod p) = reads[n]."""
    rows = []
    violations = []
    tight_set = []
    min_slack: Valuation = INFINITY
    for n, (bnd, (val, _)) in enumerate(zip(bounds, reads)):
        slack = val - bnd
        tight = slack == 0
        rows.append(
            {"n": n, "valuation": _encode(val), "bound": bnd, "slack": _encode(slack), "tight": tight}
        )
        if val < bnd:
            violations.append(n)
        if tight:
            tight_set.append(n)
        if slack < min_slack:
            min_slack = slack
    residues = tuple(residue for _, residue in reads)
    return BoundReport(kind, rows, violations, tight_set, min_slack, residues)


def verify_bounds(h: Sequence[int | Fraction], kind: BoundKind) -> BoundReport:
    """One row per n of h_0..h_N: valuation, bound, slack, tightness.

    The report also keeps Q_n mod p of every row (`q_residues`), found in
    the same pass as the valuation.
    """
    bounds = bound_values(kind, len(h) - 1)
    return _verify_rows(kind, bounds, _read_rows(h, kind.p, bounds))


def verify_bounds_mod(s: Sequence[int], kind: BoundKind) -> BoundReport:
    """`verify_bounds(exp_transform(s), kind)` from h modulo p^M.

    ``s`` holds the integers s_0..s_N, N = len(s) - 1 (s_0 is ignored).
    With E = max e(n), the recurrence runs modulo p^M, M = max(E, 0) + 64
    (`kernels.hall_exp` with that modulus), on numbers far smaller than
    the exact h_n.  Since M > max(e(n), 0), a nonzero residue of h_n gives
    v_p(h_n) and Q_n mod p exactly (`_split_row`), negative e(n) included.
    Only a residue equal to 0 needs more digits: when some residue is 0,
    the same kernel runs once more without a modulus, and every row is
    read from the exact h.  Every row's (valuation, Q_n mod p) is read
    before the row dicts are built and h is dropped in between, so the
    report takes the memory h held instead of adding to it.  An empty
    ``s`` raises ``ValueError``.
    """
    bounds = bound_values(kind, len(s) - 1)
    h = kernels.hall_exp(s, modulus=kind.p ** (max([0, *bounds]) + _GUARD))
    if 0 in h:
        h = kernels.hall_exp(s)
    reads = _read_rows(h, kind.p, bounds)
    del h
    return _verify_rows(kind, bounds, reads)


class QRecurrenceReport(NamedTuple):
    kind: BoundKind
    step: int
    multiplier: int  # residue mod p
    failures: list[int]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "kind": self.kind.describe(),
            "step": self.step,
            "multiplier_mod_p": self.multiplier,
            "failures": self.failures,
            "rows_checked": self.checked,
        }


def q_recurrence_parameters(
    kind: BoundKind, s: Sequence[int] | SubgroupCounts
) -> tuple[int, int]:
    """(step, multiplier residue) of the quotient recurrence in the kind's rule.

    Raises if the rule states none, or if the required difference
    congruence fails (the multiplier would not be p-integral).
    """
    recurrence = RULES[kind.tag].recurrence
    if recurrence is None:
        raise ValueError(f"no quotient recurrence is defined for kind {kind.tag!r}")
    lo, hi, shift, step, sign = recurrence(kind)
    p = kind.p
    q, r = divmod(s[hi] - s[lo], p**shift)
    if r:
        raise ValueError("difference congruence hypothesis violated: multiplier not p-integral")
    return step, sign * q % p


def verify_q_recurrence(
    report: BoundReport, s: Sequence[int] | SubgroupCounts
) -> QRecurrenceReport:
    """Check Q_n = rho * Q_{n-step} (mod p) on the residues of a bounds pass.

    ``s`` supplies the two coefficients rho is read from, which may lie
    beyond the report's rows; a violated bound leaves Q_n undefined and
    aborts with an error.
    """
    kind = report.kind
    p = kind.p
    if not report.ok:
        row = report.rows[report.violations[0]]
        raise ValueError(
            f"bound violated at n={row['n']}: v_{p}(h_n) = {row['valuation']} "
            f"< {row['bound']}; Q_{row['n']} undefined"
        )
    step, rho = q_recurrence_parameters(kind, s)
    q = report.q_residues
    failures = [
        n
        for n in range(step, len(q))
        if q[n] != rho * q[n - step] % p
    ]
    return QRecurrenceReport(kind, step, rho, failures, max(len(q) - step, 0))


# ---------------------------------------------------------------------------
# floor-sum lemmas
# ---------------------------------------------------------------------------


def floor_sum_gap(i: int, j: int, p: int, l: int) -> int:
    """sum_{s>=1} (floor(ij / p^{s+l}) - floor(j / p^s)), exactly, for i, j >= 0."""
    return floor_sum(i * j, p, l + 1) - floor_sum(j, p)


def _default_x_grid() -> list[Fraction]:
    grid = set()
    for den in range(1, 9):
        for num in range(-4 * den, 4 * den + 1):
            grid.add(Fraction(num, den))
    return sorted(grid)


class FloorLemmaReport(NamedTuple):
    ij_counterexamples: list[tuple[int, int]]
    half_counterexamples: list[tuple[int, Fraction]]
    ij_checked: int
    half_checked: int

    @property
    def ok(self) -> bool:
        return not self.ij_counterexamples and not self.half_counterexamples

    def summary(self) -> dict:
        return {
            "ij_checked": self.ij_checked,
            "ij_counterexamples": self.ij_counterexamples,
            "half_checked": self.half_checked,
            "half_counterexamples": [
                [j, str(x)] for j, x in self.half_counterexamples
            ],
        }


def half_floor_inequality_holds(j: int, x: Fraction) -> bool:
    """j + floor(x) <= floor(3j/2 + x) - floor(j/2)/2, checked doubled in ints."""
    return 2 * (j + math.floor(x)) <= 2 * math.floor(Fraction(3 * j, 2) + x) - j // 2


def floor_lemma_checks(
    p: int,
    l: int,
    i_max: int,
    j_max: int,
    j_min: int = 0,
) -> FloorLemmaReport:
    """Exhaustively check both floor-sum inequalities over a grid.

    First: for p^l <= i <= i_max, 0 <= j <= j_max,
      sum_{s>=1}(floor(ij/p^{s+l}) - floor(j/p^s)) >= j (p^{floor(log_p i)-l}-1)/(p-1).
    Second: for j_min <= j <= j_max (independent of p, l) and x on the
    rational grid, j + floor(x) <= floor(3j/2 + x) - floor(j/2)/2.
    An empty grid for either inequality raises ``ValueError``.
    """
    check_prime(p)
    if l < 0:
        raise ValueError("l must be non-negative")
    pl = p**l
    if i_max < pl:
        raise ValueError(f"i_max must be at least p**l = {pl}, got {i_max}")
    if j_max < 0:
        raise ValueError(f"j_max must be non-negative, got {j_max}")
    if j_max < j_min:
        raise ValueError(f"j_max must be at least j_min = {j_min}, got {j_max}")
    ij_counterexamples = []
    for i in range(pl, i_max + 1):
        target_unit = (p ** (floor_log(p, i) - l) - 1) // (p - 1)
        ij_counterexamples += [
            (i, j) for j in range(j_max + 1) if floor_sum_gap(i, j, p, l) < j * target_unit
        ]
    xs = _default_x_grid()
    half_counterexamples = [
        (j, x)
        for j in range(j_min, j_max + 1)
        for x in xs
        if not half_floor_inequality_holds(j, x)
    ]
    return FloorLemmaReport(
        ij_counterexamples,
        half_counterexamples,
        (i_max + 1 - pl) * (j_max + 1),
        (j_max + 1 - j_min) * len(xs),
    )
