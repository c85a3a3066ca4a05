"""Truncated formal-power-series layer.

Connects the two coefficient lists of H(z) = exp(S(z)), the ones
`kernels.hall_exp` takes and returns:

* s = [s_0, s_1, ..., s_N] with S(z) = sum s_n z^n / n, where s_0 = 0
  and is never read, so N = len(s) - 1;
* h = [h_0, h_1, ..., h_N] with H(z) = sum h_n z^n / n!,

and provides the transforms between them and `THEOREMS`, one record per
checkable theorem: the rule whose exponent it proves, which validates
its parameters, and its hypotheses, which `check_hypotheses` verifies
exactly.  The hypotheses read the gap series S(z^p) - pS(z), whose
low-order p-integrality drives all valuation bounds, and the corrected
tail coefficients lambda_i one index at a time.

Coefficients are exact: a plain int where the value is integral, as on
every group and cycle series, and a `Fraction` only where it is not.
`load_log_series` and `exp_transform` return them in that form.

Truncation is strict: hypothesis conditions quantified over an infinite
index range are only confirmed up to N (the report says so rather than
claiming a full pass).
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import kernels
from .bounds import RULES, BoundKind
from .exactcore import check_prime, floor_log, vp

_Coeffs = Sequence[int | Fraction]  # s_0..s_N or h_0..h_N


def _exact(v) -> int | Fraction:
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def exp_transform(s: _Coeffs) -> list[int | Fraction]:
    """h_n = sum_{k=1}^{n} (n-k+1)_{k-1} s_k h_{n-k}, with h_0 = 1.

    With d the least common denominator of the s_k, H_n = d^n h_n obeys
    the same division-free recurrence with the integers d^k s_k in place of
    s_k, so `kernels.hall_exp` computes it; d = 1 on an integral series.
    """
    d = math.lcm(*(c.denominator for c in s))
    scaled = [c.numerator * (d**k // c.denominator) for k, c in enumerate(s)]
    big_h = kernels.hall_exp(scaled, len(s) - 1)
    if d == 1:
        return big_h
    return [_exact(Fraction(x, d**n)) for n, x in enumerate(big_h)]


def log_transform(h: _Coeffs) -> list[int | Fraction]:
    """Inverse of `exp_transform`; requires h_0 = 1.

    s_n = (h_n - sum_{k<n} (n-k+1)_{k-1} s_k h_{n-k}) / (n-1)!.  The
    division stays in ints while it is exact and builds a Fraction only
    where it is not: an integer h need not come from an integer s.
    """
    if not h:
        raise ValueError("an exp-series needs at least h_0")
    if h[0] != 1:
        raise ValueError("not an exponential of a series with zero constant term")
    s: list[int | Fraction] = [0] * len(h)
    for n in range(1, len(h)):
        acc = h[n]
        poch = 1
        for k in range(1, n):
            sk = s[k]
            if sk:
                acc -= poch * sk * h[n - k]
            poch *= n - k
        q, r = divmod(acc, poch)  # poch == (n-1)!
        s[n] = Fraction(acc, poch) if r else q
    return s


def _gap_integral(s: _Coeffs, p: int, j: int) -> bool:
    """vp(g_j) >= 1 for the gap g = S(z^p) - p S(z).

    g_j = p (s_{j/p} - s_j) / j with s_{j/p} = 0 when p does not divide j,
    so this is v_p(s_{j/p} - s_j) >= v_p(j).
    """
    below = s[j // p] if j % p == 0 else 0
    return vp(below - s[j], p) >= vp(j, p)


def _lambda_at(s: _Coeffs, p: int, l: int, i: int) -> Fraction:
    """lambda_i = s_i when i / p^{v_p(i)} >= p^l; otherwise s_i - s_{i/p^e}
    with e minimal such that i / p^e < p^l."""
    pl = p**l
    stripped = i
    while stripped % p == 0:
        stripped //= p
    if stripped >= pl:
        return s[i]
    reduced = i
    while reduced >= pl:
        reduced //= p
    return s[i] - s[reduced]


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
UNVERIFIABLE = "unverifiable at this truncation"


class ConditionVerdict(NamedTuple):
    name: str
    status: str
    first_failure: int | None = None
    note: str = ""


class HypothesisReport(NamedTuple):
    theorem: str
    kind: BoundKind  # the validated kind of the theorem's rule
    conditions: tuple[ConditionVerdict, ...] = ()
    overall: bool = True
    fully_verified: bool = True

    @property
    def p(self) -> int:
        return self.kind.p

    @property
    def params(self) -> dict:
        return {name: getattr(self.kind, name) for name in RULES[self.kind.tag].needs}

    def condition(self, name: str) -> ConditionVerdict:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


class Condition(NamedTuple):
    """One hypothesis of a theorem: `holds(i)` at every index of `indices`,
    the part of its index range inside the truncation.  `beyond` marks a
    range that also runs past N, so the condition is confirmed only up to
    N, and is unverifiable when no index of it lies inside."""

    name: str
    indices: Sequence[int]
    holds: Callable[[int], bool] = lambda i: True
    beyond: bool = False
    note: str = ""


class Theorem(NamedTuple):
    """A checkable theorem: the tag of the rule whose exponent it proves,
    and its hypotheses on S(z) for a kind of that rule."""

    rule: str
    hypotheses: Callable[[_Coeffs, BoundKind], list[Condition]]


def _integrality(s: _Coeffs, p: int) -> Condition:
    return Condition("coefficients in Z_p", range(1, len(s)), lambda n: vp(s[n], p) >= 0)


def _gap(s: _Coeffs, p: int, hi: int, name: str) -> Condition:
    """vp(g_j) >= 1 for 1 <= j <= hi (hi may exceed the truncation)."""
    n = len(s) - 1
    return Condition(name, range(1, min(hi, n) + 1), lambda j: _gap_integral(s, p, j), beyond=hi > n)


def _congruence(s: _Coeffs, name: str, i: int, holds: Callable[[int], bool]) -> Condition:
    """A congruence read at index i; unverifiable when i lies past N."""
    inside = i < len(s)
    return Condition(name, [i] if inside else [], holds, beyond=not inside)


def _difference(s: _Coeffs, p: int, name: str, a: int, b: int, shift: int) -> Condition:
    """s_a = s_b (mod p^shift), read at index b."""
    return _congruence(s, name, b, lambda i: vp(s[a] - s[i], p) >= shift)


def _lambda_bound(s: _Coeffs, p: int, l: int, m: int) -> Callable[[int], bool]:
    """The thm2.1 tail predicate at i > p^l: vp(lambda_i) >= -(l-m) floor(i/p^l)
    + vp(i) - (p^(floor_log(i)-l) - 1)/(p-1) + 1."""

    def ok(i):
        t = p ** (floor_log(p, i) - l)
        rhs = -(l - m) * (i // p**l) + vp(i, p) - (t - 1) // (p - 1) + 1
        return vp(_lambda_at(s, p, l, i), p) >= rhs

    return ok


def _lambda_tail(s: _Coeffs, p: int, l: int, m: int) -> Condition:
    """Tail condition: vp(lambda_i) bounded below for all i > p^l."""
    indices = range(p**l + 1, len(s))
    return Condition("tail valuations (lambda)", indices, _lambda_bound(s, p, l, m), beyond=True)


def _lambda_tail_p2(s: _Coeffs, l: int) -> Condition:
    """p = 2 refinement of the tail condition, skipping i = 2^{l+1}."""
    pl = 2**l

    def ok(i):
        chi = 1 if i > 2 * pl else 0
        rhs = (
            -(i // pl)
            + vp(i, 2)
            - 2 ** (floor_log(2, i) - l)
            + -((-i) // (4 * pl))  # ceil(i / 2^{l+2})
            + 1
            + chi
        )
        return vp(_lambda_at(s, 2, l, i), 2) >= rhs

    indices = [i for i in range(pl + 1, len(s)) if i != 2 * pl]
    return Condition("tail valuations (lambda, p=2)", indices, ok, beyond=True)


def _power_tail(s: _Coeffs, p: int, l: int, m: int) -> Condition:
    """The lambda tail predicate at i = p^e, indexed by e, only for the e > l
    with p^{e-l} < 2l+1; there lambda_i = s_{p^e} - s_{p^{l-1}}."""
    es = range(l + 1, l + floor_log(p, 2 * l) + 1)  # p^{e-l} <= 2l
    in_range = [e for e in es if p**e < len(s)]
    ok = _lambda_bound(s, p, l, m)
    truncated = len(in_range) < len(es)
    return Condition(
        "tail valuations (power indices)", in_range, lambda e: ok(p**e), beyond=truncated
    )


def _gap_below(s: _Coeffs, p: int, l: int) -> Condition:
    return _gap(s, p, p**l - 1, "gap integrality below z^(p^l)")


def _gap_and_congruence(s: _Coeffs, k: BoundKind) -> list[Condition]:
    """The gap below z^(p^l) and s_{p^{l-1}} = s_{p^l} (mod p^m)."""
    p, l = k.p, k.l
    return [
        _gap_below(s, p, l),
        _difference(s, p, "difference congruence mod p^m", p ** (l - 1), p**l, k.m),
    ]


def _cor25_hypotheses(s: _Coeffs, k: BoundKind) -> list[Condition]:
    p, n = k.p, len(s) - 1
    powers = set()
    q = 1
    while q <= n:
        powers.add(q)
        q *= p
    return [
        Condition(
            "support on powers of p",
            [i for i in range(1, n + 1) if i not in powers],
            lambda i: s[i] == 0,
        ),
        Condition("coefficients in Z_p", sorted(powers), lambda i: vp(s[i], p) >= 0),
        *_gap_and_congruence(s, k),
        _power_tail(s, p, k.l, k.m),
    ]


def _thm27_hypotheses(s: _Coeffs, k: BoundKind) -> list[Condition]:
    l = k.l
    return [
        _gap(s, 2, 2**l - 1, "gap integrality below z^(2^l)"),
        _difference(s, 2, "s_{2^{l-1}} = s_{2^l} mod 2^{l-1}", 2 ** (l - 1), 2**l, l - 1),
        _difference(s, 2, "s_{2^l} = s_{2^{l+1}} mod 2^{l-2}", 2**l, 2 ** (l + 1), l - 2),
        _congruence(
            s,
            "coupled difference congruence mod 2^l",
            2 ** (l + 1),
            lambda i: vp((s[2**l] - s[2 ** (l - 1)]) - 2 * (s[i] - s[2**l]), 2) >= l,
        ),
        _lambda_tail_p2(s, l),
    ]


def _integral_gap(s: _Coeffs, p: int, hi: int) -> list[Condition]:
    return [_integrality(s, p), _gap(s, p, hi, f"gap integrality through z^{hi}")]


def _cor36_hypotheses(s: _Coeffs, k: BoundKind) -> list[Condition]:
    p = k.p
    if p >= len(s):
        return [_integrality(s, p), Condition("dividing-line branch", [], beyond=True)]
    branch = dividing_line_branch(s, p)
    sign = "=" if branch == "divisibility" else "!="
    out = [
        _integrality(s, p),
        Condition("dividing-line branch", [], note=f"s_1 {sign} s_p (mod p): {branch} branch"),
    ]
    if branch == "divisibility":
        out.append(_gap(s, p, p, "low-order gap through z^p"))
    return out


# checkable theorem id -> the rule whose exponent it proves and its hypotheses
THEOREMS: dict[str, Theorem] = {
    "thm2.1": Theorem(
        "thm2.1", lambda s, k: [*_gap_and_congruence(s, k), _lambda_tail(s, k.p, k.l, k.m)]
    ),
    "cor2.4": Theorem("cor2.4", lambda s, k: [_integrality(s, k.p), _gap_below(s, k.p, k.l)]),
    "cor2.5": Theorem("thm2.1", _cor25_hypotheses),
    "thm2.7": Theorem("thm2.7", _thm27_hypotheses),
    "thm3.1": Theorem("thm3.1", lambda s, k: _integral_gap(s, k.p, k.p**k.l)),
    "thm3.3": Theorem("thm3.3", lambda s, k: _integral_gap(s, 3, 3)),
    "thm3.4": Theorem("thm3.4", lambda s, k: _integral_gap(s, 2, 2**k.l)),
    "thm3.7": Theorem("thm3.7", lambda s, k: _integral_gap(s, k.p, 2 * k.p**k.l - 1)),
    "cor3.6": Theorem("cor3.6", _cor36_hypotheses),
}


def check_hypotheses(
    s: _Coeffs, p: int, theorem: str, l: int | None = None, m: int | None = None
) -> HypothesisReport:
    """Exact verification of a theorem's conditions on the range 1..N.

    Conditions whose index set extends past the truncation are only
    confirmed up to N; the report's `fully_verified` flag records that.
    The parameters are validated by the theorem's rule; those it does not
    need are dropped from the report's kind.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    entry = THEOREMS[theorem]
    needs = RULES[entry.rule].needs
    kind = BoundKind(entry.rule, p, **{k: v for k, v in (("l", l), ("m", m)) if k in needs})
    conditions = entry.hypotheses(s, kind)
    verdicts = []
    for c in conditions:
        failure = next((i for i in c.indices if not c.holds(i)), None)
        if failure is not None:
            status = FAIL
        elif c.beyond and not c.indices:
            status = UNVERIFIABLE
        else:
            status = PASS
        note = c.note
        if c.beyond:
            note = (note + "; " if note else "") + "indices beyond N unverifiable"
        verdicts.append(ConditionVerdict(c.name, status, failure, note))
    overall = all(v.status != FAIL for v in verdicts)
    fully = overall and not any(c.beyond for c in conditions)
    return HypothesisReport(theorem, kind, tuple(verdicts), overall, fully)


def dividing_line_branch(s: _Coeffs, p: int) -> str:
    """'divisibility' when s_1 = s_p (mod p), else 'indivisibility'."""
    check_prime(p)
    return "divisibility" if vp(s[1] - s[p], p) >= 1 else "indivisibility"


# ---------------------------------------------------------------------------
# log-series text format:  header "N p", then one line "n numerator denominator"
# ---------------------------------------------------------------------------


def dump_log_series(s: _Coeffs, p: int) -> str:
    out = io.StringIO()
    out.write(f"{len(s) - 1} {p}\n")
    for n, c in enumerate(s[1:], 1):
        out.write(f"{n} {c.numerator} {c.denominator}\n")
    return out.getvalue()


def load_log_series(text: str) -> tuple[list[int | Fraction], int]:
    """([0, s_1, ..., s_N], p) from a series document."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series document")
    try:
        n_max_s, p_s = lines[0].split()
        n_max, p = int(n_max_s), int(p_s)
    except ValueError as exc:
        raise ValueError(f"malformed series header {lines[0]!r}") from exc
    s: list[int | Fraction] = [0]
    for ln in lines[1:]:
        try:
            n, num, den = (int(x) for x in ln.split())
        except ValueError as exc:
            raise ValueError(f"malformed series line {ln!r}") from exc
        if n != len(s):
            raise ValueError(f"series index {n}, expected {len(s)}")
        if den <= 0:
            raise ValueError(f"non-positive denominator in line {ln!r}")
        s.append(_exact(Fraction(num, den)))
    if len(s) != n_max + 1:
        raise ValueError(f"series ends at {len(s) - 1}, header claims {n_max}")
    return s, p
