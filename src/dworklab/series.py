"""Truncated formal-power-series layer.

Connects the two coefficient views of H(z) = exp(S(z)):

* `LogSeries`:  s_1..s_N with S(z) = sum s_n z^n / n
* `ExpSeries`:  h_0..h_N with H(z) = sum h_n z^n / n!

and provides the transforms between them, the gap series S(z^p) - pS(z)
whose low-order p-integrality drives all valuation bounds, the corrected
tail coefficients (lambda sequence), and exact hypothesis checkers for
the theorems in `dworklab.bounds.THEOREMS`, whose parameters are
validated by the rule each theorem maps to.

Coefficients are exact: a plain int where the value is integral, as on
every group and cycle series, and a `Fraction` only where it is not.

Truncation is strict: indexing beyond N raises, and hypothesis conditions
quantified over an infinite index range are only confirmed up to N (the
report says so rather than claiming a full pass).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import kernels
from .bounds import RULES, THEOREMS, BoundKind
from .exactcore import check_prime, floor_log, vp


def _exact(v) -> int | Fraction:
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class LogSeries:
    """Coefficients s_1..s_N of S(z) = sum_{n>=1} s_n z^n / n."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    @property
    def n_max(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int | Fraction:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"s_{n} is outside the truncation 1..{self.n_max}")
        return self.coeffs[n - 1]

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    @classmethod
    def from_map(cls, values: Mapping[int, int | Fraction], n_max: int) -> "LogSeries":
        return cls(tuple(values.get(n, 0) for n in range(1, n_max + 1)))


@dataclass(frozen=True)
class ExpSeries:
    """Coefficients h_0..h_N of H(z) = sum_{n>=0} h_n z^n / n!."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("an exp-series needs at least h_0")
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int | Fraction:
        if not 0 <= n <= self.n_max:
            raise IndexError(f"h_{n} is outside the truncation 0..{self.n_max}")
        return self.coeffs[n]

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)


def exp_transform(s: LogSeries) -> ExpSeries:
    """h_n = sum_{k=1}^{n} (n-k+1)_{k-1} s_k h_{n-k}, with h_0 = 1.

    With d the least common denominator of the s_k, H_n = d^n h_n obeys
    the same division-free recurrence with the integers d^k s_k in place of
    s_k, so `kernels.hall_exp` computes it; d = 1 on an integral series.
    """
    d = math.lcm(*(c.denominator for c in s.coeffs))
    scaled = [0] + [c.numerator * (d**k // c.denominator) for k, c in enumerate(s.coeffs, 1)]
    big_h = kernels.hall_exp(scaled, s.n_max)
    if d == 1:
        return ExpSeries(tuple(big_h))
    return ExpSeries(tuple(Fraction(x, d**n) for n, x in enumerate(big_h)))


def log_transform(h: ExpSeries) -> LogSeries:
    """Inverse of `exp_transform`; requires h_0 = 1.

    s_n = (h_n - sum_{k<n} (n-k+1)_{k-1} s_k h_{n-k}) / (n-1)!.  The
    division stays in ints while it is exact and builds a Fraction only
    where it is not: an integer h need not come from an integer s.
    """
    hc = h.coeffs
    if hc[0] != 1:
        raise ValueError("not an exponential of a series with zero constant term")
    n_max = h.n_max
    s: list[int | Fraction] = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = hc[n]
        poch = 1
        for k in range(1, n):
            sk = s[k]
            if sk:
                acc -= poch * sk * hc[n - k]
            poch *= n - k
        q, r = divmod(acc, poch)  # poch == (n-1)!
        s[n] = Fraction(acc, poch) if r else q
    return LogSeries(tuple(s[1:]))


@dataclass(frozen=True)
class DworkGap:
    """Coefficients g_1..g_N of S(z^p) - p S(z)."""

    g: tuple[Fraction, ...]
    p: int

    @property
    def n_max(self) -> int:
        return len(self.g)

    def __getitem__(self, j: int) -> Fraction:
        if not 1 <= j <= self.n_max:
            raise IndexError(f"g_{j} is outside the truncation 1..{self.n_max}")
        return self.g[j - 1]

    def first_shallow_index(self, lo: int = 1, hi: int | None = None) -> int | None:
        """Least j in [lo, hi] with vp(g_j) < 1, or None."""
        hi = self.n_max if hi is None else min(hi, self.n_max)
        for j in range(lo, hi + 1):
            if vp(self[j], self.p) < 1:
                return j
        return None


def dwork_gap(s: LogSeries, p: int) -> DworkGap:
    """g_j = -p s_j / j, plus p s_{j/p} / j when p divides j."""
    check_prime(p)
    g = []
    for j in range(1, s.n_max + 1):
        coeff = Fraction(-p, j) * s[j]
        if j % p == 0:
            coeff += Fraction(p, j) * s[j // p]
        g.append(coeff)
    return DworkGap(tuple(g), p)


def truncation_level(s: LogSeries, p: int) -> int:
    """Largest l >= 1 with vp(g_j) >= 1 for all j < p^l and p^l - 1 <= N.

    Returns 0 when even g_1 fails.  The series must be p-integral.
    """
    check_prime(p)
    for n in range(1, s.n_max + 1):
        if vp(s[n], p) < 0:
            raise ValueError("not p-integral")
    gap = dwork_gap(s, p)
    fail = gap.first_shallow_index()
    limit = s.n_max + 1 if fail is None else fail
    # largest l with p^l <= limit (so that every j < p^l passed) and p^l - 1 <= N
    level = 0
    power = p
    while power <= limit and power - 1 <= s.n_max:
        level += 1
        power *= p
    return level


def _lambda_at(s: LogSeries, p: int, l: int, i: int) -> Fraction:
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


def lambda_sequence(s: LogSeries, p: int, l: int) -> dict[int, Fraction]:
    """Corrected tail coefficients lambda_i for p^l < i <= N.

    lambda_i = s_i when i / p^{v_p(i)} >= p^l; otherwise s_i - s_{i/p^e}
    with e minimal such that i / p^e < p^l.
    """
    check_prime(p)
    if l < 1:
        raise ValueError("l must be positive")
    if p**l > s.n_max:
        raise ValueError("p^l exceeds the truncation")
    pl = p**l
    return {i: _lambda_at(s, p, l, i) for i in range(pl + 1, s.n_max + 1)}


def reference_series(s: LogSeries, p: int, l: int) -> LogSeries:
    """The comparison series: s with index p^l replaced by s_{p^{l-1}} and
    every tail index i > p^l replaced by the subtracted term of lambda_i
    (zero when lambda_i = s_i).

    Adding back (s_{p^l} - s_{p^{l-1}}) z^{p^l}/p^l and sum lambda_i z^i/i
    reproduces S(z) coefficient-by-coefficient.
    """
    check_prime(p)
    if l < 1:
        raise ValueError("l must be positive")
    pl = p**l
    if pl > s.n_max:
        raise ValueError("p^l exceeds the truncation")
    out = list(s.coeffs)
    out[pl - 1] = s[pl // p]
    for i in range(pl + 1, s.n_max + 1):
        out[i - 1] = s[i] - _lambda_at(s, p, l, i)
    return LogSeries(tuple(out))


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
UNVERIFIABLE = "unverifiable at this truncation"


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    status: str
    first_failure: int | None = None
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    p: int
    params: dict = field(default_factory=dict)
    conditions: tuple[ConditionVerdict, ...] = ()
    overall: bool = True
    fully_verified: bool = True

    def condition(self, name: str) -> ConditionVerdict:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


class _Checker:
    """Accumulates condition verdicts over the verifiable index range."""

    def __init__(self):
        self.conditions: list[ConditionVerdict] = []
        self.truncated = False

    def scan(self, name, indices, predicate, beyond_truncation=False, note=""):
        indices = list(indices)
        if beyond_truncation:
            self.truncated = True
            note = (note + "; " if note else "") + "indices beyond N unverifiable"
        if not indices:
            status = UNVERIFIABLE if beyond_truncation else PASS
            self.conditions.append(ConditionVerdict(name, status, None, note))
            return
        for idx in indices:
            if not predicate(idx):
                self.conditions.append(ConditionVerdict(name, FAIL, idx, note))
                return
        self.conditions.append(ConditionVerdict(name, PASS, None, note))

    def report(self, theorem, p, params) -> HypothesisReport:
        overall = all(c.status != FAIL for c in self.conditions)
        fully = overall and not self.truncated and all(
            c.status == PASS for c in self.conditions
        )
        return HypothesisReport(
            theorem, p, params, tuple(self.conditions), overall, fully
        )


def _check_integrality(chk: _Checker, s: LogSeries, p: int):
    chk.scan("coefficients in Z_p", range(1, s.n_max + 1), lambda n: vp(s[n], p) >= 0)


def _check_gap(chk: _Checker, gap: DworkGap, hi: int, name: str):
    """vp(g_j) >= 1 for 1 <= j <= hi (hi may exceed the truncation)."""
    n = gap.n_max
    chk.scan(
        name,
        range(1, min(hi, n) + 1),
        lambda j: vp(gap[j], gap.p) >= 1,
        beyond_truncation=hi > n,
    )


def _check_sdiff(chk: _Checker, s: LogSeries, p: int, l: int, m: int):
    """Tail condition: vp(lambda_i) bounded below for all i > p^l."""
    pl = p**l

    def ok(i):
        rhs = (
            -(l - m) * (i // pl)
            + (vp(i, p))
            - (p ** (floor_log(p, i) - l) - 1) // (p - 1)
            + 1
        )
        return vp(_lambda_at(s, p, l, i), p) >= rhs

    chk.scan(
        "tail valuations (lambda)",
        range(pl + 1, s.n_max + 1),
        ok,
        beyond_truncation=True,
    )


def _check_sdiff2(chk: _Checker, s: LogSeries, l: int):
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

    indices = [i for i in range(pl + 1, s.n_max + 1) if i != 2 * pl]
    chk.scan("tail valuations (lambda, p=2)", indices, ok, beyond_truncation=True)


def _vp_diff(s: LogSeries, a: int, b: int, p: int):
    return vp(s[a] - s[b], p)


def check_hypotheses(
    s: LogSeries, p: int, theorem: str, l: int | None = None, m: int | None = None
) -> HypothesisReport:
    """Exact verification of a theorem's conditions on the range 1..N.

    Conditions whose index set extends past the truncation are only
    confirmed up to N; the report's `fully_verified` flag records that.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    kind = BoundKind(THEOREMS[theorem], p, l=l, m=m)
    params = {name: getattr(kind, name) for name in RULES[kind.tag].needs}
    n = s.n_max
    chk = _Checker()

    if theorem == "thm2.1":
        gap = dwork_gap(s, p)
        _check_gap(chk, gap, p**l - 1, "gap integrality below z^(p^l)")
        if p**l <= n:
            chk.scan(
                "difference congruence mod p^m",
                [p**l],
                lambda i: _vp_diff(s, p ** (l - 1), i, p) >= m,
            )
        else:
            chk.scan("difference congruence mod p^m", [], None, beyond_truncation=True)
        _check_sdiff(chk, s, p, l, m)

    elif theorem == "cor2.4":
        _check_integrality(chk, s, p)
        _check_gap(chk, dwork_gap(s, p), p**l - 1, "gap integrality below z^(p^l)")

    elif theorem == "cor2.5":
        powers = set()
        q = 1
        while q <= n:
            powers.add(q)
            q *= p
        chk.scan(
            "support on powers of p",
            (i for i in range(1, n + 1) if i not in powers),
            lambda i: s[i] == 0,
        )
        chk.scan("coefficients in Z_p", sorted(powers), lambda i: vp(s[i], p) >= 0)
        _check_gap(chk, dwork_gap(s, p), p**l - 1, "gap integrality below z^(p^l)")
        if p**l <= n:
            chk.scan(
                "difference congruence mod p^m",
                [p**l],
                lambda i: _vp_diff(s, p ** (l - 1), i, p) >= m,
            )
        else:
            chk.scan("difference congruence mod p^m", [], None, beyond_truncation=True)
        # power-indexed tail condition, only for e with p^{e-l} < 2l+1
        es = []
        e = l + 1
        while p ** (e - l) < 2 * l + 1:
            es.append(e)
            e += 1
        in_range = [e for e in es if p**e <= n]

        def ok(e):
            t = p ** (e - l)
            rhs = -(l - m) * t - (t - 1) // (p - 1) + e + 1
            return _vp_diff(s, p**e, p ** (l - 1), p) >= rhs

        chk.scan(
            "tail valuations (power indices)",
            in_range,
            ok,
            beyond_truncation=len(in_range) < len(es),
        )

    elif theorem == "thm2.7":
        gap = dwork_gap(s, 2)
        _check_gap(chk, gap, 2**l - 1, "gap integrality below z^(2^l)")
        pairs = [
            ("s_{2^{l-1}} = s_{2^l} mod 2^{l-1}", 2 ** (l - 1), 2**l, l - 1),
            ("s_{2^l} = s_{2^{l+1}} mod 2^{l-2}", 2**l, 2 ** (l + 1), l - 2),
        ]
        for name, a, b, mm in pairs:
            if b <= n:
                chk.scan(name, [b], lambda i, a=a, mm=mm: _vp_diff(s, a, i, 2) >= mm)
            else:
                chk.scan(name, [], None, beyond_truncation=True)
        if 2 ** (l + 1) <= n:
            chk.scan(
                "coupled difference congruence mod 2^l",
                [2 ** (l + 1)],
                lambda i: vp((s[2**l] - s[2 ** (l - 1)]) - 2 * (s[i] - s[2**l]), 2)
                >= l,
            )
        else:
            chk.scan(
                "coupled difference congruence mod 2^l",
                [],
                None,
                beyond_truncation=True,
            )
        _check_sdiff2(chk, s, l)

    elif theorem in ("thm3.1", "thm3.7"):
        _check_integrality(chk, s, p)
        hi = p**l if theorem == "thm3.1" else 2 * p**l - 1
        _check_gap(chk, dwork_gap(s, p), hi, f"gap integrality through z^{hi}")

    elif theorem == "thm3.3":
        _check_integrality(chk, s, p)
        _check_gap(chk, dwork_gap(s, p), 3, "gap integrality through z^3")

    elif theorem == "thm3.4":
        _check_integrality(chk, s, p)
        _check_gap(chk, dwork_gap(s, p), 2**l, f"gap integrality through z^{2 ** l}")

    elif theorem == "cor3.6":
        _check_integrality(chk, s, p)
        if p <= n:
            branch = dividing_line_branch(s, p)
            chk.conditions.append(
                ConditionVerdict(
                    "dividing-line branch",
                    PASS,
                    None,
                    f"s_1 {'=' if branch == 'divisibility' else '!='} s_p (mod p): "
                    f"{branch} branch",
                )
            )
            if branch == "divisibility":
                _check_gap(chk, dwork_gap(s, p), p, "low-order gap through z^p")
        else:
            chk.conditions.append(
                ConditionVerdict("dividing-line branch", UNVERIFIABLE)
            )
            chk.truncated = True

    return chk.report(theorem, p, params)


def dividing_line_branch(s: LogSeries, p: int) -> str:
    """'divisibility' when s_1 = s_p (mod p), else 'indivisibility'."""
    check_prime(p)
    return "divisibility" if vp(s[1] - s[p], p) >= 1 else "indivisibility"


# ---------------------------------------------------------------------------
# text format:  header "N p", then one line "n numerator denominator"
# ---------------------------------------------------------------------------


def _dump(coeffs, start: int, n_max: int, p: int) -> str:
    out = io.StringIO()
    out.write(f"{n_max} {p}\n")
    for offset, c in enumerate(coeffs):
        out.write(f"{start + offset} {c.numerator} {c.denominator}\n")
    return out.getvalue()


def dump_log_series(s: LogSeries, p: int) -> str:
    return _dump(s.coeffs, 1, s.n_max, p)


def dump_exp_series(h: ExpSeries, p: int) -> str:
    return _dump(h.coeffs, 0, h.n_max, p)


def _load(text: str, start: int):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series document")
    try:
        n_max_s, p_s = lines[0].split()
        n_max, p = int(n_max_s), int(p_s)
    except ValueError as exc:
        raise ValueError(f"malformed series header {lines[0]!r}") from exc
    coeffs = []
    expected = start
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed series line {ln!r}")
        n, num, den = (int(x) for x in parts)
        if n != expected:
            raise ValueError(f"series index {n}, expected {expected}")
        if den <= 0:
            raise ValueError(f"non-positive denominator in line {ln!r}")
        coeffs.append(num if den == 1 else Fraction(num, den))
        expected += 1
    if expected != n_max + 1:
        raise ValueError(f"series ends at {expected - 1}, header claims {n_max}")
    return coeffs, p


def load_log_series(text: str) -> tuple[LogSeries, int]:
    coeffs, p = _load(text, 1)
    return LogSeries(tuple(coeffs)), p


def load_exp_series(text: str) -> tuple[ExpSeries, int]:
    coeffs, p = _load(text, 0)
    return ExpSeries(tuple(coeffs)), p
