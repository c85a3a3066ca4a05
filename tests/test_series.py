import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dwork_gap,
    involution_oracle,
    lambda_sequence,
    poly_exp_oracle,
    repaired_integer_series,
    series_from_map,
)
from dworklab.bounds import RULES, BoundKind
from dworklab.exactcore import legendre_valuation, vp
from dworklab.series import (
    FAIL,
    THEOREMS,
    UNVERIFIABLE,
    check_hypotheses,
    dividing_line_branch,
    _gap_integral,
    _lambda_at,
    dump_log_series,
    exp_transform,
    load_log_series,
    log_transform,
)

C2 = [0, 1, 1, 0, 0, 0]


def test_exp_transform_examples():
    assert [int(x) for x in exp_transform(C2)] == involution_oracle(5)
    zeros = exp_transform([0] * 7)
    assert [int(x) for x in zeros] == [1, 0, 0, 0, 0, 0, 0]
    ones = exp_transform([0] + [1] * 8)
    fact = 1
    for n, h in enumerate(ones):
        assert h == fact
        fact *= n + 1


def test_exp_transform_rational_matches_polynomial_expansion():
    rng = random.Random(21)
    for _ in range(4):
        svals = [0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(25)]
        h = exp_transform(svals)
        assert h == poly_exp_oracle(svals)


def test_log_transform_examples():
    fact, facts = 1, []
    for n in range(9):
        facts.append(fact)
        fact *= n + 1
    assert log_transform(facts) == [0] + [Fraction(1)] * 8
    assert log_transform([1, 1, 2, 4, 10, 26]) == C2
    assert log_transform([1, 0, 0, 0]) == [Fraction(0)] * 4
    with pytest.raises(ValueError, match="exponential of a series"):
        log_transform([2, 1])
    with pytest.raises(ValueError, match="at least h_0"):
        log_transform([])


def test_round_trip_random_rationals():
    rng = random.Random(22)
    for trial in range(6):
        n_max = rng.randint(5, 60)
        s = [0] + [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n_max)]
        h = exp_transform(s)
        assert log_transform(h) == s
        assert exp_transform(log_transform(h)) == h


def test_log_transform_integer_round_trip():
    rng = random.Random(12)
    svals = [0] + [rng.randint(-20, 20) for _ in range(60)]
    s = log_transform(exp_transform(svals))
    assert s == svals
    assert all(type(c) is int for c in s)


def test_log_transform_leaves_the_integers_exactly():
    # h = (1, 0, 0, 0, 1) comes from no integer s: s_4 = h_4 / 3!
    s = log_transform([1, 0, 0, 0, 1])
    assert s == [0, 0, 0, 0, Fraction(1, 6)]
    assert [type(c) for c in s] == [int, int, int, int, Fraction]
    assert not all(type(c) is int for c in s)


def _stored_exactly(series) -> bool:
    """Integral coefficients are ints, the others Fractions."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in series
    )


def test_load_log_series_normalises_coefficients():
    s, p = load_log_series("2 3\n1 4 2\n2 2 6\n")
    assert p == 3 and s == [0, 2, Fraction(1, 3)]
    assert [type(c) for c in s] == [int, int, Fraction]


def test_exp_transform_returns_integral_coefficients_as_ints():
    # h_2 = s_1 h_1 + s_2 h_0 = 1/4 + 3/4 is integral although s is not
    h = exp_transform([0, Fraction(1, 2), Fraction(3, 4)])
    assert h == [1, Fraction(1, 2), 1]
    assert [type(c) for c in h] == [int, Fraction, int]


# denominators include powers of 2, 3 and 5, so the series are often not
# p-integral at the primes the bounds use
_mixed_coefficient = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 7, 9, 25, 27])),
)


@settings(deadline=None, max_examples=80)
@given(st.lists(_mixed_coefficient, max_size=12))
def test_exp_transform_mixed_series_matches_oracle_and_round_trips(svals):
    s = [0, *svals]
    h = exp_transform(s)
    assert h == poly_exp_oracle(s)
    assert _stored_exactly(h)
    back = log_transform(h)
    assert back == s
    assert _stored_exactly(back)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-50, 50), max_size=14))
def test_log_transform_inverts_exp_transform_on_integer_h(tail):
    # such an h rarely comes from an integer s, so the inverse recurrence
    # leaves the integers part way and must continue exactly
    h = [1, *tail]
    s = log_transform(h)
    assert _stored_exactly(s)
    assert exp_transform(s) == h


def test_dwork_gap_examples():
    ones = [0] + [1] * 6
    g = dwork_gap(ones, 2)
    assert sorted(g) == list(range(1, 7))
    assert g[2] == 0  # 2 s_1/2 - 2 s_2/2
    c2gap = dwork_gap([0, 1, 1, 0, 0, 0, 0, 0, 0], 2)
    assert c2gap[2] == 0
    assert c2gap[4] == Fraction(1, 2)
    zeros = dwork_gap([0] * 6, 3)
    assert all(x == 0 for x in zeros.values())


def test_dwork_gap_definition_clauses():
    rng = random.Random(23)
    s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(30)]
    for p in (2, 5):
        g = dwork_gap(s, p)
        for j in range(1, 31):
            expected = Fraction(-p, j) * s[j]
            if j % p == 0:
                expected += Fraction(p, j) * s[j // p]
            assert g[j] == expected


def test_lambda_sequence_examples():
    s = [0, 1, 1] + [0] * 8
    lam = lambda_sequence(s, 2, 2)
    assert lam[8] == -1  # s_8 - s_2 with e = 2
    assert lam[5] == 0  # first clause: 5 is odd and >= 4, lambda = s_5
    assert sorted(lam) == list(range(5, 11))
    # s supported on powers of p with equal values: second clause vanishes
    powers = {3**e: 1 for e in range(5) if 3**e <= 90}
    s2 = series_from_map(powers, 90)
    lam2 = lambda_sequence(s2, 3, 1)
    for e in range(2, 5):
        assert lam2[3**e] == 0  # s_{3^e} - s_3
    with pytest.raises(ValueError, match="exceeds the truncation"):
        lambda_sequence([0, 1, 1], 2, 3)


def test_gap_integral_matches_dwork_gap():
    # the checker's predicate against the valuation of the oracle's g_j,
    # on rational and on gap-repaired integer series
    rng = random.Random(31)
    seen = set()
    for p in (2, 3, 5):
        rational = [0] + [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(60)]
        for s in (rational, repaired_integer_series(rng, p, 60, 30)):
            g = dwork_gap(s, p)
            for j in range(1, len(s)):
                holds = vp(g[j], p) >= 1
                assert _gap_integral(s, p, j) == holds, (p, j)
                seen.add(holds)
    assert seen == {True, False}


def test_lambda_at_matches_lambda_sequence():
    rng = random.Random(37)
    for p, l in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(200)]
        lam = lambda_sequence(s, p, l)
        assert sorted(lam) == list(range(p**l + 1, 201))
        assert all(_lambda_at(s, p, l, i) == lam[i] for i in lam), (p, l)


def test_check_hypotheses_c2():
    s = [0, 1, 1] + [0] * 18
    rep = check_hypotheses(s, 2, "cor2.4", l=2)
    assert rep.overall and rep.fully_verified
    rep21 = check_hypotheses(s, 2, "thm2.1", l=2, m=0)
    assert rep21.overall
    assert not rep21.fully_verified  # lambda condition runs beyond any truncation
    rep25 = check_hypotheses(s, 2, "cor2.5", l=2, m=0)
    assert rep25.overall


def test_check_hypotheses_zero_series_passes_everything():
    z = [0] * 31
    cases = [
        ("thm2.1", 5, dict(l=2, m=1)),
        ("cor2.4", 5, dict(l=1)),
        ("cor2.5", 5, dict(l=1, m=0)),
        ("thm2.7", 2, dict(l=2)),
        ("thm3.1", 5, dict(l=1)),
        ("thm3.3", 3, {}),
        ("thm3.4", 2, dict(l=2)),
        ("thm3.7", 5, dict(l=2)),
        ("cor3.6", 5, {}),
    ]
    for theorem, p, kwargs in cases:
        rep = check_hypotheses(z, p, theorem, **kwargs)
        assert rep.overall, (theorem, rep.conditions)


def test_check_hypotheses_failure_and_first_index():
    s = [0, 0, 1, 0, 0, 0, 0, 0, 0]
    rep = check_hypotheses(s, 2, "cor2.4", l=2)
    assert not rep.overall
    gap_cond = {c.name: c for c in rep.conditions}["gap integrality below z^(p^l)"]
    assert gap_cond.status == FAIL and gap_cond.first_failure == 2


def test_check_hypotheses_klein_p2_route():
    svals = {1: 1, 2: 3, 4: 1}
    s = series_from_map(svals, 40)
    rep = check_hypotheses(s, 2, "thm2.7", l=2)
    assert rep.overall, [(c.name, c.status, c.first_failure) for c in rep.conditions]


def test_check_hypotheses_unverifiable_flag():
    s = [0, 1, 1, 0]
    rep = check_hypotheses(s, 2, "thm2.1", l=2, m=0)
    cond = {c.name: c for c in rep.conditions}["difference congruence mod p^m"]
    assert cond.status == UNVERIFIABLE
    assert not rep.fully_verified


def test_check_hypotheses_parameter_errors():
    s = [0, 1, 1, 0]
    with pytest.raises(ValueError, match="unknown theorem"):
        check_hypotheses(s, 2, "thm9.9")
    with pytest.raises(ValueError):
        check_hypotheses(s, 2, "thm2.1", l=1, m=1)
    with pytest.raises(ValueError):
        check_hypotheses(s, 3, "thm3.1", l=1)
    with pytest.raises(ValueError):
        check_hypotheses(s, 2, "thm2.7", l=1)


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_check_hypotheses_admits_exactly_the_rule_kinds(theorem):
    # the parameter checks are the rule's: same verdict, same message; and
    # condition names are distinct, so `HypothesisReport.condition` is
    # unambiguous
    assert THEOREMS[theorem].rule in RULES
    s = series_from_map({1: 1, 2: 3, 3: 4, 4: 1}, 30)
    for p in (2, 3, 5):
        for l in (None, 0, 1, 2, 3):
            for m in (None, 0, 1, 2, 3):
                try:
                    BoundKind(THEOREMS[theorem].rule, p, l=l, m=m)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        check_hypotheses(s, p, theorem, l=l, m=m)
                else:
                    names = [c.name for c in check_hypotheses(s, p, theorem, l=l, m=m).conditions]
                    assert len(set(names)) == len(names), names


def test_dividing_line_branch():
    assert dividing_line_branch([0, 1, 1, 1], 3) == "divisibility"
    assert dividing_line_branch([0, 1, 1, 2], 3) == "indivisibility"


def test_dwork_forward_direction():
    # fully p-integral gap implies v_p(h_n) >= v_p(n!)
    rng = random.Random(25)
    for p in (2, 3, 5):
        s = repaired_integer_series(rng, p, 120, 120)
        assert all(vp(g, p) >= 1 for g in dwork_gap(s, p).values())
        h = exp_transform(s)
        for n in range(121):
            assert vp(h[n], p) >= legendre_valuation(n, p)


@settings(deadline=None, max_examples=80)
@given(st.lists(_mixed_coefficient, max_size=12), st.integers(-10, 10**6))
def test_series_text_roundtrip(svals, p):
    s = [0, *svals]
    text = dump_log_series(s, p)
    s2, p2 = load_log_series(text)
    assert p2 == p and s2 == s
    assert _stored_exactly(s2)
    assert dump_log_series(s2, p2) == text  # bit-exact round trip


# near-miss documents: lines of zero to four tokens, mostly small integers,
# half of them under a well-formed header
_token = st.one_of(
    st.integers(-3, 5).map(str), st.sampled_from(["", "x", "1/2", "+1", "1_0", "--1", "\t"])
)
_lines = st.lists(st.lists(_token, max_size=4).map(" ".join), max_size=6)
_document = st.one_of(
    _lines.map("\n".join),
    st.builds(lambda n, lines: "\n".join([f"{n} 3", *lines]), st.integers(-1, 4), _lines),
)


@settings(deadline=None, max_examples=300)
@given(_document)
def test_series_loaders_raise_only_value_error(text):
    try:
        load_log_series(text)
    except ValueError:
        pass


def test_series_text_errors():
    with pytest.raises(ValueError, match="empty"):
        load_log_series("")
    with pytest.raises(ValueError, match="header"):
        load_log_series("x y\n")
    with pytest.raises(ValueError, match="expected"):
        load_log_series("2 3\n2 1 1\n1 1 1\n")
    with pytest.raises(ValueError, match="denominator"):
        load_log_series("1 3\n1 1 0\n")
    with pytest.raises(ValueError, match="header claims"):
        load_log_series("3 3\n1 1 1\n")
    with pytest.raises(ValueError, match="malformed series line '1 1'"):
        load_log_series("1 3\n1 1\n")
    with pytest.raises(ValueError, match="malformed series line '2 x 1'"):
        load_log_series("2 3\n1 1 1\n2 x 1\n")
