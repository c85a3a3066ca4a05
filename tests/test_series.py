import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import involution_oracle, poly_exp_oracle, repaired_integer_series
from dworklab.bounds import RULES, BoundKind
from dworklab.exactcore import legendre_valuation, vp
from dworklab.series import (
    FAIL,
    THEOREMS,
    UNVERIFIABLE,
    ExpSeries,
    LogSeries,
    check_hypotheses,
    dividing_line_branch,
    dump_log_series,
    dwork_gap,
    exp_transform,
    lambda_sequence,
    load_log_series,
    log_transform,
)

C2 = LogSeries((1, 1, 0, 0, 0))


def test_strict_truncation_indexing():
    s = LogSeries((1, 2, 3))
    assert s[3] == 3
    with pytest.raises(IndexError):
        s[4]
    with pytest.raises(IndexError):
        s[0]
    h = ExpSeries((1, 5))
    assert h[0] == 1
    with pytest.raises(IndexError):
        h[2]


def test_exp_transform_examples():
    assert [int(x) for x in exp_transform(C2).coeffs] == involution_oracle(5)
    zeros = exp_transform(LogSeries((0,) * 6))
    assert [int(x) for x in zeros.coeffs] == [1, 0, 0, 0, 0, 0, 0]
    ones = exp_transform(LogSeries((1,) * 8))
    fact = 1
    for n, h in enumerate(ones.coeffs):
        assert h == fact
        fact *= n + 1


def test_exp_transform_rational_matches_polynomial_expansion():
    rng = random.Random(21)
    for _ in range(4):
        svals = [0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(25)]
        h = exp_transform(LogSeries(tuple(svals[1:])))
        assert list(h.coeffs) == poly_exp_oracle(svals)


def test_log_transform_examples():
    fact, facts = 1, []
    for n in range(9):
        facts.append(fact)
        fact *= n + 1
    assert log_transform(ExpSeries(tuple(facts))).coeffs == (Fraction(1),) * 8
    assert log_transform(ExpSeries((1, 1, 2, 4, 10, 26))).coeffs == C2.coeffs
    assert log_transform(ExpSeries((1, 0, 0, 0))).coeffs == (Fraction(0),) * 3
    with pytest.raises(ValueError, match="exponential of a series"):
        log_transform(ExpSeries((2, 1)))


def test_round_trip_random_rationals():
    rng = random.Random(22)
    for trial in range(6):
        n_max = rng.randint(5, 60)
        svals = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n_max)
        )
        s = LogSeries(svals)
        h = exp_transform(s)
        assert log_transform(h).coeffs == svals
        assert exp_transform(log_transform(h)).coeffs == h.coeffs


def test_log_transform_integer_round_trip():
    rng = random.Random(12)
    svals = tuple(rng.randint(-20, 20) for _ in range(60))
    s = log_transform(exp_transform(LogSeries(svals)))
    assert s.coeffs == svals
    assert s.is_integral()


def test_log_transform_leaves_the_integers_exactly():
    # h = (1, 0, 0, 0, 1) comes from no integer s: s_4 = h_4 / 3!
    s = log_transform(ExpSeries((1, 0, 0, 0, 1)))
    assert s.coeffs == (0, 0, 0, Fraction(1, 6))
    assert [type(c) for c in s.coeffs] == [int, int, int, Fraction]
    assert not s.is_integral()


def _stored_exactly(series) -> bool:
    """Integral coefficients are ints, the others Fractions."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in series.coeffs
    )


def test_coefficients_are_normalised_on_construction():
    s = LogSeries((Fraction(4, 2), Fraction(1, 3), 5, Fraction(-6, 3), True))
    assert [type(c) for c in s.coeffs] == [int, Fraction, int, int, int]
    assert s.coeffs == (2, Fraction(1, 3), 5, -2, 1)
    h = ExpSeries((Fraction(1), Fraction(3, 6)))
    assert [type(c) for c in h.coeffs] == [int, Fraction]


# denominators include powers of 2, 3 and 5, so the series are often not
# p-integral at the primes the bounds use
_mixed_coefficient = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 7, 9, 25, 27])),
)


@settings(deadline=None, max_examples=80)
@given(st.lists(_mixed_coefficient, max_size=12))
def test_exp_transform_mixed_series_matches_oracle_and_round_trips(svals):
    s = LogSeries(tuple(svals))
    h = exp_transform(s)
    assert list(h.coeffs) == poly_exp_oracle([0, *svals])
    assert _stored_exactly(s) and _stored_exactly(h)
    back = log_transform(h)
    assert back.coeffs == s.coeffs
    assert _stored_exactly(back)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-50, 50), max_size=14))
def test_log_transform_inverts_exp_transform_on_integer_h(tail):
    # such an h rarely comes from an integer s, so the inverse recurrence
    # leaves the integers part way and must continue exactly
    h = ExpSeries((1, *tail))
    s = log_transform(h)
    assert _stored_exactly(s)
    assert exp_transform(s).coeffs == h.coeffs


def test_dwork_gap_examples():
    ones = LogSeries((1,) * 6)
    g = dwork_gap(ones, 2)
    assert sorted(g) == list(range(1, 7))
    assert g[2] == 0  # 2 s_1/2 - 2 s_2/2
    c2gap = dwork_gap(LogSeries((1, 1, 0, 0, 0, 0, 0, 0)), 2)
    assert c2gap[2] == 0
    assert c2gap[4] == Fraction(1, 2)
    zeros = dwork_gap(LogSeries((0,) * 5), 3)
    assert all(x == 0 for x in zeros.values())


def test_dwork_gap_definition_clauses():
    rng = random.Random(23)
    svals = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(30))
    s = LogSeries(svals)
    for p in (2, 5):
        g = dwork_gap(s, p)
        for j in range(1, 31):
            expected = Fraction(-p, j) * s[j]
            if j % p == 0:
                expected += Fraction(p, j) * s[j // p]
            assert g[j] == expected


def test_lambda_sequence_examples():
    s = LogSeries((1, 1) + (0,) * 8)
    lam = lambda_sequence(s, 2, 2)
    assert lam[8] == -1  # s_8 - s_2 with e = 2
    assert lam[5] == 0  # first clause: 5 is odd and >= 4, lambda = s_5
    assert sorted(lam) == list(range(5, 11))
    # s supported on powers of p with equal values: second clause vanishes
    powers = {3**e: 1 for e in range(5) if 3**e <= 90}
    s2 = LogSeries.from_map(powers, 90)
    lam2 = lambda_sequence(s2, 3, 1)
    for e in range(2, 5):
        assert lam2[3**e] == 0  # s_{3^e} - s_3
    with pytest.raises(ValueError, match="exceeds the truncation"):
        lambda_sequence(LogSeries((1, 1)), 2, 3)


def test_check_hypotheses_c2():
    s = LogSeries((1, 1) + (0,) * 18)
    rep = check_hypotheses(s, 2, "cor2.4", l=2)
    assert rep.overall and rep.fully_verified
    rep21 = check_hypotheses(s, 2, "thm2.1", l=2, m=0)
    assert rep21.overall
    assert not rep21.fully_verified  # lambda condition runs beyond any truncation
    rep25 = check_hypotheses(s, 2, "cor2.5", l=2, m=0)
    assert rep25.overall


def test_check_hypotheses_zero_series_passes_everything():
    z = LogSeries((0,) * 30)
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
    s = LogSeries((0, 1, 0, 0, 0, 0, 0, 0))
    rep = check_hypotheses(s, 2, "cor2.4", l=2)
    assert not rep.overall
    gap_cond = rep.condition("gap integrality below z^(p^l)")
    assert gap_cond.status == FAIL and gap_cond.first_failure == 2


def test_check_hypotheses_klein_p2_route():
    svals = {1: 1, 2: 3, 4: 1}
    s = LogSeries.from_map(svals, 40)
    rep = check_hypotheses(s, 2, "thm2.7", l=2)
    assert rep.overall, [(c.name, c.status, c.first_failure) for c in rep.conditions]


def test_check_hypotheses_unverifiable_flag():
    s = LogSeries((1, 1, 0))
    rep = check_hypotheses(s, 2, "thm2.1", l=2, m=0)
    cond = rep.condition("difference congruence mod p^m")
    assert cond.status == UNVERIFIABLE
    assert not rep.fully_verified


def test_check_hypotheses_parameter_errors():
    s = LogSeries((1, 1, 0))
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
    s = LogSeries.from_map({1: 1, 2: 3, 3: 4, 4: 1}, 30)
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
    assert dividing_line_branch(LogSeries((1, 1, 1)), 3) == "divisibility"
    assert dividing_line_branch(LogSeries((1, 1, 2)), 3) == "indivisibility"


def test_dwork_forward_direction():
    # fully p-integral gap implies v_p(h_n) >= v_p(n!)
    rng = random.Random(25)
    for p in (2, 3, 5):
        svals = repaired_integer_series(rng, p, 120, 120)
        s = LogSeries(tuple(svals[1:]))
        assert all(vp(g, p) >= 1 for g in dwork_gap(s, p).values())
        h = exp_transform(s)
        for n in range(121):
            assert vp(h[n], p) >= legendre_valuation(n, p)


@settings(deadline=None, max_examples=80)
@given(st.lists(_mixed_coefficient, max_size=12), st.integers(-10, 10**6))
def test_series_text_roundtrip(svals, p):
    s = LogSeries(tuple(svals))
    text = dump_log_series(s, p)
    s2, p2 = load_log_series(text)
    assert p2 == p and s2.coeffs == s.coeffs
    assert [type(c) for c in s2.coeffs] == [type(c) for c in s.coeffs]
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
