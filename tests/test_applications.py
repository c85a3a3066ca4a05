import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    hom_count_ints,
    normal_count_index_p,
    permutation_count_bruteforce,
    series_from_map,
)
from dworklab import kernels
from dworklab.applications import (
    PI_VARIANTS,
    CycleRule,
    periodicity_detect,
    permutation_count_series,
    supercongruence_check,
    supercongruence_sweep,
    verify_permutation_divisibility,
)
from dworklab.bounds import verify_bounds, verify_bounds_mod
from dworklab.groups import parse_group_spec, subgroup_residues_mod_p


def test_permutation_count_examples():
    assert permutation_count_series(4, {1, 2})[4] == 10
    assert permutation_count_series(4, {2})[4] == 3
    assert permutation_count_series(5, {2})[5] == 0
    assert permutation_count_series(3, {1, 2, 3})[3] == 6
    assert permutation_count_series(0, set())[0] == 1


def test_permutation_bruteforce_examples():
    assert permutation_count_bruteforce(6, {1, 2}) == 76
    assert permutation_count_bruteforce(0, {5}) == 1
    assert permutation_count_bruteforce(4, {3}) == 0
    with pytest.raises(ValueError, match="capped"):
        permutation_count_bruteforce(10, {1})


def test_permutation_oracle_equivalence_small():
    for n in range(7):
        for size in range(4):
            for lengths in itertools.combinations(range(1, 7), size):
                assert permutation_count_series(n, lengths)[n] == permutation_count_bruteforce(n, lengths)


def test_permutation_count_matches_cyclic_group_homs():
    # lengths {p^s : s <= l} count the representations of C_{p^l}
    for p, l in [(2, 2), (3, 1), (2, 3)]:
        lengths = [p**s for s in range(l + 1)]
        counts = permutation_count_series(60, lengths)
        h = hom_count_ints(parse_group_spec(f"A[{p};{l}]"), 60)
        assert counts == h


def test_cycle_rule_lengths():
    rule = CycleRule("pi1", 2, 2, frozenset({1}))
    assert rule.allowed_lengths() == (1, 2)
    rule = CycleRule("pi2", 3, 2, frozenset({1}))
    assert rule.allowed_lengths() == (1, 3, 9)
    rule = CycleRule("pi3", 3, 1, frozenset({1, 2}))
    assert rule.allowed_lengths() == (1, 2, 3)  # < 2p^l = 6, so 1,3 and 2 qualify... and 2*3=6 does not
    rule = CycleRule("pi1", 2, 2, frozenset())
    assert rule.allowed_lengths() == ()


def test_cycle_rule_bound_kinds():
    assert CycleRule("pi1", 2, 2, frozenset({1})).bound_kind().tag == "cor2.4"
    assert CycleRule("pi2", 3, 1, frozenset({1})).bound_kind().tag == "thm3.3"
    assert CycleRule("pi2", 3, 2, frozenset({1})).bound_kind().tag == "thm3.1"
    assert CycleRule("pi2", 2, 2, frozenset({1})).bound_kind().tag == "thm3.4"
    assert CycleRule("pi3", 5, 1, frozenset({1})).bound_kind().tag == "thm3.7"
    with pytest.raises(ValueError):
        CycleRule("pi3", 3, 1, frozenset({1})).bound_kind()  # (3,1) excluded
    with pytest.raises(ValueError):
        CycleRule("pi3", 2, 1, frozenset({1})).bound_kind()  # p = 2 excluded


def test_verify_permutation_divisibility():
    rep = verify_permutation_divisibility(CycleRule("pi1", 2, 2, frozenset({1})), 150)
    assert rep.ok
    rep = verify_permutation_divisibility(CycleRule("pi2", 3, 2, frozenset({1})), 150)
    assert rep.ok
    rep = verify_permutation_divisibility(CycleRule("pi1", 2, 2, frozenset()), 50)
    assert rep.ok  # empty rule: counts vanish for n >= 1, vacuous pass


@st.composite
def _cycle_rules(draw):
    """A CycleRule with an admissible bound kind, and N <= 300."""
    variant = draw(st.sampled_from(PI_VARIANTS))
    p = draw(st.sampled_from([3, 5, 7] if variant == "pi3" else [2, 3, 5, 7]))
    l = draw(st.integers(2 if (variant, p) == ("pi3", 3) else 1, 3))
    base = draw(
        st.one_of(
            # the empty set, and lengths that are all even
            st.sampled_from([frozenset(), frozenset({2}), frozenset({2, 6})]),
            st.frozensets(st.integers(1, 12), max_size=4),
        )
    )
    return CycleRule(variant, p, l, base), draw(st.integers(1, 300))


@settings(deadline=None, max_examples=120)
@given(_cycle_rules())
@example((CycleRule("pi1", 2, 2, frozenset({2})), 60))  # zero counts at odd n
@example((CycleRule("pi3", 3, 2, frozenset({1, 2})), 300))  # e(n) down to -1
def test_permutation_violations_match_exact_counts(case):
    rule, n_max = case
    exact = permutation_count_series(n_max, rule.allowed_lengths())
    expected = verify_bounds(exact, rule.bound_kind()).violations
    assert verify_permutation_divisibility(rule, n_max).violations == expected


def test_permutation_and_negative_bound_rows_need_no_exact_h(monkeypatch):
    # neither call may run the recurrence without a modulus: thm3.7 at
    # p = 3, l = 2 has e(n) < 0 at small n, and the counts of its pi3 rule
    # on A = {1, 2} (lengths 1, 2, 3, 6, 9) have no zero residue
    real = kernels.hall_exp

    def modular_only(s, *, modulus=None):
        assert modulus is not None, "exact h computed"
        return real(s, modulus=modulus)

    monkeypatch.setattr(kernels, "hall_exp", modular_only)
    rule = CycleRule("pi3", 3, 2, frozenset({1, 2}))
    s = series_from_map(dict.fromkeys(rule.allowed_lengths(), 1), 300)
    report = verify_bounds_mod(s, rule.bound_kind())
    assert report.ok and min(row["bound"] for row in report.rows) == -1
    assert verify_permutation_divisibility(rule, 300).ok
    rule = CycleRule("pi1", 2, 2, frozenset({2}))
    assert verify_permutation_divisibility(rule, 60).violations == list(range(2, 61, 2))


def test_supercongruence_examples():
    inst = supercongruence_check(2, 1, 0, 0, permutation_count_series(4, (1, 2)))
    assert (inst.lhs, inst.rhs, inst.modulus, inst.passed) == (10, -2, 4, True)
    h = permutation_count_series(9, (1, 3))
    inst = supercongruence_check(3, 1, 0, 0, h)
    assert (inst.lhs, inst.rhs, inst.modulus, inst.passed) == (5769, -9, 27, True)
    with pytest.raises(ValueError):
        supercongruence_check(3, 0, 0, 0, h)
    with pytest.raises(ValueError):
        supercongruence_check(3, 1, 3, 0, h)


def test_supercongruence_sweep_small():
    instances = supercongruence_sweep(3, 2)
    assert len(instances) == 18
    assert all(inst.passed for inst in instances)


def test_supercongruence_sweep_checks_p_before_any_h(monkeypatch):
    # the sweep's h reaches n = p^2 a_max + p^2 - 1, so a composite p must
    # be refused before it is computed
    import dworklab.applications as applications

    def spy(*args):
        raise AssertionError("h computed for a composite p")

    monkeypatch.setattr(applications, "permutation_count_series", spy)
    with pytest.raises(ValueError, match="p must be prime"):
        supercongruence_sweep(4, 1)


def test_periodicity_examples():
    res = periodicity_detect([1] * 40, 3)
    assert (res.preperiod, res.period, res.status) == (0, 1, "detected")
    res = periodicity_detect([0, 1] + [2, 3] * 20, 3)
    assert (res.preperiod, res.period) == (2, 2)
    res = periodicity_detect(list(range(40)), 3)
    assert res.status == "unresolved" and not res.detected
    with pytest.raises(ValueError):
        periodicity_detect([1] * 8, 3)


def test_periodicity_confirm_window_counts():
    # 16 residues of period 4, no preperiod: (16 - 0)/4 - 1 = 3 confirmations
    res = periodicity_detect([1, 2, 3, 4] * 4, 3)
    assert res.detected and res.period == 4 and res.confirmed_window == 3
    res = periodicity_detect([1, 2, 3, 4] * 4, 4)
    assert not res.detected


def test_periodicity_reconfirmed_on_doubled_window():
    for text, p in [("C[2]*C[16]", 2), ("C[3]*A[3;1,1]", 3)]:
        spec = parse_group_spec(text)
        res400 = periodicity_detect(subgroup_residues_mod_p(spec, 400, p)[1:], 3)
        assert res400.detected
        res800 = periodicity_detect(subgroup_residues_mod_p(spec, 800, p)[1:], 6)
        assert res800.detected
        assert (res800.preperiod, res800.period) == (res400.preperiod, res400.period)


def test_normal_count_examples():
    assert normal_count_index_p(2, 3) == 4
    assert normal_count_index_p(0, 5) == 0
    assert normal_count_index_p(1, 7) == 1
    for p in (2, 3, 5):
        for k in range(1, 6):
            assert normal_count_index_p(k, p) % p == 1
