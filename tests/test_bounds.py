import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import partitions_of, series_from_map
from dworklab.bounds import (
    RULES,
    BoundKind,
    _split_row,
    bound_value,
    floor_lemma_checks,
    floor_sum_gap,
    half_floor_inequality_holds,
    partition_case,
    q_recurrence_parameters,
    verify_bounds,
    verify_bounds_mod,
    verify_q_recurrence,
)
from dworklab.exactcore import INFINITY, legendre_valuation, residue_mod_p, vp
from dworklab.groups import PartitionType, abelian_subgroup_counts
from dworklab.series import exp_transform


def c2_series(n_max):
    return [0, 1, 1] + [0] * (n_max - 2)


def test_partition_case():
    assert partition_case((2, 1)) == ("I", 3, 1)
    assert partition_case((1, 1)) == ("II", 2, 1)
    assert partition_case((1, 1, 1)) == ("III", 3, 1)
    assert partition_case((5,)) == ("I", 6, 0)
    assert partition_case((2, 2, 1)) == ("III", 4, 2)
    with pytest.raises(ValueError):
        partition_case((1, 2))
    with pytest.raises(ValueError):
        partition_case(())


def test_bound_kind_validation():
    BoundKind("thm2.1", 3, l=2, m=1)
    BoundKind("thm6.2", 2, partition=(2, 1, 1))
    with pytest.raises(ValueError):
        BoundKind("thm2.1", 3, l=1, m=1)
    with pytest.raises(ValueError):
        BoundKind("thm3.1", 3, l=1)
    with pytest.raises(ValueError):
        BoundKind("thm2.7", 3, l=2)
    with pytest.raises(ValueError):
        BoundKind("thm2.7", 2, l=1)
    with pytest.raises(ValueError):
        BoundKind("thm6.2", 2, partition=(2, 1))  # case I
    with pytest.raises(ValueError):
        BoundKind("thm5.3", 2)
    with pytest.raises(ValueError):
        BoundKind("hnc2", 3)
    with pytest.raises(ValueError):
        BoundKind("nope", 2)
    with pytest.raises(ValueError):
        BoundKind("cor2.4", 4, l=1)


def test_bound_value_examples():
    assert bound_value(BoundKind("cor2.4", 2, l=2), 8) == 8 // 2 - 8 // 4 == 2
    assert bound_value(BoundKind("thm6.2", 2, partition=(1, 1)), 16) == 16 // 2 + 16 // 8 - 16 // 16 == 9
    assert bound_value(BoundKind("hnc2", 2), 3) == (3 + 2) // 4 == 1
    assert bound_value(BoundKind("thm5.2", 3), 10) == 3 - 1
    assert bound_value(BoundKind("thm5.3", 3), 27) == 9 + 3 - 2
    assert bound_value(BoundKind("thm5.5", 2, dihedral_m=8), 10) == 5
    assert bound_value(BoundKind("thm5.5", 2, dihedral_m=6), 10) == 5 - 2


PINNED_NS = (0, 1, 2, 8, 9, 27, 64, 100, 243, 1000)

# e(n) at PINNED_NS for at least one admissible kind of every tag, and for
# each branch of the tags whose formula branches
PINNED_BOUNDS = [
    (("thm2.1", 3, {"l": 2, "m": 1}), [0, 0, 0, 2, 3, 9, 21, 33, 81, 333]),
    (("cor2.4", 2, {"l": 3}), [0, 0, 1, 4, 4, 13, 32, 51, 121, 500]),
    (("thm2.7", 2, {"l": 3}), [0, 0, 1, 6, 6, 20, 50, 78, 189, 781]),
    (("thm3.1", 5, {"l": 1}), [0, 0, 0, 1, 1, 4, 7, 12, 30, 125]),
    (("thm3.3", 3, {}), [0, 0, 0, 1, 2, 6, 12, 20, 49, 195]),
    (("thm3.4", 2, {"l": 1}), [0, 0, 1, 2, 2, 7, 16, 25, 61, 250]),
    (("thm3.4", 2, {"l": 2}), [0, 0, 1, 4, 4, 13, 32, 50, 121, 500]),
    (("thm3.4", 2, {"l": 3}), [0, 0, 1, 5, 5, 17, 44, 69, 166, 687]),
    (("cor3.6", 2, {}), [0, 0, 1, 2, 2, 7, 16, 25, 61, 250]),
    (("cor3.6", 3, {}), [0, 0, 0, 1, 2, 6, 12, 20, 49, 195]),
    (("cor3.6", 5, {}), [0, 0, 0, 1, 1, 4, 7, 12, 30, 125]),
    (("thm3.7", 3, {"l": 2}), [0, -1, -1, 1, 3, 10, 22, 36, 89, 361]),
    (("thm5.2", 3, {}), [0, 0, 0, 2, 2, 6, 14, 22, 54, 222]),
    (("thm5.3", 5, {}), [0, 0, 0, 1, 1, 6, 14, 24, 55, 224]),
    (("thm5.5", 2, {"dihedral_m": 12}), [0, 0, 1, 4, 4, 13, 32, 50, 121, 500]),
    (("thm5.5", 2, {"dihedral_m": 6}), [0, 0, 1, 2, 2, 7, 16, 25, 61, 250]),
    (("thm6.1", 3, {"partition": (2, 1)}), [0, 0, 0, 2, 4, 11, 26, 41, 99, 407]),
    (("thm6.1", 3, {"partition": (1, 1)}), [0, 0, 0, 2, 3, 9, 21, 33, 81, 333]),
    (("thm6.1", 3, {"partition": (2, 2, 1)}), [0, 0, 0, 2, 4, 13, 30, 46, 114, 469]),
    (("thm6.2", 2, {"partition": (2, 1, 1)}), [0, 0, 1, 6, 6, 20, 50, 78, 189, 781]),
    (("kty", 3, {"l": 2, "m": 1}), [0, 0, 0, 2, 4, 11, 26, 41, 99, 407]),
    (("hnc2", 2, {}), [0, 0, 1, 2, 2, 7, 16, 25, 61, 250]),
]


@pytest.mark.parametrize("kind_args, values", PINNED_BOUNDS)
def test_bound_value_pinned(kind_args, values):
    tag, p, params = kind_args
    kind = BoundKind(tag, p, **params)
    assert [bound_value(kind, n) for n in PINNED_NS] == values


def test_bound_value_kty_matches_rank_formulas():
    # case I of the general bound specializes to the rank <= 2 display
    for p in (2, 3):
        for parts, (l, m) in [((2, 1), (2, 1)), ((3, 1), (3, 1)), ((2,), (2, 0))]:
            kty = BoundKind("kty", p, l=l, m=m)
            general = BoundKind("thm6.1", p, partition=parts)
            for n in range(0, 200):
                assert bound_value(kty, n) == bound_value(general, n)


def test_bound_value_thm21_cor24_consistency():
    for p in (2, 5):
        for l in (1, 2, 3):
            a = BoundKind("thm2.1", p, l=l, m=0)
            b = BoundKind("cor2.4", p, l=l)
            for n in range(0, 120):
                assert bound_value(a, n) == bound_value(b, n)


def test_bound_value_thm34_branches():
    assert bound_value(BoundKind("thm3.4", 2, l=1), 12) == 6 - 3
    assert bound_value(BoundKind("thm3.4", 2, l=2), 12) == 6
    # l = 3: sum_{s=1}^{4} floor(n/2^s) - 2 floor(n/8)
    assert bound_value(BoundKind("thm3.4", 2, l=3), 24) == (12 + 6 + 3 + 1) - 2 * 3


def test_bound_value_cor36_branches():
    assert bound_value(BoundKind("cor3.6", 2), 12) == 6 - 3
    n = 54
    expected3 = (
        sum(n // 3**s for s in range(1, 5))
        - sum(n // (2 * 3**s) for s in range(1, 4))
        - (n // 9 + 1) // 2
    )
    assert bound_value(BoundKind("cor3.6", 3), n) == expected3
    assert bound_value(BoundKind("cor3.6", 3), n) == bound_value(BoundKind("thm3.3", 3), n)
    expected5 = (n // 5 + n // 25) - (n // 10 + n // 50)
    assert bound_value(BoundKind("cor3.6", 5), n) == expected5
    # the general-bound family is never vacuously negative at n = 0
    for tag, kind in [
        ("thm3.1", BoundKind("thm3.1", 5, l=2)),
        ("thm3.7", BoundKind("thm3.7", 5, l=2)),
        ("thm3.3", BoundKind("thm3.3", 3)),
    ]:
        assert bound_value(kind, 0) == 0, tag


def test_cor24_never_exceeds_full_integrality():
    # the truncated bound never claims more than v_p(n!)
    for p in (2, 3, 5):
        for l in (1, 2, 3, 4):
            kind = BoundKind("cor2.4", p, l=l)
            for n in range(0, 300):
                assert bound_value(kind, n) <= legendre_valuation(n, p)


def test_verify_bounds_c2():
    s = c2_series(200)
    h = exp_transform(s)
    report = verify_bounds(h, BoundKind("cor2.4", 2, l=2))
    assert report.ok and report.min_slack == 0
    tight = set(report.tight_set)
    assert all(n in tight for n in range(0, 201, 4))


def test_verify_bounds_zero_series():
    h = [1, 0, 0, 0, 0]
    report = verify_bounds(h, BoundKind("hnc2", 2))
    assert report.ok
    for row in report.rows[1:]:
        assert row.valuation is INFINITY and row.slack == INFINITY and not row.tight
    assert report.rows[0].tight  # h_0 = 1, bound 0


def test_verify_bounds_ochiai_equality():
    s = c2_series(100)
    h = exp_transform(s)
    for n in range(3, 101, 4):
        assert vp(h[n], 2) == (n + 5) // 4


def test_verify_bounds_range_errors():
    h = [1, 1]
    with pytest.raises(ValueError, match="exceeds truncation"):
        verify_bounds(h, BoundKind("hnc2", 2), n_hi=5)


def test_q_residues_c2():
    s = c2_series(40)
    h = exp_transform(s)
    kind = BoundKind("cor2.4", 2, l=2)
    q = verify_bounds(h, kind).q_residues
    assert q[0] == 1
    # h_4 = 10, e = 1, Q_4 = 5 which is odd
    assert int(h[4]) == 10 and bound_value(kind, 4) == 1 and q[4] == 1
    # h_8 = 764, e = 2, Q_8 = 191
    assert int(h[8]) == 764 and bound_value(kind, 8) == 2 and q[8] == 1


def test_q_recurrence_violation_aborts():
    s = c2_series(20)
    report = verify_bounds(exp_transform(s), BoundKind("cor2.4", 2, l=3))
    with pytest.raises(
        ValueError,
        match=r"^bound violated at n=4: v_2\(h_n\) = 1 < 3; Q_4 undefined$",
    ):
        verify_q_recurrence(report, s)


def _split_row_reference(x, p, e):
    """v_p(x), and Q = x / p^e reduced mod p through the exact rational."""
    val = vp(x, p)
    if val < e:
        return val, None
    q = x / Fraction(p**e) if e >= 0 else x * Fraction(p ** (-e))
    return val, residue_mod_p(q, p)


@st.composite
def _split_row_cases(draw):
    """(x, p, e) with x = unit p^k / den, as an int or a Fraction.

    e is drawn near k as often as freely, so that violated rows (v < e),
    tight rows and rows with slack >= 64 all occur.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(0, 400))
    unit = draw(st.integers(-(10**200), 10**200))
    den = draw(st.sampled_from([1, 1, 1, 2, 3, 5, 7, 11, 35, p, p**3]))
    e = draw(st.one_of(st.integers(-3, 400), st.integers(k - 80, k + 5)))
    x = Fraction(unit * p**k, den)
    if den == 1 and draw(st.booleans()):
        x = x.numerator
    return x, p, e


@settings(deadline=None, max_examples=500)
@given(_split_row_cases())
@example((0, 3, 5))
@example((Fraction(0), 2, -1))
@example((-(3**70) * 2, 3, 4))  # negative, slack >= 64
@example((7 * 5**200, 5, 100))  # slack 100 >= 64
@example((-5 * 3**300, 3, 236))  # slack exactly 64
@example((-5 * 3**300, 3, 300))  # tight, Q = -5
@example((-(2**90) * 3, 2, 10))
@example((Fraction(9, 4), 3, 1))
@example((Fraction(4, 9), 3, -2))
@example((Fraction(4, 9), 3, -3))
@example((3**5 * 10**40, 3, 7))  # violated row
def test_split_row_matches_rational_definition(case):
    x, p, e = case
    assert _split_row(x, p, e) == _split_row_reference(x, p, e)
    if isinstance(x, int) and e >= 0:
        # read as a residue modulo p^(e+64) or finer, a row that is 0 there
        # is left to the exact value and every other row reads the same
        expected = None if x % p ** (e + 64) == 0 else _split_row_reference(x, p, e)
        assert _split_row(x, p, e, exact=False) == expected


@pytest.mark.parametrize(
    "svals, n_max, kind",
    [
        ({1: 1, 2: 1}, 200, BoundKind("cor2.4", 2, l=2)),
        ({1: 1, 2: 3, 4: 1}, 128, BoundKind("thm6.2", 2, partition=(1, 1))),
        ({1: 1, 3: 4, 9: 1}, 243, BoundKind("thm6.1", 3, partition=(1, 1))),
        ({1: 1, 5: 6, 25: 1}, 250, BoundKind("thm6.1", 5, partition=(1, 1))),
    ],
)
def test_q_residues_match_rational_quotients(svals, n_max, kind):
    h = exp_transform(series_from_map(svals, n_max))
    report = verify_bounds(h, kind)
    assert report.ok
    assert report.q_residues == tuple(
        _split_row_reference(h[n], kind.p, bound_value(kind, n))[1]
        for n in range(n_max + 1)
    )


def test_verify_bounds_keeps_no_residue_on_violated_rows():
    h = exp_transform(c2_series(20))
    report = verify_bounds(h, BoundKind("cor2.4", 2, l=3))
    assert report.violations
    for n in range(21):
        assert (report.q_residues[n] is None) == (n in report.violations)


@st.composite
def _group_bound_cases(draw):
    """(s_0..s_N, kind, N) of an Abelian p-group of weight <= 4.

    The kind is the group's own (thm6.2 for p = 2 case II, else thm6.1),
    or the weaker thm5.2, whose slack reaches 64 at p = 2 from weight 2 on,
    so that the exact fallback of `verify_bounds_mod` runs too.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    parts = draw(st.sampled_from([t for w in range(1, 5) for t in partitions_of(w)]))
    n_max = draw(st.integers(1, 200))
    own = "thm6.2" if partition_case(parts)[0] == "II" and p == 2 else "thm6.1"
    if draw(st.booleans()):
        kind = BoundKind(own, p, partition=parts)
    else:
        kind = BoundKind("thm5.2", p)
    s = abelian_subgroup_counts(PartitionType(parts, p)).values(n_max)
    return s, kind, n_max


@settings(deadline=None, max_examples=150)
@given(_group_bound_cases())
@example(([0, 1, 3, 0, 1] + [0] * 196, BoundKind("thm5.2", 2), 200))  # falls back
def test_verify_bounds_mod_matches_exact(case):
    s, kind, n_max = case
    # rows, violations, tight set, min slack and Q_n mod p all agree
    assert verify_bounds_mod(s, kind, n_max) == verify_bounds(exp_transform(s), kind)


def test_q_recurrence_c2():
    s = c2_series(200)
    h = exp_transform(s)
    rep = verify_q_recurrence(verify_bounds(h, BoundKind("cor2.4", 2, l=2)), s)
    assert rep.ok and rep.step == 4 and rep.multiplier == 1


def test_q_recurrence_klein_step_is_16_not_8():
    # the p = 2 exceptional recurrence steps by 2^{A_1+3} = 16 for type
    # (1,1); an 8-step version genuinely fails
    svals = {1: 1, 2: 3, 4: 1}
    s = series_from_map(svals, 96)
    h = exp_transform(s)
    kind = BoundKind("thm6.2", 2, partition=(1, 1))
    report = verify_bounds(h, kind)
    q = report.q_residues
    step, rho = q_recurrence_parameters(kind, s)
    assert step == 16 and rho == 1
    rep = verify_q_recurrence(report, s)
    assert rep.ok
    assert any(q[n] != q[n - 8] for n in range(8, 97))


def test_q_recurrence_multiplier_not_integral():
    s = c2_series(20)
    kind = BoundKind("thm2.1", 2, l=2, m=1)
    with pytest.raises(ValueError, match="not p-integral"):
        q_recurrence_parameters(kind, s)


def test_q_recurrence_rejects_p2_case_ii_first_family():
    s = series_from_map({1: 1, 2: 3, 4: 1}, 40)
    with pytest.raises(ValueError, match="thm6.2"):
        q_recurrence_parameters(BoundKind("thm6.1", 2, partition=(1, 1)), s)


def test_q_recurrence_undefined_for_other_kinds():
    s = c2_series(10)
    with pytest.raises(ValueError, match="no quotient recurrence"):
        q_recurrence_parameters(BoundKind("hnc2", 2), s)


def test_pgroup_and_kulakoff_bounds_on_instances():
    # nontrivial p-group bound and the odd non-cyclic strengthening
    from dworklab.groups import PartitionType, abelian_subgroup_counts

    for parts, p in [((1,), 3), ((2, 1), 2), ((1, 1), 5)]:
        t = PartitionType(parts, p)
        s = abelian_subgroup_counts(t).values(150)
        h = exp_transform(s)
        assert verify_bounds(h, BoundKind("thm5.2", p)).ok
    for parts, p in [((2, 1), 3), ((1, 1, 1), 3), ((2, 1), 5)]:
        t = PartitionType(parts, p)
        s = abelian_subgroup_counts(t).values(150)
        h = exp_transform(s)
        assert verify_bounds(h, BoundKind("thm5.3", p)).ok


def test_p3_l1_bound_correction_is_needed_and_valid():
    # regression for the (3,1) exponent: the floor(n/18) correction is too
    # weak.  S = z + z^3/3 (s_1 = s_3 = 1) satisfies the gap hypothesis
    # through z^3, yet h_9 = 5769 has v_3 = 2, while
    # sum(floor-diffs) - floor(9/18) would claim 3.  The implemented term
    # ceil(floor(n/9)/2) gives 2, and the witness is exactly tight there.
    s = [0, 1, 0, 1] + [0] * 37
    from dworklab.series import check_hypotheses

    assert check_hypotheses(s, 3, "thm3.3").overall
    h = exp_transform(s)
    assert int(h[9]) == 5769 and vp(h[9], 3) == 2
    printed_form = sum(9 // 3**t for t in (1, 2)) - 9 // 6 - 9 // 18
    assert printed_form == 3  # would be violated
    kind = BoundKind("thm3.3", 3)
    assert bound_value(kind, 9) == 2
    report = verify_bounds(h, kind)
    assert report.ok and 9 in report.tight_set


def test_kulakoff_bound_fails_for_rank_two_elementary():
    # regression: the strengthened odd-noncyclic bound does not hold for
    # C_p x C_p; the rank-n case II bound is tight at n = p^2 with
    # v_p(h_{p^2}) = p, below the claimed p + 1.  Orders >= p^3 are fine
    # (previous test).
    from dworklab.groups import PartitionType, abelian_subgroup_counts

    for p in (3, 5):
        t = PartitionType((1, 1), p)
        s = abelian_subgroup_counts(t).values(p * p)
        h = exp_transform(s)
        kind = BoundKind("thm5.3", p)
        assert vp(h[p * p], p) == p == bound_value(kind, p * p) - 1


def test_dividing_line_on_group_instances():
    # s_p = 1 (mod p) for abelian p-groups: the divisibility branch holds
    from dworklab.groups import PartitionType, abelian_subgroup_counts

    for parts, p in [((2,), 3), ((1, 1), 2)]:
        t = PartitionType(parts, p)
        s = abelian_subgroup_counts(t).values(200)
        h = exp_transform(s)
        assert verify_bounds(h, BoundKind("cor3.6", p)).ok
    # dihedral groups have s_p = 0 (mod p) for odd p: indivisibility branch
    from dworklab.groups import dihedral_subgroup_counts

    s = dihedral_subgroup_counts(6).values(100)
    h = exp_transform(s)
    hits = [n for n in range(101) if h[n].numerator % 3]
    assert hits, "expected infinitely many 3-indivisible values"


def test_floor_sum_gap_example():
    # i=4, j=3, p=2, l=1: (floor(12/4)-floor(3/2)) + (floor(12/8)-floor(3/4)) = 2+1... computed exactly:
    assert floor_sum_gap(4, 3, 2, 1) == (3 - 1) + (1 - 0)
    assert floor_sum_gap(4, 0, 2, 1) == 0


def test_half_floor_examples():
    assert half_floor_inequality_holds(0, Fraction(7, 3))
    assert half_floor_inequality_holds(2, Fraction(0))  # 2 <= 3 - 1/2
    # known failure outside the non-negative domain the proofs use
    assert not half_floor_inequality_holds(-1, Fraction(0))
    assert not half_floor_inequality_holds(-2, Fraction(0))


def test_floor_lemma_checks_pass_on_nonnegative_grid():
    for p, l in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        rep = floor_lemma_checks(p, l, i_max=60, j_max=20)
        assert rep.ok, rep.summary()
        assert rep.ij_checked and rep.half_checked


def test_floor_lemma_checks_report_negative_j_counterexamples():
    rep = floor_lemma_checks(2, 1, i_max=4, j_max=4, j_min=-4)
    assert not rep.ok
    assert (-1, Fraction(0)) in rep.half_counterexamples


def test_report_serialization_shape():
    s = c2_series(12)
    h = exp_transform(s)
    report = verify_bounds(h, BoundKind("cor2.4", 2, l=2))
    row = report.rows[0].as_dict()
    assert set(row) == {"n", "valuation", "bound", "slack", "tight"}
    zrow = verify_bounds([1, 0], BoundKind("hnc2", 2)).rows[1].as_dict()
    assert zrow["valuation"] == "infinity" and zrow["slack"] == "infinity"
    summary = report.summary()
    assert summary["violations"] == [] and summary["min_slack"] == 0


# ---------------------------------------------------------------------------
# e(n) over n <= 1000 for every admissible kind of a parameter grid
# ---------------------------------------------------------------------------

GRID_PRIMES = (2, 3, 5, 7)
GRID_PARAMS = range(5)
GRID_PARTITIONS = [parts for w in range(1, 7) for parts in partitions_of(w)]
GRID_N = range(1001)


def _grid_kinds(tag: str) -> list[BoundKind]:
    """Every kind of the tag on the grid that its rule admits."""
    needs = RULES[tag].needs
    choices = {
        "l": GRID_PARAMS,
        "m": GRID_PARAMS,
        "partition": GRID_PARTITIONS,
        "dihedral_m": range(1, 9),
    }
    kinds = []
    for p in GRID_PRIMES:
        for values in product(*(choices[name] for name in needs)):
            try:
                kinds.append(BoundKind(tag, p, **dict(zip(needs, values))))
            except ValueError:
                continue
    return kinds


# tag -> sha256 of one line per grid kind: its description, then e(0..1000)
GRID_DIGESTS = {
    "cor2.4": "231f925deaadd52efc9395fdc2c1a30169a6f0b33d7c8a0fc7ef3f4e45353f98",
    "cor3.6": "88e6af08402e9076e6def7cbedcb9da06c41e48a2890a2733f54e8b2808f0dcd",
    "hnc2": "0ac750caa3426bac5cbe0ef6d0c1c89a88cf8dd518ddd12a0e6a16bf08484291",
    "kty": "4c3ed5787b967f47531722b1817368eb6824fa3f998341acc0065a41bde30551",
    "thm2.1": "a881501d89c60c062a6042092c974cdd7004eba6cf833222e1c140cd71682cf3",
    "thm2.7": "91faa685e50a2b864b08c126f710e69bfe0dbd0b9dd7039143313353f668bcb6",
    "thm3.1": "d9f52b87862741cab6076cfe58728d529cf47b28edd0afdc4381b56ffe25a7ab",
    "thm3.3": "f886078ed27ab0451533e2f5b9c7ced3667751305ee1b0b421827949a4df3a24",
    "thm3.4": "a16188b9d982991aff4ff10a4f0e99d43ad610fe114c5e9a4c6acc04a45248b8",
    "thm3.7": "54930a22c9d53b81929d3a95f970101f11cb34b9060c2a26f6e7d94401a88958",
    "thm5.2": "e17bc5cb00e9d75fb619c804bb2d7d3059cfdf06015bc3b73dd6d168b0f91f76",
    "thm5.3": "1731e3c3879823d89786b15ec8dea04f68af173f917f4cc22cf6cc8bfc6f82b5",
    "thm5.5": "fb4e412bd63009e1c9df50dbca47496760b167e4a5d84d4aeb2f56e0f7a42435",
    "thm6.1": "e4756198bd44990b115d2672d97a0810157e16fe1b592d53e4874970486e3991",
    "thm6.2": "07e69b540c6dd10b35105ac1be522e42f50b04424665c27a896ab2a48719a23f",
}


@pytest.mark.parametrize("tag", sorted(RULES))
def test_bound_value_grid_pinned(tag):
    lines = [
        json.dumps(kind.describe(), sort_keys=True)
        + " "
        + ",".join(str(bound_value(kind, n)) for n in GRID_N)
        for kind in _grid_kinds(tag)
    ]
    assert lines
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GRID_DIGESTS[tag]
