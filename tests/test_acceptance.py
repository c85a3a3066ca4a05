"""Acceptance suite: every criterion is exercised at its stated range with
exact arithmetic (tolerance zero) and prints one PASS/FAIL line.

Two sub-checks are expected to fail and are kept failing on purpose, with
the counterexamples in the assertion message: the claimed tightness class
2^{A_1+2} for the type (2,1,1) two-group, and the half-floor inequality
on negative j.  Both record genuine defects in the claims under test; see
the assertion messages for the specific witnesses.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    hom_count_ints,
    involution_oracle,
    partitions_of,
    permutation_count_bruteforce,
    repaired_integer_series,
    series_from_map,
)
from dworklab import kernels
from dworklab.applications import (
    CycleRule,
    periodicity_detect,
    permutation_count_series,
    supercongruence_sweep,
)
from dworklab.bounds import (
    _GUARD,
    BoundKind,
    bound_value,
    floor_lemma_checks,
    verify_bounds,
    verify_q_recurrence,
)
from dworklab.exactcore import vp
from dworklab.groups import (
    PartitionType,
    abelian_subgroup_counts,
    abelian_subgroup_counts_bruteforce,
    dihedral_subgroup_counts,
    parse_group_spec,
    partition_case,
    subgroup_residues_mod_p,
)
from dworklab.series import check_hypotheses, dividing_line_branch, exp_transform, log_transform


def _line(ok: bool, label: str, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{tail}")


def _group_series(parts, p, n_max):
    spec = parse_group_spec(f"A[{p};{','.join(map(str, parts))}]")
    return hom_count_ints(spec, n_max)


# ---------------------------------------------------------------------------
# 1. the classical involution bound, with the mod-4 equality refinement
# ---------------------------------------------------------------------------


def test_c01_involution_bound():
    start = time.monotonic()
    n_max = 2000
    h = kernels.hall_exp(series_from_map({1: 1, 2: 1}, n_max))
    assert h == involution_oracle(n_max)  # independent two-term recurrence
    bad_bound = [n for n in range(n_max + 1) if kernels.vp_int(h[n], 2) < (n + 2) // 4]
    bad_equal = [
        n
        for n in range(3, n_max + 1, 4)
        if kernels.vp_int(h[n], 2) != (n + 5) // 4
    ]
    elapsed = time.monotonic() - start
    ok = not bad_bound and not bad_equal and elapsed < 10.0
    _line(ok, "criterion 1: involution bound + mod-4 equality, n <= 2000", f"{elapsed:.2f}s")
    assert not bad_bound, bad_bound[:5]
    assert not bad_equal, bad_equal[:5]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. the cyclic-group bound for p in {2,3,5,7} with tightness at p^2 | n
# ---------------------------------------------------------------------------


def test_c02_cyclic_group_bound():
    n_max = 1000
    for p in (2, 3, 5, 7):
        svals = [0] * (n_max + 1)
        svals[1] = svals[p] = 1
        h = kernels.hall_exp(svals)
        for n in range(n_max + 1):
            v = kernels.vp_int(h[n], p)
            b = n // p - n // p**2
            assert v >= b, (p, n, v, b)
            if n % p**2 == 0:
                assert v == b, (p, n, v, b)
    _line(True, "criterion 2: cyclic-group bound, p in {2,3,5,7}, n <= 1000")


# ---------------------------------------------------------------------------
# 3. the rank <= 2 bound display
# ---------------------------------------------------------------------------


def test_c03_rank_two_bound():
    n_max = 512
    for p in (2, 3):
        for parts, (l, m) in [((2, 1), (2, 1)), ((3, 1), (3, 1)), ((2,), (2, 0))]:
            h = _group_series(parts, p, n_max)
            kind = BoundKind("kty", p, l=l, m=m)
            for n in range(n_max + 1):
                assert kernels.vp_int(h[n], p) >= bound_value(kind, n), (p, parts, n)
    _line(True, "criterion 3: rank <= 2 bound, (l,m) in {(2,1),(3,1),(2,0)}, p in {2,3}")


# ---------------------------------------------------------------------------
# 4. full rank-n verification for |a| <= 5, p in {2,3,5}
# ---------------------------------------------------------------------------

N4 = 512


def _all_partitions_upto(weight):
    for w in range(1, weight + 1):
        yield from partitions_of(w)


def test_c04_general_bound_tightness_and_quotients():
    checked = 0
    for p in (2, 3, 5):
        for parts in _all_partitions_upto(5):
            t = PartitionType(parts, p)
            case, l, m = partition_case(parts)
            step = p**l
            counts = abelian_subgroup_counts(t)
            h = _group_series(parts, p, N4)
            if case == "II" and p == 2:
                kind = BoundKind("thm6.2", 2, partition=parts)
                report = verify_bounds(h, kind)
                assert report.ok, (parts, p, report.violations[:5])
                checked += 1
                continue
            kind = BoundKind("thm6.1", p, partition=parts)
            report = verify_bounds(h, kind)
            assert report.ok, (parts, p, report.violations[:5])
            # tightness precondition: the step-index difference has
            # valuation exactly m
            diff = counts[p ** (l - 1)] - counts[p**l]
            assert vp(diff, p) == m, (parts, p)
            tight = set(report.tight_set)
            for n in range(0, N4 + 1, step):
                assert n in tight, (parts, p, n)
            # quotient recurrence with multiplier (-1)^(l-1): l - 1 is a_1 in
            # case I, A_1 in case II and A_2 in case III
            s_ext = counts.values(max(N4, step))
            if step <= N4:
                qrec = verify_q_recurrence(report, s_ext)
                assert qrec.ok, (parts, p, qrec.failures[:5])
                assert qrec.multiplier == (-1) ** (l - 1) % p, (parts, p)
            checked += 1
    _line(True, f"criterion 4: general-rank bounds/tightness/quotients ({checked} groups)")


_P2_EXCEPTION_CASES = [
    pytest.param((1, 1), 0, id="(1,1)-class0"),
    pytest.param((1, 1), 4, id="(1,1)-class4"),
    pytest.param((1, 1), 8, id="(1,1)-class8"),
    pytest.param((2, 1, 1), 0, id="(2,1,1)-class0"),
    pytest.param((2, 1, 1), 8, id="(2,1,1)-class8"),
    pytest.param((2, 1, 1), 16, id="(2,1,1)-class16"),
]


def test_c04_p2_exception_quotient_recurrence():
    for parts in [(1, 1), (2, 1, 1)]:
        t = PartitionType(parts, 2)
        _, l, _ = partition_case(parts)
        counts = abelian_subgroup_counts(t)
        h = _group_series(parts, 2, N4)
        kind = BoundKind("thm6.2", 2, partition=parts)
        qrec = verify_q_recurrence(verify_bounds(h, kind), counts.values(N4))
        assert qrec.step == 2 ** (l + 2)
        assert qrec.multiplier == 1  # the stated congruence has no multiplier
        assert qrec.ok, (parts, qrec.failures[:5])
    _line(True, "criterion 4: p=2 exceptional quotient congruence for (1,1), (2,1,1)")


@pytest.mark.parametrize("parts,residue", _P2_EXCEPTION_CASES)
def test_c04_p2_exception_tightness(parts, residue):
    _, l, _ = partition_case(parts)
    step = 2 ** (l + 2)
    h = _group_series(parts, 2, N4)
    kind = BoundKind("thm6.2", 2, partition=parts)
    report = verify_bounds(h, kind)
    assert report.ok
    tight = set(report.tight_set)
    missing = [n for n in range(residue, N4 + 1, step) if n not in tight]
    ok = not missing
    _line(
        ok,
        f"criterion 4: p=2 exception tightness, type {parts} at class {residue} mod {step}",
        "" if ok else f"not tight at n={missing[:4]}",
    )
    first = missing[0] if missing else None
    assert not missing, (
        f"claimed tightness class {residue} (mod {step}) fails for type {parts}: "
        f"v_2(h_n) exceeds the bound at n={missing[:4]}; e.g. n={first}: "
        f"v_2 = {vp(h[first], 2)} > bound = {bound_value(kind, first)}. "
        f"The observed extra tight class for this type is 3*2^(A_1+1) instead."
    )


# every Abelian p-group type up to this weight, one h per type at N_SWEEP
_SWEEP_WEIGHTS = {2: 10, 3: 6, 5: 4}
N_SWEEP = 1024


def test_c04_tightness_scope_sweep():
    """Measured scope of the claimed tightness classes (a record, not a theorem).

    Each thm6.1 type (odd p, or p = 2 in case I or III) is tight on its
    class 0 mod p^l.  Of the classes k*2^l mod 2^(l+2) of a p = 2 case-II
    type, the rank-2 types are tight on exactly k in {0, 1, 2}, as thm6.2
    claims, and every type of rank >= 3 on exactly k in {0, 1, 3}.

    Every slack stays below the guard digits `verify_bounds_mod` keeps, so
    verify-group reads each of these types from h modulo p^(E+64) and
    never needs the exact h.
    """
    kinds = {"thm6.1": 0, "thm6.2": 0}
    wrong = []
    widest = (0, None, None)  # (largest finite slack, p, type)
    for p, weight in _SWEEP_WEIGHTS.items():
        for parts in _all_partitions_upto(weight):
            case, l, _ = partition_case(parts)
            h = _group_series(parts, p, N_SWEEP)
            tag = "thm6.2" if case == "II" and p == 2 else "thm6.1"
            kinds[tag] += 1
            report = verify_bounds(h, BoundKind(tag, p, partition=parts))
            assert report.ok, (parts, p, report.violations[:5])
            qrec = verify_q_recurrence(report, abelian_subgroup_counts(PartitionType(parts, p)))
            assert qrec.ok, (parts, p, qrec.failures[:5])
            slack = max(row["slack"] for row in report.rows if row["slack"] != "infinity")
            if slack > widest[0]:
                widest = (slack, p, parts)
            tight = set(report.tight_set)
            if tag == "thm6.1":
                classes, expected = [0], [0]
            else:
                classes = range(4)
                expected = [0, 1, 2] if len(parts) == 2 else [0, 1, 3]
            found = [
                k
                for k in classes
                if all(n in tight for n in range(k * p**l, N_SWEEP + 1, qrec.step))
            ]
            if found != expected:
                wrong.append((p, parts, found))
    assert kinds == {"thm6.1": 122, "thm6.2": 56}
    assert not wrong, f"tight classes k*p^l differ from the measured pattern: {wrong}"
    assert widest[0] < _GUARD, f"slack {widest[0]} of p = {widest[1]}, type {widest[2]} needs the exact h"
    _line(True, f"criterion 4: tightness scope sweep ({sum(kinds.values())} types, N={N_SWEEP})")


# ---------------------------------------------------------------------------
# 5. the weaker-information bounds on randomized series
# ---------------------------------------------------------------------------

_SYNTH_COMBOS = (
    [("thm3.1", p, l) for p in (3, 5, 7) for l in (1, 2, 3) if (p, l) != (3, 1)]
    + [("thm3.3", 3, 1)]
    + [("thm3.4", 2, l) for l in (1, 2, 3)]
    + [("thm3.7", p, l) for p in (3, 5, 7) for l in (1, 2, 3) if (p, l) != (3, 1)]
)


def _gap_depth(theorem, p, l):
    return {
        "thm3.1": p**l,
        "thm3.3": 3,
        "thm3.4": 2**l,
        "thm3.7": 2 * p**l - 1,
    }[theorem]


def test_c05_randomized_series_bounds():
    rng = random.Random(0xD150C)
    n_max = 400
    total = 0
    for theorem, p, l in _SYNTH_COMBOS:
        kind = BoundKind(theorem, p, l=l) if theorem != "thm3.3" else BoundKind("thm3.3", 3)
        bounds = [bound_value(kind, n) for n in range(n_max + 1)]
        modulus = p ** (max(bounds) + 1)
        powers = [p**b if b > 0 else 1 for b in bounds]
        for _ in range(20):
            svals = repaired_integer_series(rng, p, n_max, _gap_depth(theorem, p, l))
            kwargs = {"l": l} if theorem != "thm3.3" else {}
            rep = check_hypotheses(svals, p, theorem, **kwargs)
            assert rep.overall, (theorem, p, l, rep.conditions)
            h = kernels.hall_exp(svals, modulus=modulus)
            for n in range(n_max + 1):
                if bounds[n] > 0:
                    assert h[n] % powers[n] == 0, (theorem, p, l, n)
            total += 1
    _line(True, f"criterion 5: randomized-series bounds, zero violations ({total} series)")


def test_c05_sharpness_witness():
    # s_1 = s_2 = s_4 = 1 realizes equality v_2(h_{8m}) = 4m under the
    # p = 2, l = 2 bound
    svals = [0, 1, 1, 0, 1]
    s = svals + [0] * 396
    rep = check_hypotheses(s, 2, "thm3.4", l=2)
    assert rep.overall
    h = kernels.hall_exp(s)
    kind = BoundKind("thm3.4", 2, l=2)
    for n in range(401):
        assert kernels.vp_int(h[n], 2) >= bound_value(kind, n)
    for m in range(1, 21):
        assert kernels.vp_int(h[8 * m], 2) == 4 * m, m
    _line(True, "criterion 5: equality witness v_2(h_{8m}) = 4m, m <= 20")


# ---------------------------------------------------------------------------
# 6. the dividing line
# ---------------------------------------------------------------------------


def test_c06_dividing_line():
    rng = random.Random(0xD151)
    n_max = 400
    for p in (2, 3, 5, 7):
        # indivisibility branch: s_1 != s_p (mod p)
        for _ in range(20):
            svals = [0] + [rng.randint(-40, 40) for _ in range(n_max)]
            if (svals[1] - svals[p]) % p == 0:
                svals[p] += 1
            h = kernels.hall_exp(svals[: 50 * p + 1], modulus=p)
            base = (svals[1] - svals[p]) % p
            for a in range(51):
                assert h[a * p] == pow(base, a, p), (p, a)
            assert any(h[a * p] for a in range(1, 51))
        # divisibility branch: s_1 = s_p (mod p), the p-specific bound holds
        kind = BoundKind("cor3.6", p)
        bounds = [bound_value(kind, n) for n in range(n_max + 1)]
        modulus = p ** (max(bounds) + 1)
        for _ in range(20):
            svals = repaired_integer_series(rng, p, n_max, p)
            rep = check_hypotheses(svals, p, "cor3.6")
            assert rep.overall
            assert dividing_line_branch(svals, p) == "divisibility"
            h = kernels.hall_exp(svals, modulus=modulus)
            for n in range(n_max + 1):
                if bounds[n] > 0:
                    assert h[n] % p ** bounds[n] == 0, (p, n)
    _line(True, "criterion 6: dividing line, both branches, p in {2,3,5,7}")


# ---------------------------------------------------------------------------
# 7. the supercongruence
# ---------------------------------------------------------------------------


def test_c07_supercongruence():
    start = time.monotonic()
    total = 0
    for p in (2, 3, 5, 7):
        instances = supercongruence_sweep(p, 6)
        assert all(inst.passed for inst in instances), [
            i.summary() for i in instances if not i.passed
        ][:3]
        total += len(instances)
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _line(ok, f"criterion 7: supercongruence, {total} instances", f"{elapsed:.2f}s")
    assert total == sum(6 * p * p for p in (2, 3, 5, 7))
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. dihedral groups
# ---------------------------------------------------------------------------


def test_c08_dihedral():
    n_max = 512
    for m in (3, 4, 5, 6, 8, 12):
        counts = dihedral_subgroup_counts(m)
        svals = [0] * (n_max + 1)
        for idx, c in counts.counts:
            if idx <= n_max:
                svals[idx] = c
        h = kernels.hall_exp(svals)
        kind = BoundKind("thm5.5", 2, dihedral_m=m)
        for n in range(n_max + 1):
            assert kernels.vp_int(h[n], 2) >= bound_value(kind, n), (m, n)
        for p in (3, 5):
            hits = [n for n in range(201) if h[n] % p]
            assert hits, (m, p)
    _line(True, "criterion 8: dihedral 2-adic bound (branch by 4|m) + odd-p indivisibility")


# ---------------------------------------------------------------------------
# 9. ultimate periodicity
# ---------------------------------------------------------------------------

_PERIODICITY_INSTANCES = [
    ("C[5]*C[5]", 5, False),  # the p >= 5 two-factor case
    ("C[3]*A[3;1,1]", 3, False),
    ("C[3]*C[3]*C[3]", 3, False),
    ("A[2;1,1]*A[2;1,1]", 2, False),
    ("C[2]*C[16]", 2, False),
    ("C[2]*C[2]*C[4]", 2, False),
    ("C[2]*C[2]*C[2]*C[2]", 2, True),  # all residues odd
]


def test_c09_periodicity():
    for text, p, all_odd in _PERIODICITY_INSTANCES:
        spec = parse_group_spec(text)
        residues = subgroup_residues_mod_p(spec, 400, p)
        result = periodicity_detect(residues[1:], 3)
        assert result.detected, (text, result)
        assert result.confirmed_window >= 3
        if all_odd:
            assert all(r == 1 for r in residues[1:]), text
        detail = f"preperiod {result.preperiod}, period {result.period}"
        _line(True, f"criterion 9: periodicity of {text} mod {p}", detail)


# ---------------------------------------------------------------------------
# 10. restricted-cycle permutation counts
# ---------------------------------------------------------------------------


def test_c10_permutation_oracle_equivalence():
    base = list(range(1, 9))
    checked = 0
    for size in range(9):
        for lengths in itertools.combinations(base, size):
            series = permutation_count_series(8, lengths)
            for n in range(9):
                assert series[n] == permutation_count_bruteforce(n, lengths), (lengths, n)
            checked += 1
    assert checked == 256
    _line(True, "criterion 10: oracle equivalence for all L within {1..8}, n <= 8")


def test_c10_permutation_divisibility():
    # Admissibility: besides the theorems' (p, l) constraints, the induced
    # cycle-length indicator series must satisfy the underlying gap
    # hypothesis.  A base set containing a multiple of p can break it
    # (e.g. lengths {2} alone with p = 2: one transposition at n = 2 is
    # odd, yet the formula would demand divisibility by 2), and those
    # combinations are exactly the ones whose hypothesis check fails.
    n_max = 300
    subsets = [frozenset(c) for size in range(5) for c in itertools.combinations((1, 2, 3, 5), size)]
    theorem_of = {"pi1": "cor2.4", "pi2": None, "pi3": "thm3.7"}
    runs = 0
    inadmissible = 0
    for p in (2, 3, 5):
        for l in (1, 2, 3):
            for variant in ("pi1", "pi2", "pi3"):
                if variant == "pi3" and (p == 2 or (p, l) == (3, 1)):
                    continue
                for base_set in subsets:
                    rule = CycleRule(variant, p, l, base_set)
                    kind = rule.bound_kind()
                    svals = [0] * (n_max + 1)
                    for length in rule.allowed_lengths():
                        svals[length] = 1
                    theorem = theorem_of[variant] or kind.tag
                    kwargs = {"l": l} if theorem != "thm3.3" else {}
                    hyp = check_hypotheses(svals, p, theorem, **kwargs)
                    if not hyp.overall:
                        inadmissible += 1
                        continue
                    counts = permutation_count_series(n_max, rule.allowed_lengths())
                    for n, value in enumerate(counts):
                        if value == 0:
                            continue
                        b = bound_value(kind, n)
                        if b > 0:
                            assert value % p**b == 0, (variant, p, l, sorted(base_set), n)
                    runs += 1
    _line(
        True,
        f"criterion 10: divisibility for all three restriction rules "
        f"({runs} admissible runs, {inadmissible} with failing gap hypothesis skipped)",
    )
    assert runs > 250


# ---------------------------------------------------------------------------
# 11. property suites
# ---------------------------------------------------------------------------


def test_c11_floor_sum_lemma():
    for p in (2, 3, 5):
        for l in range(0, 4):
            rep = floor_lemma_checks(p, l, i_max=200, j_max=50)
            assert not rep.ij_counterexamples, (p, l, rep.ij_counterexamples[:3])
    _line(True, "criterion 11: floor-sum inequality, p in {2,3,5}, l <= 3, i <= 200, j <= 50")


def test_c11_half_floor_lemma_nonnegative_j():
    rep = floor_lemma_checks(2, 1, i_max=2, j_max=100, j_min=0)
    ok = not rep.half_counterexamples
    _line(ok, "criterion 11: half-floor inequality, 0 <= j <= 100, rational grid")
    assert ok, rep.half_counterexamples[:3]


def test_c11_half_floor_lemma_full_grid():
    # the claim is quantified over all integers j, and |j| <= 100 is the
    # stated grid; it genuinely fails for every negative j at x = 0
    rep = floor_lemma_checks(2, 1, i_max=2, j_max=100, j_min=-100)
    ok = not rep.half_counterexamples
    _line(
        ok,
        "criterion 11: half-floor inequality, |j| <= 100, rational grid",
        "" if ok else f"{len(rep.half_counterexamples)} counterexamples, e.g. j=-1, x=0",
    )
    assert ok, (
        "the half-floor inequality fails for negative j: e.g. j=-1, x=0 gives "
        "-1 <= floor(-3/2) - floor(-1/2)/2 = -2 + 1/2 = -3/2, which is false; "
        f"{len(rep.half_counterexamples)} grid counterexamples in total "
        "(the inequality holds for all j >= 0, the domain the bound proofs use)"
    )


def test_c11_exp_log_round_trip():
    rng = random.Random(0xD11)
    for _ in range(8):
        n_max = rng.randint(10, 60)
        s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n_max)]
        assert log_transform(exp_transform(s)) == s
    _line(True, "criterion 11: exp/log round trip, random rational series, N <= 60")


def test_c11_oracle_equivalence_to_order_256():
    checked = 0
    for p in (2, 3, 5):
        weight = 1
        while p ** (weight + 1) <= 256:
            weight += 1
        for w in range(1, weight + 1):
            for parts in partitions_of(w):
                t = PartitionType(parts, p)
                a = abelian_subgroup_counts(t).counts
                b = abelian_subgroup_counts_bruteforce(t).counts
                assert a == b, (parts, p)
                checked += 1
    _line(True, f"criterion 11: subgroup-count oracle equivalence, order <= 256 ({checked} groups)")


def test_c11_count_structure():
    groups = 0
    for p in (2, 3, 5):
        for parts in _all_partitions_upto(6):
            t = PartitionType(parts, p)
            c = abelian_subgroup_counts(t)
            w = t.weight
            for i in range(w + 1):
                assert c[p**i] % p == 1  # index-p^i counts are 1 mod p
                assert c[p**i] == c[p ** (w - i)]  # symmetry
            if p > 2 and t.rank >= 2:
                for i in range(1, w):
                    assert c[p**i] % p**2 == (1 + p) % p**2
            from dworklab.groups import difference_valuation_profile

            assert difference_valuation_profile(c, t) == [], (parts, p)
            groups += 1
    _line(True, f"criterion 11: count congruences/symmetry/difference structure ({groups} groups)")
