import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworklab import groups, kernels
from dworklab.bounds import BoundKind, verify_bounds
from dworklab.cli import main
from dworklab.groups import (
    GroupSpec,
    PartitionType,
    SubgroupCounts,
    abelian_subgroup_counts,
    abelian_subgroup_counts_bruteforce,
    conjugate_partition,
    cyclic_subgroup_counts,
    difference_valuation_profile,
    dihedral_subgroup_counts,
    finite_subgroup_counts,
    hom_count_ints_mod,
    parse_group_spec,
    partition_case,
    partitions_fitting,
    subgroup_residues_mod_p,
    subgroup_type_count,
)
from dworklab.series import exp_transform

import conftest
from conftest import (
    addition_table_naive,
    dihedral_subgroup_counts_oracle,
    hom_count_bruteforce,
    hom_count_ints,
    normal_count_index_p,
    partitions_of,
    subgroup_count_series,
)


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition((2, 2, 1)) == (3, 2)
    assert conjugate_partition(()) == ()
    for parts in [(4, 2, 1), (5,), (2, 2, 2), (3, 3, 1, 1)]:
        assert conjugate_partition(conjugate_partition(parts)) == parts


def test_partitions_of():
    assert sorted(partitions_of(4)) == sorted([(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    assert len(list(partitions_of(6))) == 11
    assert list(partitions_of(0)) == [()]


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


def test_partitions_fitting():
    inside = set(partitions_fitting((2, 1)))
    assert inside == {(), (1,), (2,), (1, 1), (2, 1)}
    for nu in partitions_fitting((3, 2, 2)):
        padded = nu + (0,) * (3 - len(nu))
        assert all(a <= b for a, b in zip(padded, (3, 2, 2)))


def test_partition_type_validation():
    with pytest.raises(ValueError):
        PartitionType((1, 2), 2)
    with pytest.raises(ValueError):
        PartitionType((0,), 2)
    with pytest.raises(ValueError, match="prime"):
        PartitionType((1,), 4)
    t = PartitionType((3, 1), 2)
    assert t.weight == 4 and len(t.parts) == 2 and t.group_order == 16


def test_abelian_counts_examples():
    assert dict(abelian_subgroup_counts(PartitionType((1, 1), 2)).counts) == {1: 1, 2: 3, 4: 1}
    assert dict(abelian_subgroup_counts(PartitionType((2, 1), 2)).counts) == {1: 1, 2: 3, 4: 3, 8: 1}
    for k, p in [(3, 2), (2, 5), (4, 3)]:
        counts = abelian_subgroup_counts(PartitionType((k,), p))
        assert dict(counts.counts) == {p**i: 1 for i in range(k + 1)}


def test_abelian_counts_symmetry():
    for parts, p in [((2, 1), 2), ((3, 2, 1), 2), ((2, 2), 3), ((1, 1, 1), 5)]:
        t = PartitionType(parts, p)
        c = abelian_subgroup_counts(t)
        for i in range(t.weight + 1):
            assert c[p**i] == c[p ** (t.weight - i)]


def test_subgroup_type_count_values():
    # order-4 subgroups of Z4 x Z2 x Z2: 4 cyclic + 7 Klein
    assert subgroup_type_count((2, 1, 1), (2,), 2) == 4
    assert subgroup_type_count((2, 1, 1), (1, 1), 2) == 7
    assert subgroup_type_count((2, 2), (2,), 2) == 6
    assert subgroup_type_count((1, 1), (2,), 2) == 0  # C_4 does not embed


def test_bruteforce_examples():
    assert dict(abelian_subgroup_counts_bruteforce(PartitionType((1, 1, 1), 2)).counts) == {
        1: 1,
        2: 7,
        4: 7,
        8: 1,
    }
    assert dict(abelian_subgroup_counts_bruteforce(PartitionType((1,), 5)).counts) == {1: 1, 5: 1}
    assert dict(abelian_subgroup_counts_bruteforce(PartitionType((2,), 3)).counts) == {1: 1, 3: 1, 9: 1}


def test_caps():
    with pytest.raises(ValueError, match="cap"):
        abelian_subgroup_counts_bruteforce(PartitionType((1,) * 9, 2))
    with pytest.raises(ValueError, match="cap"):
        abelian_subgroup_counts(PartitionType((41,), 2))


# every type of order <= 256 at these primes: orders 2 (254 bytes of
# translate-table padding) up to 256 (none), with 121 and 169 between
TABLE_TYPES = [
    (p, parts)
    for p in (2, 3, 5, 7, 11, 13)
    for w in range(1, 9)
    if p**w <= 256
    for parts in partitions_of(w)
]


@pytest.mark.parametrize(
    "p,parts", TABLE_TYPES, ids=[f"p{p}-" + ",".join(map(str, parts)) for p, parts in TABLE_TYPES]
)
def test_addition_table_matches_naive(p, parts):
    assert groups._addition_table(parts, p) == addition_table_naive(parts, p)


def test_oracle_equivalence_sample():
    rng = random.Random(31)
    cases = [((2, 2), 2), ((3, 1), 2), ((2, 1, 1), 2), ((1, 1), 3), ((2, 1), 3), ((1, 1), 5)]
    for parts, p in cases:
        t = PartitionType(parts, p)
        assert abelian_subgroup_counts(t).counts == abelian_subgroup_counts_bruteforce(t).counts


def test_named_groups():
    # S_3: itself, A_3, three transpositions, the trivial group
    assert dict(dihedral_subgroup_counts(3).counts) == {1: 1, 2: 1, 3: 3, 6: 1}
    assert dict(dihedral_subgroup_counts(6).counts) == {1: 1, 2: 3, 3: 3, 4: 1, 6: 7, 12: 1}
    assert dict(cyclic_subgroup_counts(6).counts) == {1: 1, 2: 1, 3: 1, 6: 1}
    # the degenerate Abelian cases: D_2 is the Klein four-group with a
    # single index-4 subgroup, D_1 is C_2
    assert dict(dihedral_subgroup_counts(2).counts) == {1: 1, 2: 3, 4: 1}
    assert dict(dihedral_subgroup_counts(1).counts) == {1: 1, 2: 1}


def test_dihedral_counts_match_enumeration():
    for m in range(3, 13):
        assert dict(dihedral_subgroup_counts(m).counts) == dihedral_subgroup_counts_oracle(m), m
    # h_3 = |Hom(D_3, S_3)| = |Hom(S_3, S_3)| = 10
    h = exp_transform(dihedral_subgroup_counts(3).values(3))
    assert h[3] == 10


def test_cyclic_and_dihedral_tables_match_the_scan_definition():
    for m in range(1, 301):
        # s_d over d = 1..2m: [d | m] for C_m, [d | m] d + [2 | d and d/2 | m] for D_m
        cyclic = {d: 1 for d in range(1, m + 1) if m % d == 0}
        dihedral = {
            d: (d if m % d == 0 else 0) + (d % 2 == 0 and m % (d // 2) == 0)
            for d in range(1, 2 * m + 1)
        }
        assert dict(cyclic_subgroup_counts(m).counts) == cyclic, m
        assert dict(dihedral_subgroup_counts(m).counts) == {d: c for d, c in dihedral.items() if c}, m
    # m = 2^12 5^12: the supports are the divisors of m and of 2m
    m = 10**12
    assert dict(cyclic_subgroup_counts(m).counts) == {
        2**a * 5**b: 1 for a in range(13) for b in range(13)
    }
    dihedral = dihedral_subgroup_counts(m)
    assert [d for d, _ in dihedral.counts] == sorted(
        2**a * 5**b for a in range(14) for b in range(13)
    )
    assert (dihedral[1], dihedral[m], dihedral[2 * m]) == (1, m + 1, 1)


def test_classification(capsys):
    # verify-group reports the type's case, its (l, m), and whether it is
    # routed to the p = 2 case II bound
    for spec, expected in [
        ("A[5;2,1]", ["I", 3, 1, False]),
        ("A[2;1,1]", ["II", 2, 1, True]),
        ("A[3;1,1]", ["II", 2, 1, False]),
        ("A[2;1,1,1]", ["III", 3, 1, False]),
    ]:
        main(["verify-group", "--spec", spec, "--n-max", "16"])
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert [summary[k] for k in ("case", "l", "m", "routed_to_p2_exception")] == expected, spec


def test_difference_profile_examples():
    for parts, p in [((2, 1), 2), ((1, 1), 3), ((4,), 2), ((2, 2), 2), ((2, 1, 1), 2)]:
        t = PartitionType(parts, p)
        assert difference_valuation_profile(abelian_subgroup_counts(t), t) == [], (parts, p)


def test_difference_profile_catches_corruption():
    t = PartitionType((2, 1), 2)
    good = dict(abelian_subgroup_counts(t).counts)
    good[2] += 1  # break the valuation profile
    bad = SubgroupCounts.from_map(good)
    assert difference_valuation_profile(bad, t)


def canonical(text: str) -> str:
    """The spec's canonical text, as `periodicity` reports it."""
    return "*".join(f.canonical() for f in parse_group_spec(text))


def test_parse_group_spec():
    (spec,) = parse_group_spec("A[3;1,1]")
    assert spec.variant == "abelian" and spec.partition.parts == (1, 1)
    factors = parse_group_spec(" C[3] * A[3;1,1] ")
    assert type(factors) is tuple and all(type(f) is GroupSpec for f in factors)
    assert [f.canonical() for f in factors] == ["A[3;1,1]", "C[3]"]  # canonical order is sorted
    assert parse_group_spec("A[2;1,2]")[0].partition.parts == (2, 1)  # normalized
    assert canonical("D[4]") == "D[4]"
    for bad in ["", "X[2]", "A[2]", "A[4;1]", "C[0]", "C[2]**C[2]", "A[2;]"]:
        with pytest.raises(ValueError):
            parse_group_spec(bad)


_term = st.one_of(
    st.builds(
        lambda p, parts: f"A[{p};{','.join(map(str, parts))}]",
        st.sampled_from([2, 3, 5, 7, 101]),
        st.lists(st.integers(1, 9), min_size=1, max_size=4),
    ),
    st.builds(lambda head, n: f"{head}[{n}]", st.sampled_from("CD"), st.integers(1, 10**6)),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_term, min_size=1, max_size=3).map(" * ".join))
def test_parse_group_spec_canonical_round_trip(text):
    text = canonical(text)
    assert canonical(text) == text


# short strings over the spec alphabet; the length cap keeps the prime of
# an abelian term small enough for trial division
@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="ACDX[];,*0123456789- ", max_size=14))
def test_parse_group_spec_raises_only_value_error(text):
    try:
        parse_group_spec(text)
    except ValueError:
        pass


def test_finite_subgroup_counts_dispatch():
    assert dict(finite_subgroup_counts(*parse_group_spec("C[4]")).counts) == {1: 1, 2: 1, 4: 1}
    assert dict(finite_subgroup_counts(*parse_group_spec("A[2;1]")).counts) == {1: 1, 2: 1}
    assert dict(finite_subgroup_counts(*parse_group_spec("D[2]")).counts) == {1: 1, 2: 3, 4: 1}


def test_hom_count_ints_matches_series_path():
    factors = parse_group_spec("A[2;2,1]")
    h = hom_count_ints(factors, 40)
    s = finite_subgroup_counts(*factors).values(40)
    assert h == [int(x) for x in exp_transform(s)]
    # the trivial group C_1 has one homomorphism from each C_n, so it is a
    # neutral factor of a free product
    assert hom_count_ints(parse_group_spec("C[1]"), 12) == [1] * 13
    assert hom_count_ints(parse_group_spec("C[1]*C[2]"), 40) == hom_count_ints(
        parse_group_spec("C[2]"), 40
    )


@pytest.mark.parametrize(
    "text",
    ["A[2;1,1]", "A[2;2,1]", "A[3;1,1]", "A[2;1,1,1]", "D[3]", "D[4]", "D[6]", "A[2;1,1]*D[3]"],
)
def test_hom_counts_match_permutation_enumeration(text):
    # |Hom(G, S_n)| by enumerating the generators' images in S_n, against
    # kernels.hall_exp of G's subgroup counts; the finite group's own bound
    # kind holds on the enumerated h
    factors = parse_group_spec(text)
    h = hom_count_bruteforce(factors, 6)
    assert h == hom_count_ints(factors, 6)
    if len(factors) > 1:
        return
    (spec,) = factors
    if spec.variant == "dihedral":
        kind = BoundKind("thm5.5", 2, dihedral_m=spec.order_param)
    else:
        t = spec.partition
        tag = "thm6.2" if partition_case(t.parts)[0] == "II" and t.p == 2 else "thm6.1"
        kind = BoundKind(tag, t.p, partition=t.parts)
    assert verify_bounds(h, kind).ok


def test_free_product_subgroup_counts():
    # s_2(C_2 * C_2) = 3: one normal subgroup per index-2 kernel of the
    # three surjections onto C_2
    spec = parse_group_spec("C[2]*C[2]")
    s = subgroup_count_series(spec, 10)
    assert int(s[1]) == 1 and int(s[2]) == 3
    h = hom_count_ints(spec, 10)
    involutions = exp_transform([0, 1, 1] + [0] * 8)
    assert h == [int(x) ** 2 for x in involutions]


def test_subgroup_count_series_rejects_non_integral_inverse(monkeypatch):
    # h = (1, 0, 0, 0, 1) is no group's hom-count sequence: s_4 = 1/6
    monkeypatch.setattr(conftest, "hom_count_ints", lambda spec, n_max: [1, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="not integral"):
        subgroup_count_series(parse_group_spec("C[2]*C[2]"), 4)


def test_group_and_cycle_coefficients_are_plain_ints():
    factors = parse_group_spec("A[3;1,1]")
    series = {
        "values": finite_subgroup_counts(*factors).values(40),
        # the h of verify-group and verify-dihedral
        "hom_count_ints": hom_count_ints(factors, 40),
        "subgroup_count_series": subgroup_count_series(parse_group_spec("C[2]*C[3]"), 40),
        # cycle lengths 1 and 2: the involution counts
        "exp_transform": exp_transform([0, 1, 1] + [0] * 38),
    }
    for name, s in series.items():
        assert all(type(c) is int for c in s), name


def test_subgroup_residues_match_exact():
    for text, p, n in [("C[2]*C[4]", 2, 120), ("C[3]*A[3;1,1]", 3, 90), ("C[2]*C[2]*C[4]", 2, 80)]:
        spec = parse_group_spec(text)
        res = subgroup_residues_mod_p(spec, n, p)
        exact = subgroup_count_series(spec, n)
        assert res == [int(x) % p for x in exact]
        assert res[0] == 0


_FACTORS = st.one_of(
    st.integers(1, 16).map(lambda m: f"C[{m}]"),
    st.integers(1, 8).map(lambda m: f"D[{m}]"),
    st.builds(
        lambda q, parts: f"A[{q};{','.join(map(str, sorted(parts, reverse=True)))}]",
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(1, 2), min_size=1, max_size=3),
    ),
)


@settings(deadline=None, max_examples=30)
@given(
    factors=st.lists(_FACTORS, min_size=2, max_size=3),
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 300),
)
@example(factors=["C[2]", "C[16]"], p=2, n=300)  # P = 1
@example(factors=["C[4]", "C[6]"], p=2, n=300)  # P > 1: h is read modulo p**(C + P - 1)
@example(factors=["D[4]", "A[2;2,1]", "C[8]"], p=2, n=300)
@example(factors=["C[3]", "C[9]"], p=2, n=300)  # no 2-part: P = C
def test_subgroup_residues_match_exact_counts(factors, p, n):
    spec = parse_group_spec("*".join(factors))
    exact = subgroup_count_series(spec, n)
    assert subgroup_residues_mod_p(spec, n, p) == [x % p for x in exact]


def test_subgroup_residues_compute_h_once(monkeypatch):
    # P > 1 here, and h is still computed in one pass, at 2C - 1 digits
    calls = []

    def spy(factors, n_max, modulus):
        calls.append(modulus)
        return hom_count_ints_mod(factors, n_max, modulus)

    monkeypatch.setattr(groups, "hom_count_ints_mod", spy)
    spec = parse_group_spec("C[4]*C[6]")
    subgroup_residues_mod_p(spec, 300, 2)
    C = kernels.log_residue_precision(300, 2)
    assert calls == [2 ** (2 * C - 1)]


def test_hom_count_ints_mod():
    spec = parse_group_spec("C[2]*C[16]")
    exact = hom_count_ints(spec, 60)
    reduced = hom_count_ints_mod(spec, 60, 2**50)
    assert reduced == [x % 2**50 for x in exact]


# a power-of-two modulus reduces the pointwise product by a mask, any other
# by %; both against the exact counts reduced modulo it
@pytest.mark.parametrize("text", ["C[4]*C[6]", "C[3]*A[2;2,1]*C[8]"])
@pytest.mark.parametrize("p", [2, 3])
def test_hom_count_ints_mod_matches_exact_reduced(text, p):
    spec = parse_group_spec(text)
    exact = hom_count_ints(spec, 200)
    modulus = p ** (2 * kernels.log_residue_precision(200, p) - 1)
    assert hom_count_ints_mod(spec, 200, modulus) == [x % modulus for x in exact]


def test_prop_42_dichotomy_on_generated_groups():
    # s_p(G) mod p avoids 2..p-1 on every generated group
    specs = ["A[3;1,1]", "A[3;2]", "C[6]", "C[9]", "D[3]", "D[6]", "D[8]", "C[2]*C[2]", "C[3]*C[3]",
             "A[5;1,1]", "D[5]", "C[10]"]
    for p in (2, 3, 5):
        for text in specs:
            sp = subgroup_count_series(parse_group_spec(text), p)[p]
            assert sp % p in (0, 1), (text, p, sp)


def test_normal_count_formula_matches_abelian_counts():
    # for abelian groups every subgroup is normal, so s_p = (p^r - 1)/(p - 1)
    for parts, p in [((1, 1), 2), ((2, 1), 3), ((1, 1, 1), 2), ((2, 2), 5), ((3,), 3)]:
        t = PartitionType(parts, p)
        counts = abelian_subgroup_counts(t)
        assert counts[p] == normal_count_index_p(len(t.parts), p)
    # free product: abelianization of C_2 * C_2 has 2-rank 2
    s = subgroup_count_series(parse_group_spec("C[2]*C[2]"), 4)
    assert int(s[2]) == normal_count_index_p(2, 2) == 3


def test_frobenius_and_kulakoff_count_properties():
    for p in (2, 3, 5):
        for weight in range(1, 5):
            for parts in partitions_of(weight):
                t = PartitionType(parts, p)
                c = abelian_subgroup_counts(t)
                for i in range(weight + 1):
                    assert c[p**i] % p == 1
                if p > 2 and len(parts) >= 2:
                    for i in range(1, weight):
                        assert c[p**i] % p**2 == (1 + p) % p**2
