"""Kernel tests: each kernel is checked against an independent oracle or
known counts."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    hom_count_ints,
    involution_oracle,
    naive_vp,
    poly_exp_oracle,
    subgroup_count_series,
)
from dworklab import kernels


# one parameter, so that each test id names the kernel implementation
@pytest.fixture(params=[kernels], ids=[kernels.BACKEND])
def kern(request):
    return request.param


def test_hall_exp_matches_polynomial_exponential(kern):
    rng = random.Random(11)
    for _ in range(5):
        svals = [0] + [rng.randint(-9, 9) for _ in range(40)]
        expected = poly_exp_oracle(svals)
        got = kern.hall_exp(svals, 40)
        assert all(e.denominator == 1 for e in expected)
        assert got == [e.numerator for e in expected]


def test_hall_exp_involutions(kern):
    h = kern.hall_exp([0, 1, 1], 100)
    assert h == involution_oracle(100)


def test_hall_exp_short_series(kern):
    # entries beyond len(s)-1 count as zero
    assert kern.hall_exp([0, 1], 5) == [1, 1, 1, 1, 1, 1]
    assert kern.hall_exp([], 3) == [1, 0, 0, 0]


# the modular path of hall_exp against its own exact path, at 80 terms
def test_hall_exp_mod_matches_exact(kern):
    rng = random.Random(13)
    svals = [0] + [rng.randint(-30, 30) for _ in range(80)]
    h = kern.hall_exp(svals, 80)
    for modulus in (2**20, 3**13, 997):
        assert kern.hall_exp(svals, 80, modulus) == [x % modulus for x in h]


def test_hall_exp_rejects_nonpositive_modulus(kern):
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            kern.hall_exp([0, 1, 1], 4, modulus)


@st.composite
def _exp_inputs(draw):
    """(s, N) with s indexed by position; its last nonzero index lies
    below or above N/4, or past N, or s is all zero."""
    nmax = draw(st.integers(0, 32))
    last = draw(st.one_of(st.integers(0, nmax // 4), st.integers(0, nmax + 6)))
    s = [0] * (last + 1 + draw(st.integers(0, 4)))
    for k in range(1, last + 1):
        if draw(st.booleans()):
            s[k] = draw(st.integers(-40, 40))
    if last:
        s[last] = draw(st.integers(-40, 40).filter(bool))
    return s, nmax


@settings(deadline=None, max_examples=200)
@given(_exp_inputs(), st.sampled_from([None, 1, 2, 7, 3**5, 2**64 + 13]))
@example(([0, 1, 0, 0, 0, 0, 2], 24), None)  # exact
@example(([0, 1, 0, 0, 0, 0, 2], 24), 7)  # support below N/4
@example(([0, 1, 0, 0, 0, 0, 0, 0, 0, 3], 24), 7)  # support past N/4
@example(([0, 5, 0, 1] + [0] * 10 + [9, 0], 12), 2**64 + 13)  # s_14 != 0 past N = 12
@example(([0, 5, 0, 1] + [0] * 10 + [9, 0], 12), None)
@example(([0, 0, 0], 6), 3)  # all zero
@example(([0, 1, -7, 0, 14], 10), 7)  # entries that vanish mod 7
def test_hall_exp_property_matches_polynomial_exponential(case, modulus):
    s, nmax = case
    padded = (s + [0] * (nmax + 1))[: nmax + 1]
    expected = [e.numerator for e in poly_exp_oracle(padded)]
    if modulus is not None:
        expected = [x % modulus for x in expected]
    assert kernels.hall_exp(s, nmax, modulus) == expected


def test_hall_log_mod_residues_matches_exact(kern):
    rng = random.Random(14)
    for p in (2, 3, 5):
        svals = [0] + [rng.randint(-50, 50) for _ in range(80)]
        h = kern.hall_exp(svals, 80)
        residues = kern.hall_log_mod_residues(h, p, 80)
        assert residues == [x % p for x in svals]
        C = kern.log_residue_precision(80, p)
        # the single scaled path is always feasible
        P, D = _plan([x % p**C for x in h], p, 80)
        assert 1 <= P <= C and 0 <= D <= C - 1
        # h reduced modulo p**(2C - 1) must give the same answer
        reduced = [x % p ** (2 * C - 1) for x in h]
        assert kern.hall_log_mod_residues(reduced, p, 80) == residues


def _plan(hred, p, n):
    """(P, D) of `kernels._precision_plan`'s profile: 1 + Delta_N and max delta."""
    delta, loss = kernels._precision_plan(hred, p, n)
    return 1 + loss[n], max(delta, default=0)


def _reduced_hom_counts(text, p, n):
    from dworklab.groups import parse_group_spec

    h = hom_count_ints(parse_group_spec(text), n)
    C = kernels.log_residue_precision(n, p)
    return h, C, [x % p**C for x in h]


_PLAN_CASES = [
    ("C[2]*C[16]", 2, 1000, (1, 0)),
    ("A[3;1,1]*C[9]", 3, 1000, (1, 0)),
    ("C[4]*C[6]", 2, 1200, (295, 294)),
    ("C[3]*C[6]", 3, 1000, (55, 54)),
    ("C[3]*C[9]", 2, 1000, (992, 991)),  # no 2-part: P = C, D = C - 1
]


@pytest.mark.parametrize("text, p, n, plan", _PLAN_CASES)
def test_precision_plan_is_read_from_h(text, p, n, plan):
    hred = _reduced_hom_counts(text, p, n)[2]
    assert _plan(hred, p, n) == plan


@pytest.mark.parametrize("text, p, n", [case[:3] for case in _PLAN_CASES])
def test_row_precision_covers_the_loss(text, p, n):
    # e_n = 1 + Delta_(N-n+1): e_1 = P, e_N = 1, and e_k >= e_n + delta_(n-k)
    # for k < n, checked pair by pair (delta_j = 0 leaves e nonincreasing)
    hred = _reduced_hom_counts(text, p, n)[2]
    delta, loss = kernels._precision_plan(hred, p, n)
    e = [None] + [1 + loss[n - k + 1] for k in range(1, n + 1)]
    assert (e[1], e[n]) == (_plan(hred, p, n)[0], 1)
    assert all(e[k] >= e[k + 1] for k in range(1, n))
    for j, d in enumerate(delta):
        if d:
            assert all(e[m - j] >= e[m] + d for m in range(j + 1, n + 1)), (j, d)


@pytest.mark.parametrize("text, p, n", [case[:3] for case in _PLAN_CASES])
def test_hall_log_mod_residues_reads_2c_minus_1_digits(kern, text, p, n):
    # exact h and h modulo p**(2C - 1) give the same residues at P = 1,
    # at P > 1 and at P = C
    h, C, _ = _reduced_hom_counts(text, p, n)
    reduced = [x % p ** (2 * C - 1) for x in h]
    assert kern.hall_log_mod_residues(reduced, p, n) == kern.hall_log_mod_residues(h, p, n)


def test_hall_log_mod_residues_rejects_inexact_scaling(kern):
    # P = 1, D = 0: an odd h_N makes h_N / p^(w_(N-1)) inexact
    h, C, hred = _reduced_hom_counts("C[2]*C[16]", 2, 200)
    assert _plan(hred, 2, 200) == (1, 0)
    bad = h[:]
    bad[200] += 1
    assert _plan(bad, 2, 200) == (1, 0)
    with pytest.raises(ValueError, match="not integral at n=200"):
        kern.hall_log_mod_residues(bad, 2, 200)

    # D > 0: adding p^(w_(N-1) - 1) to h_N keeps the division by
    # p^(w_(N-1) - D) exact but leaves s_N with valuation -1, so the final
    # division by p^D is inexact
    h, C, hred = _reduced_hom_counts("C[4]*C[6]", 2, 200)
    P, D = _plan(hred, 2, 200)
    assert P > 1 and D > 0
    bad = h[:]
    bad[200] += 2 ** (C - 2)  # C - 1 = v_2(199!)
    assert _plan(bad, 2, 200) == (P, D)
    with pytest.raises(ValueError, match="not integral at n=200"):
        kern.hall_log_mod_residues(bad, 2, 200)

    # no 2-part: P = C and D = C - 1, so the leading term of n = N is
    # h_N * 2^(D - w_(N-1)) = h_N and the final division by 2^D = 2^(C-1)
    # is inexact for an odd h_N
    h, C, hred = _reduced_hom_counts("C[3]*C[9]", 2, 200)
    assert _plan(hred, 2, 200) == (C, C - 1)
    bad = h[:]
    bad[200] += 1
    with pytest.raises(ValueError, match="not integral at n=200"):
        kern.hall_log_mod_residues(bad, 2, 200)


# block lengths for the scaling exponents: one run per j, short runs that
# split at every step of delta, and the default
_BLOCKS = st.sampled_from(sorted({1, 2, 3, kernels._BLOCK}))
_GROUP_FACTORS = ["C[2]", "C[3]", "C[4]", "C[6]", "C[9]", "C[16]", "D[3]", "A[2;1,1]", "A[3;1,1]"]


@settings(deadline=None, max_examples=40)
@given(
    factors=st.lists(st.sampled_from(_GROUP_FACTORS), min_size=2, max_size=3),
    p=st.sampled_from([2, 3]),
    n=st.integers(1, 160),
    block=_BLOCKS,
)
@example(factors=["C[4]", "C[6]"], p=2, n=160, block=1)  # 1 < P < C
@example(factors=["C[3]", "C[9]"], p=2, n=130, block=3)  # no 2-part: P = C
@example(factors=["C[2]", "C[16]"], p=2, n=160, block=2)  # P = 1, D = 0
def test_hall_log_mod_residues_matches_exact_subgroup_counts(factors, p, n, block):
    from dworklab.groups import hom_count_ints_mod, parse_group_spec

    spec = parse_group_spec("*".join(factors))
    exact = subgroup_count_series(spec, n)
    C = kernels.log_residue_precision(n, p)
    h = hom_count_ints_mod(spec, n, p ** (2 * C - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        assert kernels.hall_log_mod_residues(h, p, n) == [x % p for x in exact]


@settings(deadline=None, max_examples=60)
@given(
    s=st.lists(st.integers(-60, 60), min_size=1, max_size=150),
    p=st.sampled_from([2, 3, 5, 7]),
    block=_BLOCKS,
)
def test_hall_log_mod_residues_inverts_hall_exp(s, p, block):
    # random integer s: h = hall_exp(s) exactly, then reduced to the 2C - 1
    # digits the kernel reads; its delta is mostly w, so D and P are large
    s = [0] + s
    n = len(s) - 1
    C = kernels.log_residue_precision(n, p)
    h = [x % p ** (2 * C - 1) for x in kernels.hall_exp(s, n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        assert kernels.hall_log_mod_residues(h, p, n) == [x % p for x in s]


def test_log_residue_precision(kern):
    # C = v_p((n-1)!) + 1, against the valuation of the factorial itself
    for p in (2, 3, 7):
        for n in (1, 10, 401):
            assert kern.log_residue_precision(n, p) == naive_vp(math.factorial(n - 1), p) + 1


def test_vp_int(kern):
    rng = random.Random(15)
    for p in (2, 3, 5, 97):
        for _ in range(50):
            unit = rng.randint(1, 10**12)
            while unit % p == 0:
                unit += 1
            v = rng.randint(0, 300)
            x = unit * p**v
            assert kern.vp_int(x, p) == v == naive_vp(x, p)
            assert kern.vp_int(-x, p) == v
    with pytest.raises(ValueError):
        kern.vp_int(0, 3)


@settings(deadline=None, max_examples=300)
@given(
    p=st.sampled_from([2, 3, 5, 7, 97]),
    unit=st.integers(-(10**80), 10**80).filter(bool),
    k=st.integers(0, 300),
)
def test_vp_int_matches_naive_strip(p, unit, k):
    # the unit may itself hold powers of p; the naive strip counts them too
    x = unit * p**k
    assert kernels.vp_int(x, p) == naive_vp(x, p)


def _klein_table():
    from dworklab.groups import _addition_table

    return _addition_table((1, 1), 2)


def test_subgroup_lattice_sizes_klein(kern):
    order, flat = _klein_table()
    assert kern.subgroup_lattice_sizes(order, 2, flat) == [1, 2, 2, 2, 4]
    for bad in (flat[:-1], flat + b"\0"):
        with pytest.raises(ValueError, match="wrong size"):
            kern.subgroup_lattice_sizes(order, 2, bad)


class _Untouchable:
    """A table that fails the test if the kernel reads it at all."""

    def __len__(self):
        raise AssertionError("table read before the order cap was checked")

    __getitem__ = __len__


def test_subgroup_lattice_sizes_order_cap(kern):
    for table in (bytes(257 * 257), _Untouchable()):
        with pytest.raises(ValueError, match="capped at order 256"):
            kern.subgroup_lattice_sizes(257, 257, table)


# padded odd orders 49, 121 and 169 (and 7, 11, 13 inside them), which the
# order-256 grid of the acceptance tests never reaches, and order 256 with
# no padding
LATTICE_CASES = [(p, parts) for p in (7, 11, 13) for parts in ((1, 1), (2,))] + [(2, (5, 3))]


@pytest.mark.parametrize(
    "p,parts", LATTICE_CASES, ids=[f"p{p}-" + ",".join(map(str, parts)) for p, parts in LATTICE_CASES]
)
def test_subgroup_lattice_sizes_match_formula(kern, p, parts):
    from dworklab.groups import PartitionType, _addition_table, abelian_subgroup_counts

    order, flat = _addition_table(parts, p)
    sizes = kern.subgroup_lattice_sizes(order, p, flat)
    assert sizes == sorted(sizes)
    counts = Counter(order // size for size in sizes)
    assert counts == dict(abelian_subgroup_counts(PartitionType(parts, p)).counts)
    for bad in (flat[:-1], flat + b"\0"):
        with pytest.raises(ValueError, match="wrong size"):
            kern.subgroup_lattice_sizes(order, p, bad)


def test_subgroup_lattice_sizes_c9(kern):
    from dworklab.groups import _addition_table

    order, flat = _addition_table((2,), 3)
    assert kern.subgroup_lattice_sizes(order, 3, flat) == [1, 3, 9]


def test_subgroup_lattice_sizes_elementary27(kern):
    from dworklab.groups import _addition_table

    order, flat = _addition_table((1, 1, 1), 3)
    sizes = kern.subgroup_lattice_sizes(order, 3, flat)
    # subspace counts of F_3^3: 1, 13, 13, 1
    assert sizes.count(1) == 1
    assert sizes.count(3) == 13
    assert sizes.count(9) == 13
    assert sizes.count(27) == 1
