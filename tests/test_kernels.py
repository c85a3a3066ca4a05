"""Kernel tests: each kernel is checked against an independent oracle or
known counts."""

import itertools
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    hall_exp_pochhammer,
    hall_log_mod_residues_rows,
    hom_count_ints,
    involution_oracle,
    naive_vp,
    poly_exp_oracle,
    precision_loss_definition,
    series_from_map,
    subgroup_count_series,
)
from dworklab import kernels
from dworklab.exactcore import legendre_valuation


def test_hall_exp_matches_polynomial_exponential():
    rng = random.Random(11)
    for _ in range(5):
        svals = [0] + [rng.randint(-9, 9) for _ in range(40)]
        expected = poly_exp_oracle(svals)
        got = kernels.hall_exp(svals)
        assert all(e.denominator == 1 for e in expected)
        assert got == [e.numerator for e in expected]


def test_hall_exp_involutions():
    h = kernels.hall_exp(series_from_map({1: 1, 2: 1}, 100))
    assert h == involution_oracle(100)


def test_hall_exp_short_series():
    # the list holds N = len(s) - 1: h has as many entries as s, and the
    # empty list, which has no s_0, has no h_0 either
    assert kernels.hall_exp([0, 1]) == [1, 1]
    assert kernels.hall_exp([0]) == [1]
    with pytest.raises(ValueError, match="empty"):
        kernels.hall_exp([])
    # a modulus is passed by keyword, so an N passed the old way fails
    with pytest.raises(TypeError):
        kernels.hall_exp([0, 1], 5)


# the modular path of hall_exp against its own exact path, at 80 terms
def test_hall_exp_mod_matches_exact():
    rng = random.Random(13)
    svals = [0] + [rng.randint(-30, 30) for _ in range(80)]
    h = kernels.hall_exp(svals)
    for modulus in (2**20, 3**13, 997):
        assert kernels.hall_exp(svals, modulus=modulus) == [x % modulus for x in h]


def test_hall_exp_rejects_nonpositive_modulus():
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            kernels.hall_exp([0, 1, 1], modulus=modulus)


@st.composite
def _exp_inputs(draw):
    """(s, N) with s indexed by position; its last nonzero index lies
    below or above N/4, or past N, or s is all zero.  The kernel gets s
    cut or padded with zeros to s_0..s_N."""
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
    assert kernels.hall_exp(padded, modulus=modulus) == expected


@st.composite
def _support_cases(draw):
    """(s, N, modulus) with s dense, gapped (a fixed stride) or wide (a few
    indices spread up to past N), or empty; where a modulus is drawn, some
    nonzero s_k may be multiples of it."""
    nmax = draw(st.integers(0, 300))
    modulus = draw(st.sampled_from([None, 1, 2, 7, 3**5, 2**64, 2**64 + 13, 5**90]))
    shape = draw(st.sampled_from(["dense", "gapped", "wide", "empty"]))
    if shape == "empty":
        return [], nmax, modulus
    length = draw(st.integers(2, nmax + 40))  # may run past N
    if shape == "dense":
        support = range(1, length)
    elif shape == "gapped":
        support = range(draw(st.integers(1, 4)), length, draw(st.integers(2, 24)))
    else:
        support = draw(st.sets(st.integers(1, length - 1), min_size=1, max_size=8))
    rng = draw(st.randoms(use_true_random=False))
    s = [0] * length
    for k in support:
        s[k] = rng.randint(-(10**6), 10**6)
        if modulus is not None and rng.random() < 0.25:
            s[k] *= modulus  # vanishes modulo the modulus
    return s, nmax, modulus


# the Horner kernel against the row-by-row Pochhammer loop, at N up to 300
@settings(deadline=None, max_examples=200)
@given(_support_cases())
@example(([], 5, None))
@example(([], 5, 7))
@example(([0] + [3] * 60, 40, 3**5))  # dense, support past N
@example(([0, 1] + [0] * 62 + [5], 120, None))  # one gap of 63
@example(([0, 0, 7, 0, 14, 0, 21, 1], 30, 7))  # all but s_7 vanish mod 7
@example(([0] + [(7 * k * k) % 201 - 100 for k in range(1, 321)], 300, None))  # dense, wide
@example(([0] + [(7 * k * k) % 201 - 100 for k in range(1, 321)], 300, 5**90))
@example(([0, -3] + [0] * 80 + [-5], 200, 2**40))  # a power of two, masked after a gap of 81
def test_hall_exp_matches_pochhammer_loop(case):
    s, nmax, modulus = case
    fitted = series_from_map(dict(enumerate(s)), nmax)  # s cut or padded to s_0..s_N
    assert kernels.hall_exp(fitted, modulus=modulus) == hall_exp_pochhammer(s, nmax, modulus)


# support on the powers p^0..p^w, as for an Abelian p-group of weight w;
# the top gaps exceed 64, so the modular kernel reduces its running sum
# inside the row
@pytest.mark.parametrize(
    "p, w, nmax, modulus",
    [(2, 8, 300, 2**150), (3, 5, 300, 3**90), (5, 3, 200, 7**40 + 2), (2, 8, 260, 10**30 + 57)],
)
def test_hall_exp_mod_reduces_across_wide_gaps(p, w, nmax, modulus):
    s = [0] * (p**w + 1)
    for i in range(w + 1):
        s[p**i] = w + 1 - i
    assert p**w <= nmax and p**w - p ** (w - 1) > 64
    exact = hall_exp_pochhammer(s, nmax)
    assert kernels.hall_exp(s + [0] * (nmax - p**w), modulus=modulus) == [x % modulus for x in exact]


def test_hall_log_mod_residues_matches_exact():
    rng = random.Random(14)
    for p in (2, 3, 5):
        svals = [0] + [rng.randint(-50, 50) for _ in range(80)]
        h = kernels.hall_exp(svals)
        residues = kernels.hall_log_mod_residues(h, p)
        assert residues == [x % p for x in svals]
        C = kernels.log_residue_precision(80, p)
        # the single scaled path is always feasible
        P, D = _plan([x % p**C for x in h], p, 80)
        assert 1 <= P <= C and 0 <= D <= C - 1
        # h reduced modulo p**(2C - 1) must give the same answer
        reduced = [x % p ** (2 * C - 1) for x in h]
        assert kernels.hall_log_mod_residues(reduced, p) == residues


def _plan(hred, p, n):
    """(P, D) of `kernels._precision_plan`'s profile: 1 + Delta_N and max delta."""
    delta, loss = kernels._precision_plan(hred, p, kernels._factorial_parts(p, n)[0])
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
    delta, loss = kernels._precision_plan(hred, p, kernels._factorial_parts(p, n)[0])
    e = [None] + [1 + loss[n - k + 1] for k in range(1, n + 1)]
    assert (e[1], e[n]) == (_plan(hred, p, n)[0], 1)
    assert all(e[k] >= e[k + 1] for k in range(1, n))
    for j, d in enumerate(delta):
        if d:
            assert all(e[m - j] >= e[m] + d for m in range(j + 1, n + 1)), (j, d)


@pytest.mark.parametrize("text, p, n", [case[:3] for case in _PLAN_CASES])
def test_hall_log_mod_residues_reads_2c_minus_1_digits(text, p, n):
    # exact h and h modulo p**(2C - 1) give the same residues at P = 1,
    # at P > 1 and at P = C
    h, C, _ = _reduced_hom_counts(text, p, n)
    reduced = [x % p ** (2 * C - 1) for x in h]
    assert kernels.hall_log_mod_residues(reduced, p) == kernels.hall_log_mod_residues(h, p)


def test_hall_log_mod_residues_rejects_inexact_scaling():
    # P = 1, D = 0: an odd h_N makes h_N / p^(w_(N-1)) inexact
    h, C, hred = _reduced_hom_counts("C[2]*C[16]", 2, 200)
    assert _plan(hred, 2, 200) == (1, 0)
    bad = h[:]
    bad[200] += 1
    assert _plan(bad, 2, 200) == (1, 0)
    with pytest.raises(ValueError, match="not integral at n=200"):
        kernels.hall_log_mod_residues(bad, 2)

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
        kernels.hall_log_mod_residues(bad, 2)

    # no 2-part: P = C and D = C - 1, so the leading term of n = N is
    # h_N * 2^(D - w_(N-1)) = h_N and the final division by 2^D = 2^(C-1)
    # is inexact for an odd h_N
    h, C, hred = _reduced_hom_counts("C[3]*C[9]", 2, 200)
    assert _plan(hred, 2, 200) == (C, C - 1)
    bad = h[:]
    bad[200] += 1
    with pytest.raises(ValueError, match="not integral at n=200"):
        kernels.hall_log_mod_residues(bad, 2)


@pytest.mark.parametrize("p", [2, 3])  # the mask path and the % path
def test_hall_log_mod_residues_checks_its_input(p):
    nmax = 40
    s = [0] + [k % 7 - 3 for k in range(1, nmax + 1)]
    h = kernels.hall_exp(s)
    message = "h must hold h_0..h_N, N >= 0, with h_0 = 1"
    with pytest.raises(ValueError, match=message):
        kernels.hall_log_mod_residues([], p)
    with pytest.raises(ValueError, match=message):
        kernels.hall_log_mod_residues([2] + h[1:], p)
    # h_0 is read modulo p**C
    C = kernels.log_residue_precision(nmax, p)
    assert kernels.hall_log_mod_residues([1 + p**C] + h[1:], p) == [x % p for x in s]


_GROUP_FACTORS = ["C[2]", "C[3]", "C[4]", "C[6]", "C[9]", "C[16]", "D[3]", "A[2;1,1]", "A[3;1,1]"]


@settings(deadline=None, max_examples=40)
@given(
    factors=st.lists(st.sampled_from(_GROUP_FACTORS), min_size=2, max_size=3),
    p=st.sampled_from([2, 3]),
    n=st.integers(1, 160),
)
@example(factors=["C[4]", "C[6]"], p=2, n=160)  # 1 < P < C
@example(factors=["C[3]", "C[9]"], p=2, n=130)  # no 2-part: P = C
@example(factors=["C[2]", "C[16]"], p=2, n=160)  # P = 1, D = 0
def test_hall_log_mod_residues_matches_exact_subgroup_counts(factors, p, n):
    from dworklab.groups import hom_count_ints_mod, parse_group_spec

    spec = parse_group_spec("*".join(factors))
    exact = subgroup_count_series(spec, n)
    C = kernels.log_residue_precision(n, p)
    h = hom_count_ints_mod(spec, n, p ** (2 * C - 1))
    assert kernels.hall_log_mod_residues(h, p) == [x % p for x in exact]


@settings(deadline=None, max_examples=60)
@given(
    s=st.lists(st.integers(-60, 60), min_size=1, max_size=150),
    p=st.sampled_from([2, 3, 5, 7]),
)
def test_hall_log_mod_residues_inverts_hall_exp(s, p):
    # random integer s: h = hall_exp(s) exactly, then reduced to the 2C - 1
    # digits the kernel reads; its delta is mostly w, so D and P are large
    s = [0] + s
    n = len(s) - 1
    C = kernels.log_residue_precision(n, p)
    h = [x % p ** (2 * C - 1) for x in kernels.hall_exp(s)]
    assert kernels.hall_log_mod_residues(h, p) == [x % p for x in s]


@st.composite
def _delta_profiles(draw):
    """(hred, p, N, delta): h modulo p**C built so that its loss profile is
    a drawn delta, with 0 <= delta_j <= w_j = v_p(j!); h_j = 0 gives
    delta_j = 0.  The draws give flat, sparse and stepped profiles."""
    p = draw(st.sampled_from([2, 3, 5]))
    nmax = draw(st.integers(0, 200))
    C = kernels.log_residue_precision(nmax, p)
    shape = draw(st.sampled_from(["full", "sparse", "random", "zero"]))
    rng = draw(st.randoms(use_true_random=False))
    hred, delta = [1 % p**C], [0]
    w = 0
    for j in range(1, nmax):
        w += naive_vp(j, p)
        if shape == "full":
            d = w
        elif shape == "sparse":
            d = w if rng.random() < 0.05 else 0
        elif shape == "random":
            d = rng.randint(0, w)
        else:
            d = 0
        unit = rng.randrange(1, p**3)
        while unit % p == 0:
            unit += 1
        # h_j of valuation w - d; a vanishing h_j where delta_j = 0 is drawn
        x = 0 if d == 0 and rng.random() < 0.3 else unit * p ** (w - d) % p**C
        hred.append(x)
        delta.append(d)
    return hred + [rng.randrange(p**C)], p, nmax, delta[:nmax]


@settings(deadline=None, max_examples=60)
@given(_delta_profiles())
# part 5 (delta_5 = 2) is beaten by two copies of part 2 (Delta_6 = 2), so
# both a kept and a dropped part occur
@example(case=([1, 1, 1, 2, 8, 2, 16, 16, 1], 2, 8, [0, 0, 1, 0, 0, 2, 0, 0]))
def test_precision_plan_matches_max_plus_definition(case):
    # the kept parts give the Delta of the recurrence over every j, and the
    # scaling exponents are the running maximum of delta, at most w_j
    hred, p, nmax, delta = case
    w = kernels._factorial_parts(p, nmax)[0]
    dt, loss = kernels._precision_plan(hred, p, w)
    assert dt == list(itertools.accumulate(delta, max))
    assert all(d <= wj for d, wj in zip(dt, w))
    assert loss == precision_loss_definition(delta, nmax)


def _outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# (_NEAR, _CAP): the small ones run every level below the cap and several
# blocks [c _CAP, (c+1) _CAP) at the cap within N <= 300; (32, 256) is the default
_SCHEDULES = st.sampled_from([(1, 1), (1, 4), (2, 2), (2, 16), (4, 32), (8, 16), (32, 256)])


@st.composite
def _log_inputs(draw):
    """(h, p, N) for the inverse transform: h of a dense or gapped integer
    s, or the hom counts of a free product (P = 1 or 1 < P < C when it has
    a p-part, P = C when it has none), reduced modulo p**(2C - 1); some are
    then made inexact at one index by adding a power of p."""
    kind = draw(st.sampled_from(["dense", "gapped", "group"]))
    nmax = draw(st.integers(1, 300))
    if kind == "group":
        from dworklab.groups import hom_count_ints_mod, parse_group_spec

        p = draw(st.sampled_from([2, 3]))
        factors = draw(st.lists(st.sampled_from(_GROUP_FACTORS), min_size=2, max_size=3))
        C = kernels.log_residue_precision(nmax, p)
        h = hom_count_ints_mod(parse_group_spec("*".join(factors)), nmax, p ** (2 * C - 1))
    else:
        p = draw(st.sampled_from([2, 3, 5]))
        rng = draw(st.randoms(use_true_random=False))
        stride = 1 if kind == "dense" else draw(st.integers(2, 40))
        s = [0] * (nmax + 1)
        for k in range(1, nmax + 1, stride):
            s[k] = rng.randint(-(10**4), 10**4)
        C = kernels.log_residue_precision(nmax, p)
        h = [x % p ** (2 * C - 1) for x in kernels.hall_exp(s)]
    if draw(st.booleans()):
        at = draw(st.integers(1, nmax))
        h[at] += p ** draw(st.integers(0, 2 * C))
    return h, p, nmax


def _bumped_hom_counts(text, p, n, at):
    h = _reduced_hom_counts(text, p, n)[0]
    h[at] += 1
    return h


# operand bits from which block products go through GMP: always, the
# default, or never (the int product)
_GMP_THRESHOLDS = st.sampled_from([0, kernels._GMP_BITS, math.inf])


@settings(deadline=None, max_examples=60)
@given(case=_log_inputs(), schedule=_SCHEDULES, gmp_bits=_GMP_THRESHOLDS, libgmp=st.booleans())
@example(  # no 2-part: P = C; levels 4, 8 and 16, and eight blocks at the cap
    case=(_reduced_hom_counts("C[3]*C[9]", 2, 300)[0], 2, 300), schedule=(4, 32), gmp_bits=0, libgmp=True
)
@example(  # libgmp absent: every block takes the int product
    case=(_reduced_hom_counts("C[3]*C[9]", 2, 300)[0], 2, 300), schedule=(4, 32), gmp_bits=0, libgmp=False
)
@example(
    case=(_reduced_hom_counts("C[4]*C[6]", 2, 300)[0], 2, 300),
    schedule=(2, 16),
    gmp_bits=math.inf,
    libgmp=True,
)
@example(
    case=(_reduced_hom_counts("C[2]*C[16]", 2, 300)[0], 2, 300), schedule=(1, 4), gmp_bits=0, libgmp=True
)
@example(  # h_150 made odd: both raise at n = 150, which far terms reach
    case=(_bumped_hom_counts("C[2]*C[16]", 2, 300, 150), 2, 300), schedule=(8, 16), gmp_bits=0, libgmp=True
)
@example(  # p = 3 at the default schedule, every block product through GMP
    case=(_reduced_hom_counts("C[2]*C[4]*A[2;1,1]", 3, 300)[0], 3, 300),
    schedule=(32, 256),
    gmp_bits=0,
    libgmp=True,
)
def test_hall_log_mod_residues_matches_row_loop(case, schedule, gmp_bits, libgmp):
    # the block products, through int or GMP, against the row loop that
    # forms every product itself: the same residues, or the same ValueError
    # at the same n; with the loader made to fail, wide blocks take the int
    # product
    h, p, nmax = case
    expected = _outcome(hall_log_mod_residues_rows, h, p, nmax)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_NEAR", schedule[0])
        mp.setattr(kernels, "_CAP", schedule[1])
        mp.setattr(kernels, "_GMP_BITS", gmp_bits)
        if not libgmp:
            mp.setattr(kernels, "_gmp_product", lambda: None)
        assert _outcome(kernels.hall_log_mod_residues, h, p) == expected


def _gmp_or_skip():
    gmp = kernels._gmp_product()
    if gmp is None:
        pytest.skip("libgmp.so.10 does not load")
    return gmp


@pytest.mark.parametrize(
    "x, y",
    [
        (0, 0),
        (0, 3**200),
        (1, 2**64 - 1),
        (2**64 - 1, 2**64 - 1),
        (2**640 - 1, 2**64 + 1),
        (7**500, 5**30),
        (255, 2**100 - 1),
        (2**56 - 1, 2**72 - 1),
    ],
)
def test_gmp_product_matches_int_product(x, y):
    gmp = _gmp_or_skip()
    # each operand in the fewest whole units that hold it (one for 0): of
    # one byte, as `_block_product` packs, so most lengths are not whole
    # 8-byte limbs, or of 8 bytes, so 2^64 - 1 and 2^640 - 1 fill their top
    # limb and the product can reach the last byte it returns; each pair
    # in both orders, since GMP takes the longer operand first
    for unit in (1, 8):
        xa = x.to_bytes(max(-(-x.bit_length() // (8 * unit)), 1) * unit, "little")
        xb = y.to_bytes(max(-(-y.bit_length() // (8 * unit)), 1) * unit, "little")
        limbs = -(-len(xa) // 8) + -(-len(xb) // 8)
        for u, v in ((xa, xb), (xb, xa)):
            prod = gmp(u, v)
            assert len(prod) == 8 * limbs
            assert int.from_bytes(prod, "little") == x * y
        # GMP wrote nothing to its sources
        assert (int.from_bytes(xa, "little"), int.from_bytes(xb, "little")) == (x, y)


def _convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# (len(a), len(b), slot bits): one-slot blocks, blocks of unequal length,
# and slots of 7, 15, 63 and 127 bits, which fill their top byte, or of 8,
# 16, 64 and 128 bits, which open one more; most blocks pack to a length
# that is not whole 8-byte limbs
@pytest.mark.parametrize(
    "la, lb, bits",
    [
        (1, 1, 7),
        (3, 5, 8),
        (9, 2, 15),
        (13, 13, 16),
        (1, 1, 63),
        (1, 1, 64),
        (1, 40, 127),
        (40, 3, 128),
        (32, 32, 63),
        (256, 256, 127),
        (5, 200, 301),
        (7, 3, 301),
    ],
)
@pytest.mark.parametrize("fill", ["zero", "ones", "random"])
def test_block_product_matches_the_convolution(la, lb, bits, fill):
    # entries of ea and eb bits with ea + eb + bit_length(lb) = bits, as
    # `hall_log_mod_residues` sizes its slots; "ones" makes the top slots
    # as wide as that allows, and "zero" makes block a all zeros
    gmp = _gmp_or_skip()
    eb = (bits - lb.bit_length()) // 2
    ea = bits - lb.bit_length() - eb
    rng = random.Random(bits * la + lb)
    a = {"zero": [0] * la, "ones": [2**ea - 1] * la, "random": [rng.getrandbits(ea) for _ in range(la)]}[fill]
    b = [2**eb - 1] * lb if fill == "ones" else [rng.getrandbits(eb) for _ in range(lb)]
    expected = _convolution(a, b)
    assert max(expected) < 2**bits
    for slots in (len(expected), min(len(expected), 3)):
        assert kernels._block_product(a, b, bits, slots, gmp) == expected[:slots]
        assert kernels._block_product(a, b, bits, slots, None) == expected[:slots]


def test_gmp_product_needs_little_endian_limbs(monkeypatch):
    # `mpn_mul` reads the packed bytes as limbs, so on a big-endian host the
    # loader gives None and every block takes the int product
    _gmp_or_skip()
    monkeypatch.setattr(sys, "byteorder", "big")
    assert kernels._gmp_product() is None
    h = _reduced_hom_counts("C[3]*C[9]", 2, 300)[0]
    monkeypatch.setattr(kernels, "_NEAR", 4)
    monkeypatch.setattr(kernels, "_CAP", 32)
    monkeypatch.setattr(kernels, "_GMP_BITS", 0)
    assert kernels.hall_log_mod_residues(h, 2) == hall_log_mod_residues_rows(h, 2, 300)


def test_decimal_products_keep_slots_under_the_digit_cap(monkeypatch):
    # (named for the decimal product that GMP replaced) one transform mixes
    # both products: blocks of fewer than _GMP_BITS operand bits take the
    # int product, the rest GMP, and the residues are the row loop's
    _gmp_or_skip()
    h = _reduced_hom_counts("C[3]*C[9]", 2, 300)[0]  # operands of 36 to 15,392 bits
    expected = hall_log_mod_residues_rows(h, 2, 300)
    taken = []  # (operand bits of block b, the GMP product or None)
    block_product = kernels._block_product

    def spy(a, b, bits, slots, gmp):
        taken.append((len(b) * bits, gmp))
        return block_product(a, b, bits, slots, gmp)

    monkeypatch.setattr(kernels, "_block_product", spy)
    monkeypatch.setattr(kernels, "_NEAR", 4)
    monkeypatch.setattr(kernels, "_CAP", 32)
    assert kernels.hall_log_mod_residues(h, 2) == expected
    assert {prod is None for _, prod in taken} == {True, False}
    assert all((prod is None) == (width < kernels._GMP_BITS) for width, prod in taken)


def test_decimal_products_respect_a_lowered_int_str_limit(monkeypatch):
    # (named for the decimal product that GMP replaced) the kernel converts
    # no int to or from str: at 640 digits, the least limit CPython allows,
    # slots of more than 640 digits give the residues of the default limit,
    # through GMP and through the int product
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit before Python 3.11")
    h = _reduced_hom_counts("C[3]*C[9]", 2, 1200)[0]
    expected = kernels.hall_log_mod_residues(h, 2)
    widest = []
    block_product = kernels._block_product

    def spy(a, b, bits, slots, gmp):
        widest.append(bits)
        return block_product(a, b, bits, slots, gmp)

    monkeypatch.setattr(kernels, "_block_product", spy)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert kernels.hall_log_mod_residues(h, 2) == expected
        monkeypatch.setattr(kernels, "_GMP_BITS", math.inf)
        assert kernels.hall_log_mod_residues(h, 2) == expected
    finally:
        sys.set_int_max_str_digits(limit)
    # slots wider than 2,200 bits hold more than 640 decimal digits (2,127 bits)
    assert max(widest) > 2200


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("stop", [0, 1, 2, 5, 30, 200])
def test_factorial_parts_split_j_factorial(p, stop):
    # j! = u_j p^(w_j) with u_j = m_0 ... m_j prime to p
    w, m = kernels._factorial_parts(p, stop)
    assert len(w) == len(m) == stop
    for j in range(stop):
        u = math.prod(m[: j + 1])
        assert u * p ** w[j] == math.factorial(j)
        assert u % p
    assert (w[-1] if w else 0) + 1 == kernels.log_residue_precision(stop, p)


def test_log_residue_precision():
    # C = v_p((n-1)!) + 1, against the valuation of the factorial itself
    for p in (2, 3, 7):
        for n in (1, 10, 401):
            assert kernels.log_residue_precision(n, p) == naive_vp(math.factorial(n - 1), p) + 1
    # and against Legendre's sum; C = 1 for n <= 0, where (n-1)! is undefined
    for p in (2, 3, 5, 7):
        for n in range(-3, 1):
            assert kernels.log_residue_precision(n, p) == 1
        for n in range(1, 1001):
            assert kernels.log_residue_precision(n, p) == legendre_valuation(n - 1, p) + 1


def test_floor_sum_matches_the_direct_sum():
    for p in (2, 3, 5, 7):
        for lo in (1, 2, 3):
            for hi in (None, lo - 1, lo, lo + 2):
                last = 12 if hi is None else hi  # p^12 > 3000
                for n in range(3001):
                    direct = sum(n // p**s for s in range(lo, last + 1))
                    assert kernels.floor_sum(n, p, lo, hi) == direct, (n, p, lo, hi)
    with pytest.raises(ValueError, match="non-negative"):
        kernels.floor_sum(-1, 2)
    # p < 2 would loop forever or divide by zero; the callers that take p
    # pass it on, and raise the same error
    for p in (-2, 0, 1):
        for call in (
            lambda: kernels.floor_sum(5, p),
            lambda: kernels.log_residue_precision(10, p),
            lambda: kernels.hall_log_mod_residues([1, 1, 2], p),
        ):
            with pytest.raises(ValueError, match="at least 2"):
                call()


def test_vp_int():
    rng = random.Random(15)
    for p in (2, 3, 5, 97):
        for _ in range(50):
            unit = rng.randint(1, 10**12)
            while unit % p == 0:
                unit += 1
            v = rng.randint(0, 300)
            x = unit * p**v
            assert kernels.vp_int(x, p) == v == naive_vp(x, p)
            assert kernels.vp_int(-x, p) == v
    with pytest.raises(ValueError):
        kernels.vp_int(0, 3)
    for p in (-2, 0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            kernels.vp_int(5, p)


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


def test_subgroup_lattice_sizes_klein():
    order, flat = _klein_table()
    assert kernels.subgroup_lattice_sizes(order, 2, flat) == [1, 2, 2, 2, 4]
    for bad in (flat[:-1], flat + b"\0"):
        with pytest.raises(ValueError, match="wrong size"):
            kernels.subgroup_lattice_sizes(order, 2, bad)
    for p in (-2, 0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            kernels.subgroup_lattice_sizes(order, p, flat)


class _Untouchable:
    """A table that fails the test if the kernel reads it at all."""

    def __len__(self):
        raise AssertionError("table read before the order cap was checked")

    __getitem__ = __len__


def test_subgroup_lattice_sizes_order_cap():
    for table in (bytes(257 * 257), _Untouchable()):
        with pytest.raises(ValueError, match="capped at order 256"):
            kernels.subgroup_lattice_sizes(257, 257, table)


# padded odd orders 49, 121 and 169 (and 7, 11, 13 inside them), which the
# order-256 grid of the acceptance tests never reaches, and order 256 with
# no padding
LATTICE_CASES = [(p, parts) for p in (7, 11, 13) for parts in ((1, 1), (2,))] + [(2, (5, 3))]


@pytest.mark.parametrize(
    "p,parts", LATTICE_CASES, ids=[f"p{p}-" + ",".join(map(str, parts)) for p, parts in LATTICE_CASES]
)
def test_subgroup_lattice_sizes_match_formula(p, parts):
    from dworklab.groups import PartitionType, _addition_table, abelian_subgroup_counts

    order, flat = _addition_table(parts, p)
    sizes = kernels.subgroup_lattice_sizes(order, p, flat)
    assert sizes == sorted(sizes)
    counts = Counter(order // size for size in sizes)
    assert counts == dict(abelian_subgroup_counts(PartitionType(parts, p)).counts)
    for bad in (flat[:-1], flat + b"\0"):
        with pytest.raises(ValueError, match="wrong size"):
            kernels.subgroup_lattice_sizes(order, p, bad)


def test_subgroup_lattice_sizes_c9():
    from dworklab.groups import _addition_table

    order, flat = _addition_table((2,), 3)
    assert kernels.subgroup_lattice_sizes(order, 3, flat) == [1, 3, 9]


def test_subgroup_lattice_sizes_elementary27():
    from dworklab.groups import _addition_table

    order, flat = _addition_table((1, 1, 1), 3)
    sizes = kernels.subgroup_lattice_sizes(order, 3, flat)
    # subspace counts of F_3^3: 1, 13, 13, 1
    assert sizes.count(1) == 1
    assert sizes.count(3) == 13
    assert sizes.count(9) == 13
    assert sizes.count(27) == 1
