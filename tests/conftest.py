"""Shared oracles and generators for the test suite.

The oracles deliberately avoid the library's own recurrences: the
polynomial exponential multiplies out sum S^k / k! term by term, the
involution recurrence is the classical two-term one, the permutation
counts enumerate S_n, the naive addition table adds digit tuples, and the
series repair acts on raw coefficient lists.
The Pochhammer loop, the kernel `dworklab.kernels.hall_exp`'s reference,
steps (n-k+1)_(k-1) through every k of every row.  The row loop, the
reference of `dworklab.kernels.hall_log_mod_residues`, forms every row's
sum term by term, on a loss profile Delta taken from its max-plus
definition over every j.
Dwork's gap series, the corrected tail coefficients and the index-p
normal subgroup count are restated from their definitions, sharing no
code with the hypothesis checker's private forms.
The exact hom counts and subgroup series of a group spec are the
exception: they run the library's exact transforms, and are the exact
twins the modular paths of `dworklab.groups` are checked against.  The
brute-force hom counts enumerate the tuples of permutations that satisfy
the group's relations, so they check those transforms and the subgroup
counts without the exponential principle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Iterator, Sequence

from dworklab.groups import GroupSpec, finite_subgroup_counts
from dworklab.kernels import hall_exp, log_residue_precision, vp_int
from dworklab.series import log_transform


def series_from_map(values: dict, n_max: int) -> list:
    """The log series s_0..s_{n_max}, zero off the keys of ``values``."""
    return [values.get(n, 0) for n in range(n_max + 1)]


def poly_mul_trunc(a: list[Fraction], b: list[Fraction], n_max: int) -> list[Fraction]:
    out = [Fraction(0)] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n_max:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def poly_exp_oracle(svals: list) -> list[Fraction]:
    """h_0..h_N from s_1..s_N by expanding exp(S) = sum_k S(z)^k / k!.

    ``svals`` is indexed by position (entry 0 ignored).  Independent of
    the production recurrence.
    """
    n_max = len(svals) - 1
    series = [Fraction(0)] * (n_max + 1)
    for i in range(1, n_max + 1):
        series[i] = Fraction(svals[i]) / i
    total = [Fraction(0)] * (n_max + 1)
    total[0] = Fraction(1)
    power = total[:]
    kfact = 1
    for k in range(1, n_max + 1):
        power = poly_mul_trunc(power, series, n_max)
        kfact *= k
        for idx in range(n_max + 1):
            if power[idx]:
                total[idx] += power[idx] / kfact
    fact = 1
    out = []
    for n in range(n_max + 1):
        out.append(total[n] * fact)
        fact *= n + 1
    return out


def hall_exp_pochhammer(s, nmax, modulus=None):
    """h_0..h_nmax by h_n = sum_k (n-k+1)_(k-1) s_k h_(n-k), stepping the
    Pochhammer factor through every k up to the last nonzero s_k; with a
    positive ``modulus``, the s_k and each finished h_n are reduced modulo
    it.  The recurrence as written, sharing no step with the kernel's
    Horner sum over the nonzero s_k."""
    if modulus is not None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        s = [x % modulus for x in s[: nmax + 1]]
    h = [0] * (nmax + 1)
    h[0] = 1 if modulus is None else 1 % modulus
    last = min(len(s) - 1, nmax)
    while last > 0 and not s[last]:
        last -= 1
    for n in range(1, nmax + 1):
        acc = 0
        poch = 1  # (n-k+1)_{k-1}
        for k in range(1, min(n, last) + 1):
            sk = s[k]
            if sk:
                acc += poch * sk * h[n - k]
            poch *= n - k
        h[n] = acc if modulus is None else acc % modulus
    return h


def precision_loss_definition(delta: Sequence[int], nmax: int) -> list[int]:
    """Delta_0..Delta_nmax by the max-plus recurrence as defined, over every k:
    Delta_0 = Delta_1 = 0 and Delta_n = max(0, max_(0<k<n) Delta_k + delta_(n-k))."""
    loss = [0] * (nmax + 1)
    for n in range(2, nmax + 1):
        loss[n] = max([0] + [loss[k] + delta[n - k] for k in range(1, n)])
    return loss


def precision_profile(hred: Sequence[int], p: int, nmax: int) -> tuple[list[int], list[int]]:
    """(delta, Delta) of the inverse transform from h modulo p**C:
    delta_j = max(0, v_p(j!) - v_p(h_j)) for 0 <= j < nmax, 0 where h_j
    vanishes modulo p**C, and Delta by `precision_loss_definition`."""
    delta = []
    for j in range(nmax):
        w = sum(j // p**i for i in range(1, j.bit_length() + 1))  # v_p(j!), Legendre
        delta.append(max(w - vp_int(hred[j], p), 0) if hred[j] else 0)
    return delta, precision_loss_definition(delta, nmax)


def hall_log_mod_residues_rows(h, p, nmax):
    """Residues of s_n modulo p from h, the kernel
    `dworklab.kernels.hall_log_mod_residues` as a row loop: row n sums its
    terms beta_j s_(n-j) for every j < n itself, by Horner over the runs of
    equal delta~ (the running maximum of delta), with one Python product
    per term.  Same plan, same row moduli and the same
    ``ValueError`` at the same n as the kernel."""
    C = log_residue_precision(nmax, p)
    modulus = p**C
    if len(h) <= nmax or h[0] % modulus != 1 % modulus:
        raise ValueError("h must cover 0..nmax and have h_0 = 1")
    delta, loss = precision_profile([x % modulus for x in h[: nmax + 1]], p, nmax)
    e = [0] + [1 + loss[nmax - n + 1] for n in range(1, nmax + 1)]
    # dt[j] = delta~_j; runs of equal delta~ as [first j, last j + 1, delta~]
    dt = list(accumulate(delta, max))
    runs = []
    for j, d in enumerate(dt):
        if runs and runs[-1][2] == d:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1, d])
    if runs:
        runs[0][0] = 1  # the sum over j starts at j = 1
    top = dt[-1] if dt else 0
    pw = [p**i for i in range(top + 1)]
    w, m = [], []
    wj = 0
    for j in range(nmax):
        mj = j or 1
        while mj % p == 0:
            wj += 1
            mj //= p
        w.append(wj)
        m.append(mj)
    mods = [p ** (e[j + 1] + dt[j]) for j in range(nmax)]
    work = p ** (e[1] + top) if nmax else 1  # p^(P+D), the widest of mods
    u = 1
    for mj in m:
        u = u * mj % work
    inv = [0] * nmax  # inv[j] = 1/u_j modulo mods[j]
    iu = pow(u, -1, work)
    for j in range(nmax - 1, -1, -1):
        inv[j] = iu % mods[j]
        iu = iu * m[j] % work

    def scaled(x, j):
        # x p^(delta~_j - w_j) / u_j modulo p^(e_(j+1) + delta~_j)
        shift = dt[j] - w[j]
        x %= p ** (e[j + 1] + w[j])
        if shift >= 0:
            x *= p**shift
        else:
            x, r = divmod(x, p**-shift)
            if r:
                raise ValueError(f"inverse transform not integral at n={j + 1}")
        return x * inv[j] % mods[j]

    beta = [scaled(h[j], j) for j in range(nmax)]
    s = [0] * (nmax + 1)  # s_n modulo p^(e_n)
    residues = [0] * (nmax + 1)
    for n in range(1, nmax + 1):
        acc = 0
        prev = 0
        for lo, hi, d in runs:
            if lo >= n:
                break
            hi = min(hi, n)
            tail = sum([x * y for x, y in zip(beta[lo:hi], s[n - lo : n - hi : -1])])
            acc = acc * pw[d - prev] + tail
            prev = d
        acc = (scaled(h[n], n - 1) - acc) % mods[n - 1]
        q, r = divmod(acc, pw[dt[n - 1]])
        if r:
            raise ValueError(f"inverse transform not integral at n={n}")
        s[n] = q
        residues[n] = q % p
    return residues


def involution_oracle(n_max: int) -> list[int]:
    """Counts of involutions in S_n via i_n = i_{n-1} + (n-1) i_{n-2}."""
    vals = [1, 1]
    for n in range(2, n_max + 1):
        vals.append(vals[n - 1] + (n - 1) * vals[n - 2])
    return vals[: n_max + 1]


@lru_cache(maxsize=None)
def _cycle_length_set_counts(n: int) -> tuple[tuple[frozenset[int], int], ...]:
    """For each set of cycle lengths, how many permutations of S_n show
    exactly that set.  Full enumeration of all n! permutations."""
    tally: dict[frozenset[int], int] = {}
    for perm in permutations(range(n)):
        seen = [False] * n
        lengths = set()
        for start in range(n):
            if seen[start]:
                continue
            size = 0
            node = start
            while not seen[node]:
                seen[node] = True
                node = perm[node]
                size += 1
            lengths.add(size)
        key = frozenset(lengths)
        tally[key] = tally.get(key, 0) + 1
    return tuple(tally.items())


def permutation_count_bruteforce(n: int, lengths: Sequence[int]) -> int:
    """Permutations of S_n (n <= 9) whose cycle lengths all lie in the set,
    by enumeration."""
    if n > 9:
        raise ValueError("brute force is capped at n = 9")
    if n < 0:
        raise ValueError("n must be non-negative")
    allowed = set(lengths)
    return sum(
        count
        for key, count in _cycle_length_set_counts(n)
        if key <= allowed
    )


def repaired_integer_series(rng, p: int, n_max: int, depth: int, magnitude: int = 40) -> list[int]:
    """Random integer coefficients with the gap series made p-integral
    through z^depth: for p | j <= depth, force s_j = s_{j/p} mod p^{v_p(j)}."""
    s = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        s[n] = rng.randint(-magnitude, magnitude)
    for j in range(1, min(depth, n_max) + 1):
        if j % p == 0:
            s[j] = s[j // p] + p ** vp_int(j, p) * rng.randint(-magnitude, magnitude)
    return s


def naive_vp(x: int, p: int) -> int:
    v = 0
    x = abs(x)
    while x and x % p == 0:
        v += 1
        x //= p
    return v


def dwork_gap(s: Sequence, p: int) -> dict[int, Fraction]:
    """Coefficients {j: g_j} of S(z^p) - p S(z) for 1 <= j <= N:
    g_j = -p s_j / j, plus p s_{j/p} / j when p divides j."""
    g = {}
    for j in range(1, len(s)):
        coeff = Fraction(-p, j) * s[j]
        if j % p == 0:
            coeff += Fraction(p, j) * s[j // p]
        g[j] = coeff
    return g


def lambda_sequence(s: Sequence, p: int, l: int) -> dict[int, Fraction]:
    """Corrected tail coefficients lambda_i for p^l < i <= N, restated from
    the definition: lambda_i = s_i when i / p^{v_p(i)} >= p^l; otherwise
    s_i - s_{i/p^e} with e minimal such that i / p^e < p^l."""
    pl = p**l
    if pl >= len(s):
        raise ValueError("p^l exceeds the truncation")
    lam = {}
    for i in range(pl + 1, len(s)):
        v = naive_vp(i, p)  # p^e divides i for every e <= v
        if i // p**v >= pl:
            lam[i] = s[i]
        else:
            e = min(e for e in range(v + 1) if i // p**e < pl)
            lam[i] = s[i] - s[i // p**e]
    return lam


def normal_count_index_p(rank: int, p: int) -> int:
    """(p^k - 1)/(p - 1): the number of index-p normal subgroups when the
    abelianized rank data sum to k = ``rank``; 0 when k = 0, else 1 mod p."""
    return (p**rank - 1) // (p - 1)


def addition_table_naive(parts: tuple[int, ...], p: int) -> tuple[int, bytes]:
    """``(order, table)`` of prod C_{p^{a_i}} in the encoding of
    `dworklab.groups._addition_table`, built entry by entry: decode both
    summands to digit tuples, add digitwise mod p^{a_i}, encode the sum."""
    moduli = [p**a for a in parts]
    order = 1
    for m in moduli:
        order *= m
    decode = []
    for idx in range(order):
        x = []
        rem = idx
        for m in moduli:
            x.append(rem % m)
            rem //= m
        decode.append(tuple(x))
    encode = {x: i for i, x in enumerate(decode)}
    flat = bytearray(order * order)
    for i in range(order):
        base = i * order
        for j in range(order):
            flat[base + j] = encode[
                tuple((a + b) % m for a, b, m in zip(decode[i], decode[j], moduli))
            ]
    return order, bytes(flat)


def dihedral_subgroup_counts_oracle(m: int) -> dict[int, int]:
    """Index -> number of subgroups of the symmetry group of a regular m-gon,
    the dihedral group of order 2m (faithful on the vertices for m >= 3).

    The group is generated as permutations of the vertices 0..m-1 (a
    rotation and a reflection, composed as tuples); its subgroups are
    found by closing every subgroup with one extra element at a time,
    starting from the trivial group.  No formula for the counts is used.
    """

    def compose(a: tuple, b: tuple) -> tuple:
        return tuple(a[i] for i in b)

    def close(gens: set) -> frozenset:
        elems = set(gens)
        while True:
            more = {compose(a, b) for a in elems for b in elems} | elems
            if more == elems:
                return frozenset(elems)
            elems = more

    identity = tuple(range(m))
    rotation = tuple((i + 1) % m for i in range(m))
    reflection = tuple(-i % m for i in range(m))
    group = close({identity, rotation, reflection})
    subgroups = {frozenset([identity])}
    frontier = set(subgroups)
    while frontier:
        grown = {close(set(h) | {g}) for h in frontier for g in group if g not in h}
        frontier = grown - subgroups
        subgroups |= frontier
    counts: dict[int, int] = {}
    for h in subgroups:
        index = len(group) // len(h)
        counts[index] = counts.get(index, 0) + 1
    return counts


def partitions_of(weight: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing partitions of the given weight: the Abelian
    p-group types the tests sweep."""
    if weight == 0:
        yield ()
        return
    cap = weight if max_part is None else min(max_part, weight)
    for first in range(cap, 0, -1):
        for rest in partitions_of(weight - first, first):
            yield (first,) + rest


def hom_count_ints(factors: tuple[GroupSpec, ...], n_max: int) -> list[int]:
    """h_0..h_{n_max} of the free product of ``factors`` as exact integers:
    the pointwise product of its factors' counts."""
    hs = [hall_exp(finite_subgroup_counts(f).values(n_max)) for f in factors]
    return [math.prod(col) for col in zip(*hs)]


@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


def _compose(a: tuple, b: tuple) -> tuple:
    """a after b."""
    return tuple(a[i] for i in b)


def _power_is_identity(x: tuple, k: int) -> bool:
    y = x
    for _ in range(k - 1):
        y = _compose(x, y)
    return y == tuple(range(len(x)))


def _finite_hom_count_bruteforce(spec: GroupSpec, n: int) -> int:
    perms = _symmetric_group(n)
    if spec.variant == "dihedral":
        # pairs (r, s) with r^m = s^2 = 1 and s r s = r^-1
        m = spec.order_param
        inverse = {x: tuple(sorted(range(n), key=x.__getitem__)) for x in perms}
        rs = [x for x in perms if _power_is_identity(x, m)]
        ss = [x for x in perms if _power_is_identity(x, 2)]
        return sum(_compose(_compose(s, r), s) == inverse[r] for r in rs for s in ss)
    # r-tuples of pairwise commuting x_i with x_i^(p^(a_i)) = 1
    p = spec.partition.p
    choices = [[x for x in perms if _power_is_identity(x, p**a)] for a in spec.partition.parts]

    def tuples(i: int, chosen: list) -> int:
        if i == len(choices):
            return 1
        return sum(
            tuples(i + 1, chosen + [x])
            for x in choices[i]
            if all(_compose(x, y) == _compose(y, x) for y in chosen)
        )

    return tuples(0, [])


def hom_count_bruteforce(factors: tuple[GroupSpec, ...], n_max: int) -> list[int]:
    """|Hom(G, S_n)| for 0 <= n <= n_max by enumerating the images of the
    generators in S_n (n_max <= 6 runs in well under a second); a free
    product's counts are the pointwise product of its factors' counts."""
    return [
        math.prod(_finite_hom_count_bruteforce(f, n) for f in factors) for n in range(n_max + 1)
    ]


def subgroup_count_series(factors: tuple[GroupSpec, ...], n_max: int) -> list[int]:
    """s_0..s_{n_max} exactly; for free products recovered by the exact
    inverse transform of `hom_count_ints`."""
    if len(factors) == 1:
        return finite_subgroup_counts(factors[0]).values(n_max)
    s = log_transform(hom_count_ints(factors, n_max))
    if not all(type(c) is int for c in s):
        raise ValueError("inverse transform of the hom counts is not integral")
    return s
