"""Exact subgroup-count sequences for finite Abelian p-groups, cyclic and
dihedral groups, and free products of such groups.

The production path counts subgroups of each type inside an Abelian
p-group of type mu with the conjugate-partition formula

    #(subgroups of type nu)
        = prod_i p^{nu'_{i+1} (mu'_i - nu'_i)}
                 * [mu'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_p,

summed over subgroup types of each size and converted to index counts.
`SubgroupCounts.values(N)` is the log series [s_0, ..., s_N], s_n the
number of subgroups of index n, in the list format that `kernels.hall_exp`
and `dworklab.series` take.  A brute-force enumerator serves as ground
truth: it builds the group's addition table from one byte translate table
per cyclic generator, and closes subgroups one coset at a time (hard size
cap 256, so that every element fits in a byte).  Free products are
represented through their homomorphism-count sequences, which multiply
pointwise; their subgroup counts are recovered modulo p by the inverse
transform.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, NamedTuple

from . import kernels
from .bounds import partition_case
from .exactcore import check_prime, gauss_binom_at, vp

ABELIAN_WEIGHT_CAP = 40
BRUTEFORCE_ORDER_CAP = 256


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of a weakly decreasing partition."""
    if not parts:
        return ()
    return tuple(sum(1 for a in parts if a >= i) for i in range(1, parts[0] + 1))


def partitions_fitting(mu: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All partitions nu contained in mu (nu_i <= mu_i for every i)."""

    def rec(idx: int, prev: int):
        yield ()
        if idx >= len(mu):
            return
        for part in range(1, min(mu[idx], prev) + 1):
            for tail in rec(idx + 1, part):
                yield (part,) + tail

    yield from rec(0, mu[0] if mu else 0)


class _PartitionType(NamedTuple):
    parts: tuple[int, ...]
    p: int


class PartitionType(_PartitionType):
    """Type (a_1 >= a_2 >= ... >= a_r >= 1) of an Abelian p-group."""

    __slots__ = ()

    def __new__(cls, parts, p):
        check_prime(p)
        parts = tuple(int(a) for a in parts)
        if not parts or any(a < 1 for a in parts):
            raise ValueError("partition parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("partition parts must be weakly decreasing")
        return super().__new__(cls, parts, p)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def group_order(self) -> int:
        return self.p**self.weight


class SubgroupCounts:
    """Sparse map index -> number of subgroups of that index; absent = 0.

    An immutable record, but not a tuple: it has no length, and indexing
    gives s_n rather than a field.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: SubgroupCounts is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"SubgroupCounts(counts={self.counts!r})"

    def __eq__(self, other):
        if type(other) is not SubgroupCounts:
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    @classmethod
    def from_map(cls, counts: Mapping[int, int]) -> "SubgroupCounts":
        return cls(tuple(sorted((n, c) for n, c in counts.items() if c)))

    def __getitem__(self, n: int) -> int:
        """s_n, zero off the support, for callers that read a few single
        coefficients; `values` gives the whole log series."""
        for idx, c in self.counts:
            if idx == n:
                return c
        return 0

    def values(self, n_max: int) -> list[int]:
        """The log series [s_0, ..., s_{n_max}], zero-filled, with s_0 = 0."""
        values = [0] * (n_max + 1)
        for idx, c in self.counts:
            if idx <= n_max:
                values[idx] = c
        return values


def subgroup_type_count(mu: tuple[int, ...], nu: tuple[int, ...], p: int) -> int:
    """Number of subgroups of type nu inside an Abelian p-group of type mu."""
    mu_c = conjugate_partition(mu)
    nu_c = conjugate_partition(nu)
    if len(nu_c) > len(mu_c):
        return 0
    total = 1
    for i in range(len(mu_c)):
        mi = mu_c[i]
        ni = nu_c[i] if i < len(nu_c) else 0
        ni1 = nu_c[i + 1] if i + 1 < len(nu_c) else 0
        if ni > mi:
            return 0
        total *= p ** (ni1 * (mi - ni)) * gauss_binom_at(mi - ni1, ni - ni1, p)
    return total


def abelian_subgroup_counts(t: PartitionType) -> SubgroupCounts:
    """s_{p^i} for 0 <= i <= weight via the type-counting formula."""
    if t.weight > ABELIAN_WEIGHT_CAP:
        raise ValueError(f"partition weight cap {ABELIAN_WEIGHT_CAP} exceeded")
    p = t.p
    by_size = [0] * (t.weight + 1)
    for nu in partitions_fitting(t.parts):
        by_size[sum(nu)] += subgroup_type_count(t.parts, nu, p)
    counts = {p ** (t.weight - size): c for size, c in enumerate(by_size)}
    return SubgroupCounts.from_map(counts)


def _addition_table(parts: tuple[int, ...], p: int) -> tuple[int, bytes]:
    """Elements of prod C_{p^{a_i}} encoded 0..order-1, plus the flattened
    sum table (entry i*order + j is the index of i + j).

    The element x = (x_1, ..., x_r) is encoded in mixed radix, x_1 the
    lowest digit: sum x_k * stride_k with stride_k = prod_{i<k} p^{a_i}.
    Row i of the table lists i + j for every j.  Adding the generator e_k
    (1 in digit k, mod p^{a_k}) is one 256-byte translate table, so row i
    is row (i - stride_k) translated by it, where k is i's highest nonzero
    digit: the rows are built block by block, in C.  Orders above 256 do
    not fit in a byte and raise ValueError.
    """
    moduli = [p**a for a in parts]
    order = 1
    for m in moduli:
        order *= m
    pad = bytes(256 - order)
    rows = [bytes(range(order))]
    stride = 1
    for m in moduli:
        # i + e_k: digit k steps up by one, and wraps from m - 1 to 0
        top = (m - 1) * stride
        add_gen = bytes(i - top if i // stride % m == m - 1 else i + stride for i in range(order))
        add_gen += pad
        block = rows
        for _ in range(m - 1):
            block = [row.translate(add_gen) for row in block]
            rows += block
        stride *= m
    return order, b"".join(rows)


def abelian_subgroup_counts_bruteforce(t: PartitionType) -> SubgroupCounts:
    """Ground-truth enumeration of every subgroup as an explicit element set.

    Walks the subgroup lattice level by level: each subgroup of order
    p^{k+1} is H u (H+g) u ... u (H+(p-1)g) for a subgroup H of order p^k
    and an element g outside H with p*g in H; duplicate element sets are
    merged.  It shares no code with the type-counting formula: the group
    is its addition table (`_addition_table`), and the closure loop is
    `kernels.subgroup_lattice_sizes`.
    """
    if t.group_order > BRUTEFORCE_ORDER_CAP:
        raise ValueError(f"group order cap {BRUTEFORCE_ORDER_CAP} exceeded")
    order, add_flat = _addition_table(t.parts, t.p)
    sizes = kernels.subgroup_lattice_sizes(order, t.p, add_flat)
    counts: dict[int, int] = {}
    for size in sizes:
        index = order // size
        counts[index] = counts.get(index, 0) + 1
    return SubgroupCounts.from_map(counts)


def cyclic_subgroup_counts(m: int) -> SubgroupCounts:
    """One subgroup per divisor: s_d(C_m) = 1 iff d divides m."""
    if m < 1:
        raise ValueError("cyclic order must be positive")
    return SubgroupCounts.from_map({d: 1 for d in range(1, m + 1) if m % d == 0})


def dihedral_subgroup_counts(m: int) -> SubgroupCounts:
    """Subgroup counts of the dihedral group of order 2m.

    Every subgroup of <r, s | r^m = s^2 = 1, s r s = r^-1> is either the
    cyclic <r^k> (k | m, index 2k) or one of the k dihedral <r^k, r^i s>
    (k | m, 0 <= i < k, index k).  Hence
    s_d = [d | m] * d + [d even and d/2 | m], which also holds for the
    Abelian m = 1 (C_2) and m = 2 (the Klein four-group).
    """
    if m < 1:
        raise ValueError("dihedral order parameter must be positive")
    counts = {}
    for d in range(1, 2 * m + 1):
        count = d if m % d == 0 else 0
        if d % 2 == 0 and m % (d // 2) == 0:
            count += 1
        counts[d] = count
    return SubgroupCounts.from_map(counts)


def difference_valuation_profile(c: SubgroupCounts, t: PartitionType) -> list[str]:
    """The failed checks of the valuation profile of consecutive differences
    s_{p^i} - s_{p^{i-1}}; empty when the profile holds.

    With W the weight and differences taken over 0 <= i <= W+1 (counts
    outside the support are zero):

    * v_p = i for 0 <= i <= min(W - a_1, floor(W/2)),
    * zero exactly for W - a_1 + 1 <= i <= a_1, plus i = A_2 for odd W,
    * v_p = W - i + 1 for max(a_1, ceil(W/2)) + 1 <= i <= W + 1,
    * at the case's own index the leading coefficient is -1 mod p,
    * and the symmetry s_{p^i} = s_{p^{W-i}} holds.
    """
    failures: list[str] = []
    p, W, a1 = t.p, t.weight, t.parts[0]

    def sval(i: int) -> int:
        return c[p**i] if 0 <= i <= W else 0

    def check(ok: bool, message: str):
        if not ok:
            failures.append(message)

    lo_hi = min(W - a1, W // 2)
    for i in range(0, lo_hi + 1):
        check(vp(sval(i) - sval(i - 1), p) == i, f"rising branch at i={i}")
    zero_set = set(range(W - a1 + 1, a1 + 1))
    if W % 2:
        zero_set.add((W + 1) // 2)
    for i in sorted(zero_set):
        check(sval(i) - sval(i - 1) == 0, f"zero plateau at i={i}")
    hi_lo = max(a1, (W + 1) // 2) + 1
    for i in range(hi_lo, W + 2):
        check(vp(sval(i) - sval(i - 1), p) == W - i + 1, f"falling branch at i={i}")

    case, l, _ = partition_case(t.parts)
    i0 = l  # a_1 + 1 / A_1 + 1 / A_2 + 1
    diff = sval(i0) - sval(i0 - 1)
    e = W - i0 + 1
    check(
        diff % p ** (e + 1) == (-(p**e)) % p ** (e + 1),
        f"leading term at i={i0} (case {case})",
    )
    for i in range(0, W + 1):
        check(sval(i) == sval(W - i), f"symmetry at i={i}")
    return failures


# ---------------------------------------------------------------------------
# group-spec grammar:  A[p;a1,a2,...]  C[m]  D[m]  joined with "*"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^([ACD])\[([^\]]*)\]$")


class GroupSpec(NamedTuple):
    variant: str  # "abelian" | "cyclic" | "dihedral" | "free-product"
    partition: PartitionType | None = None
    order_param: int | None = None
    factors: tuple["GroupSpec", ...] = ()

    def canonical(self) -> str:
        if self.variant == "abelian":
            parts = ",".join(str(a) for a in self.partition.parts)
            return f"A[{self.partition.p};{parts}]"
        if self.variant == "cyclic":
            return f"C[{self.order_param}]"
        if self.variant == "dihedral":
            return f"D[{self.order_param}]"
        return "*".join(sorted(f.canonical() for f in self.factors))

    def is_free_product(self) -> bool:
        return self.variant == "free-product"


def _parse_term(text: str) -> GroupSpec:
    m = _TERM_RE.match(text)
    if not m:
        raise ValueError(f"malformed group term {text!r}")
    head, body = m.groups()
    if head == "A":
        try:
            p_str, parts_str = body.split(";")
            p = int(p_str)
            parts = tuple(sorted((int(x) for x in parts_str.split(",")), reverse=True))
        except ValueError as exc:
            raise ValueError(f"malformed abelian term {text!r}") from exc
        return GroupSpec("abelian", partition=PartitionType(parts, p))
    try:
        order = int(body)
    except ValueError as exc:
        raise ValueError(f"malformed group term {text!r}") from exc
    if order < 1:
        raise ValueError(f"group order parameter must be positive in {text!r}")
    return GroupSpec("cyclic" if head == "C" else "dihedral", order_param=order)


def parse_group_spec(text: str) -> GroupSpec:
    pieces = [piece.strip() for piece in text.split("*")]
    if any(not piece for piece in pieces):
        raise ValueError(f"malformed group spec {text!r}")
    terms = [_parse_term(piece) for piece in pieces]
    if len(terms) == 1:
        return terms[0]
    return GroupSpec("free-product", factors=tuple(terms))


def finite_subgroup_counts(spec: GroupSpec) -> SubgroupCounts:
    """Subgroup counts of a single finite group (not a free product)."""
    if spec.variant == "abelian":
        return abelian_subgroup_counts(spec.partition)
    if spec.variant == "cyclic":
        return cyclic_subgroup_counts(spec.order_param)
    if spec.variant == "dihedral":
        return dihedral_subgroup_counts(spec.order_param)
    raise ValueError("free products have no finite subgroup-count table")


def hom_count_ints_mod(spec: GroupSpec, n_max: int, modulus: int) -> list[int]:
    """h_0..h_{n_max} reduced modulo ``modulus``.

    Each factor's h runs through `kernels.hall_exp` modulo ``modulus``
    (division free, so exact), and a free product's counts are their
    pointwise product.
    """
    factors = spec.factors if spec.is_free_product() else (spec,)
    out = None
    for factor in factors:
        svals = finite_subgroup_counts(factor).values(n_max)
        h = kernels.hall_exp(svals, n_max, modulus)
        out = h if out is None else [a * b % modulus for a, b in zip(out, h)]
    return out


def subgroup_residues_mod_p(spec: GroupSpec, n_max: int, p: int) -> list[int]:
    """s_n mod p for 0 <= n <= n_max, from h modulo p**(2C - 1).

    The tests check it against the exact inverse transform of the exact
    hom counts.
    C = `kernels.log_residue_precision(n_max, p)`, and 2C - 1 digits of h
    are the most `kernels.hall_log_mod_residues` reads.
    """
    check_prime(p)
    C = kernels.log_residue_precision(n_max, p)
    h = hom_count_ints_mod(spec, n_max, p ** (2 * C - 1))
    return kernels.hall_log_mod_residues(h, p, n_max)
