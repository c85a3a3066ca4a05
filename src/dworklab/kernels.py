"""The hot integer kernels, on arbitrary precision Python ints.

The central recurrence converts between the two coefficient sequences of
``H(z) = sum h_n z^n / n! = exp(sum s_n z^n / n)``:

    h_n = sum_{k=1}^{n} (n-k+1)_{k-1} * s_k * h_{n-k},    h_0 = 1,

where ``(a)_j`` is the rising factorial.  The recurrence contains no
divisions, so it reduces exactly modulo any modulus.  `hall_exp` runs it
in one loop, exactly or modulo a given modulus, which it applies to the
s_k, to each finished row, and inside a row after each gap factor wider
than 64.  Row n is a Horner sum over the
nonzero s_k alone, highest k first; the (n-k+1)_(k-1) of a run of
vanishing s_k between two nonzero ones fold into one `math.perm` gap
factor, so no Pochhammer factor is ever multiplied by an h, and sparse
group and cycle series pay only for their support.
`verify-group` runs it modulo p^(max(E, 0)+64), with E the largest bound
exponent e(n), and reads every nonzero residue as the exact h_n, negative
e(n) included; only when some residue is 0 does it run it again without
a modulus (`dworklab.bounds.verify_bounds_mod`).
`verify-permutations` runs it modulo p^E and reads only whether p^e(n)
divides each count (`dworklab.applications`).  `periodicity` runs it
modulo p^(2C-1) (`dworklab.groups.hom_count_ints_mod`).  The inverse
recurrence divides by (n-1)!: its exact form, which may leave the
integers, is `dworklab.series.log_transform`, and here it runs only
modulo p, in `hall_log_mod_residues`.  That kernel reads its precision
from h: row n keeps s_n only to the p-adic digits that later rows read of
it, and the powers of p that the divisions by j! leave are factored out
of coefficient j up to the running maximum of their losses over i <= j,
so each product carries only the digits its row needs.  Its row sums are
semi-relaxed: a row adds its 32 nearest terms itself, and every other
term arrives from a block product, formed as soon as its block of s_m is
known, of two Kronecker-packed ints (van der Hoeven, "Relax, but don't be
too lazy", 2002), so one C-level product of big ints replaces up to 256^2
Python products.  CPython's int product stops at Karatsuba, so wide
blocks are multiplied by the system GMP's `mpn_mul` (``libgmp.so.10``,
through `ctypes`), which reads the packed bytes as its limbs and uses
Toom-Cook and FFT multiplication on large products; `ctypes` is imported
only then, and without libgmp every block takes the int product.
At p = 2 the kernel reduces modulo 2^k by the mask 2^k - 1.
"""

from __future__ import annotations

import math
import operator
import sys

BACKEND = "pure-python"  # the kernel implementation that perfbench/run.py records

__all__ = [
    "vp_int",
    "hall_exp",
    "hall_log_mod_residues",
    "log_residue_precision",
    "subgroup_lattice_sizes",
]


def vp_int(x: int, p: int) -> int:
    """Exponent of the largest power of the prime p dividing nonzero x."""
    if x == 0:
        raise ValueError("vp_int is undefined at 0")
    if p == 2:
        return (x & -x).bit_length() - 1
    if p < 2:
        raise ValueError("p must be at least 2")
    v = 0
    # strip p^64 at a time so huge valuations cost few divisions; the
    # first remainder that is not zero lies below p^64 and carries the
    # rest of the valuation, so only that small number is stripped further
    pe = p**64
    while True:
        x, r = divmod(x, pe)
        if r:
            break
        v += 64
    while r % p == 0:
        r //= p
        v += 1
    return v


# with a modulus, `hall_exp` reduces a row's running sum after each gap
# factor of more than this many small factors; a narrower one adds few
# bits, and reducing after it would cost more than it saves
_WIDE_GAP = 64


def hall_exp(s, *, modulus=None):
    """Integer coefficients h_0..h_N from integer s_1..s_N, N = len(s) - 1.

    ``s`` is indexed by position (s[0] is ignored).  Row n runs the
    recurrence by Horner over the nonzero s_k with k <= n, from the
    highest k down:

        h_n = s_1 h_(n-1) + (n-1) (s_2 h_(n-2) + (n-2) (s_3 h_(n-3) + ...)).

    Between two nonzero s_a and s_b, a < b, the vanishing s_k contribute
    nothing, and the factors they pass on fold into one gap factor
    (n-a)(n-a-1)...(n-b+1) = ``math.perm(n-a, b-a)``, a product of small
    ints formed in C.  So every step multiplies the running sum by that
    factor and adds s_a h_(n-a): no Pochhammer factor is multiplied by an
    h.  With a positive ``modulus`` the s_k and each finished h_n are
    reduced modulo it, and s_k counts as zero where it vanishes modulo it;
    within a row, the running sum is reduced too after each gap wider than
    64, so on wide support it stays near the modulus in size instead of
    growing by every gap factor.  A power-of-two modulus reduces the rows
    by the mask ``modulus - 1``, since CPython's ``%`` runs a full long
    division even then.  The recurrence is division free, so each entry is
    congruent to the exact h_n modulo ``modulus``.
    """
    if not s:
        raise ValueError("s must hold s_0..s_N, N >= 0, and is empty")
    mask = 0
    if modulus is not None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        s = [x % modulus for x in s]
        if not modulus & (modulus - 1):
            mask = modulus - 1
    h = [0] * len(s)
    h[0] = 1 if modulus is None else 1 % modulus
    terms = []  # (a, s_a) for the nonzero s_a with a <= n, highest a first
    for n in range(1, len(s)):
        if s[n]:
            terms.insert(0, (n, s[n]))
        acc = 0
        # b: the a of the previous step; the first step's factor is perm(., 0) = 1
        b = terms[0][0] if terms else 1
        for a, sa in terms:
            acc = acc * math.perm(n - a, b - a) + sa * h[n - a]
            if b - a > _WIDE_GAP and modulus is not None:
                acc = acc & mask if mask else acc % modulus
            b = a
        if b > 1:
            acc *= math.perm(n - 1, b - 1)
        if modulus is not None:
            acc = acc & mask if mask else acc % modulus
        h[n] = acc
    return h


def subgroup_lattice_sizes(order: int, p: int, add_flat: bytes) -> list[int]:
    """Orders of all subgroups of an abelian p-group given its addition table.

    ``add_flat[i * order + j]`` must be the element index of i + j, with 0
    the identity; ``order`` is capped at 256 so indices fit in one byte.
    Returns the multiset of subgroup orders, sorted.

    Walks the lattice level by level.  Every subgroup K of order p^{k+1}
    contains a subgroup H of order p^k.  K/H has order p, so for any g in
    K outside H, g + H generates K/H, p*g lies in H and

        K = <H, g> = H u (H+g) u ... u (H+(p-1)g),

    p disjoint cosets.  Conversely, for any g outside H with p*g in H,
    g + H has order p (p is prime), so these p cosets form a subgroup of
    order p^{k+1}.  So the level above H is exactly the set of these
    unions, and the enumeration is exact.  Each subgroup is kept as the
    bytes of its elements, and each row of the table, padded to 256
    bytes, is the translate table of "add g", so
    ``coset.translate(row[g])`` steps H+jg to H+(j+1)g in C.  Every other
    g in K but not in H gives the same K, so K's elements are deleted from
    the g still to try, again by ``bytes.translate``.
    """
    if order > 256:
        raise ValueError("subgroup enumeration is capped at order 256")
    if p < 2:
        raise ValueError("p must be at least 2")
    if len(add_flat) != order * order:
        raise ValueError("addition table has the wrong size")
    pad = bytes(256 - order)
    rows = [add_flat[i : i + order] + pad for i in range(0, order * order, order)]
    # roots[x]: the elements g with p*g = x
    roots = [bytearray() for _ in range(order)]
    for g, row in enumerate(rows):
        acc = 0
        for _ in range(p):
            acc = row[acc]
        roots[acc].append(g)

    sizes = [1]
    level = {b"\0"}
    while level:
        next_level = set()
        for hb in level:
            todo = b"".join([roots[h] for h in hb]).translate(None, hb)
            while todo:
                row = rows[todo[0]]
                coset = kb = hb
                for _ in range(p - 1):
                    coset = coset.translate(row)
                    kb += coset
                todo = todo.translate(None, kb)
                next_level.add(bytes(sorted(kb)))
        sizes += [len(kb) for kb in next_level]
        level = next_level
    return sizes


def floor_sum(n: int, p: int, lo: int = 1, hi: int | None = None) -> int:
    """sum_{s=lo}^{hi} floor(n / p^s) for n >= 0; hi=None runs until the terms vanish.

    Legendre's v_p(n!) is floor_sum(n, p).  Each term is the last divided
    by p, as floor(floor(n / q) / p) = floor(n / (q p)); so the half sums
    sum_s floor(n / (2 p^s)) are floor_sum(n // 2, p, ...).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < 2:
        raise ValueError("p must be at least 2")
    total = 0
    t = n // p**lo
    while t and (hi is None or lo <= hi):
        total += t
        t //= p
        lo += 1
    return total


def log_residue_precision(nmax: int, p: int) -> int:
    """Digits C = v_p((nmax-1)!) + 1 of h that `hall_log_mod_residues` reads:
    `floor_sum`(nmax - 1, p) + 1, and 1 for nmax <= 0."""
    return floor_sum(max(nmax - 1, 0), p) + 1


def _factorial_parts(p, stop):
    """The lists (w, m) for 0 <= j < stop: w_j = v_p(j!) and m_j = j / p^(v_p(j)).

    m_0 = 1, so the unit part u_j = j! / p^(w_j) is m_0 * m_1 * ... * m_j.
    """
    w, m = [], []
    wj = 0
    for j in range(stop):
        mj = j or 1
        while mj % p == 0:
            wj += 1
            mj //= p
        w.append(wj)
        m.append(mj)
    return w, m


# `hall_log_mod_residues` sums the terms j < _NEAR of a row in the row; every
# other term goes through block products of s-blocks of length _NEAR,
# 2 _NEAR, ... up to _CAP, a power-of-two multiple of _NEAR
_NEAR = 32
_CAP = 256
# a block product whose operands reach this many bits (slots times slot
# bits) goes through GMP.  With packing and read-back (2 shared cores,
# CPython 3.11), `mpn_mul` about ties the int product at 1,300 bits (32
# slots: 22 us against 23 us), leads at 3,200 (32 slots: 24 against 33 us;
# 256: 153 against 165 us) and at 8,000 (32 slots: 30 against 68 us; 256:
# 156 against 192 us).  A switch at 3,200 bits was no faster on the
# `free-product-periodicity` operations.  Loading `ctypes` and libgmp takes
# about 2 ms, so the switch stays above 2,816 bits, the widest block of a
# P = 1 `periodicity` run at N <= 1200, and those runs never load `ctypes`
_GMP_BITS = 8_000


def _precision_plan(hred, p, w):
    """The scaling exponents and loss profile (delta~, Delta) that
    `hall_log_mod_residues` runs on, in one pass over j.

    ``w`` holds w_j = v_p(j!) for 0 <= j < nmax, and ``hred`` holds
    h_0..h_nmax modulo p**C, C = `log_residue_precision(nmax, p)`.
    delta~[j] for 0 <= j < nmax and Delta[n] for 0 <= n <= nmax are as
    defined in the kernel's docstring (Delta[0] = Delta[1] = 0); the plan
    (P, D) of that docstring is (1 + Delta[nmax], delta~[-1]).
    Delta_n is the best sum of delta_j over parts j with total at most
    n - 1 (delta_1 = 0 pads), an unbounded knapsack.  Part j is kept only
    if delta_j beats the best of the parts below it at total j; a dropped
    part can be swapped, in any sum, for parts below j that weigh at most
    j and give at least delta_j, so Delta from the kept parts is exact.
    """
    dt, loss, kept = [], [0], []
    top = 0
    for j, wj in enumerate(w):
        # h_j = 0 mod p**C has v_p(h_j) >= C > w_j, so delta_j = 0
        d = max(wj - vp_int(hred[j], p), 0) if hred[j] else 0
        top = max(top, d)
        dt.append(top)
        # Delta_(j+1) without part j; part 1 (delta_1 = 0) gives Delta_j
        best = max([loss[j]] + [loss[j + 1 - i] + di for i, di in kept])
        if d > best:
            kept.append((j, d))
        loss.append(max(best, d))
    return dt, loss


def _gmp_product():
    """GMP's product of two nonempty nonnegative ints given as little-endian
    bytes, as a function that returns the product as little-endian bytes,
    8 (ceil(len(xa) / 8) + ceil(len(xb) / 8)) of them; or None when libgmp
    does not load or its limbs are not little-endian 8-byte words, since
    `mpn_mul` reads the bytes as limbs."""
    import ctypes

    try:
        gmp = ctypes.CDLL("libgmp.so.10")  # a fixed soname: find_library starts a subprocess
    except OSError:
        return None
    if ctypes.c_int.in_dll(gmp, "__gmp_bits_per_limb").value != 64 or sys.byteorder != "little":
        return None
    mul = gmp.__gmpn_mul  # (rp, s1p, s1n, s2p, s2n), s1n >= s2n >= 1
    mul.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_long, ctypes.c_char_p, ctypes.c_long]
    mul.restype = None  # the top limb it returns is also written to rp

    def product(xa, xb):
        xa += bytes(-len(xa) % 8)
        xb += bytes(-len(xb) % 8)
        if len(xa) < len(xb):
            xa, xb = xb, xa
        # mpn_mul writes exactly s1n + s2n limbs to this fresh buffer, and
        # never touches its sources, so the immutable bytes can be passed
        out = ctypes.create_string_buffer(len(xa) + len(xb))
        mul(out, xa, len(xa) // 8, xb, len(xb) // 8)
        return out.raw

    return product


def _block_product(a, b, bits, slots, gmp):
    """Slots 0..slots-1 of the product of the nonempty blocks a and b as
    polynomials, as a list of ints.

    Every entry of a and b and every slot of the product must be
    nonnegative and below 2^bits.  The blocks are Kronecker-packed with
    `to_bytes` into slots of whole bytes, more than ``bits`` bits, so no
    slot carries into the next, and multiplied as one pair of big ints: by
    ``gmp``, a function from `_gmp_product`, or, when it is None, as
    Python ints.  Each slot is read back with `from_bytes`.
    """
    width = bits // 8 + 1
    xa = b"".join([x.to_bytes(width, "little") for x in a])
    xb = b"".join([x.to_bytes(width, "little") for x in b])
    if gmp is None:
        x = int.from_bytes(xa, "little") * int.from_bytes(xb, "little")
        prod = x.to_bytes(len(xa) + len(xb), "little")
    else:
        prod = gmp(xa, xb)
    return [int.from_bytes(prod[k * width : (k + 1) * width], "little") for k in range(slots)]


def hall_log_mod_residues(h, p):
    """Residues of s_n modulo p from h values known modulo p**(2C - 1).

    ``h`` = [h_0, ..., h_nmax], nmax = len(h) - 1, must hold integers
    congruent to the exact h_n modulo p**(2C - 1) with
    C = `log_residue_precision(nmax, p)`; exact values work too.

    With a_j = h_j / j!, the derivative of H = exp(S) gives

        s_n = n a_n - sum_{0<j<n} a_j s_(n-j),    n a_n = h_n / (n-1)!.

    Write w_j = v_p(j!) and j! = p^(w_j) u_j.  The precision is read from
    the data; no theorem about h is assumed:

    - delta_j = max(0, w_j - v_p(h_j)) for j < nmax, read from h mod p**C
      (h_j = 0 mod p**C gives delta_j = 0, since w_j < C), so
      v_p(a_j) >= -delta_j.  D = max delta_j.
    - Delta_1 = 0 and Delta_n = max(0, max_{k<n} Delta_k + delta_(n-k)):
      an error of valuation >= f in s_k becomes one of valuation
      >= f - delta_(n-k) in s_n.  P = 1 + Delta_nmax.
    - Row n keeps s_n modulo p^(e_n) with e_n = 1 + Delta_(nmax-n+1).
      Then e_1 = P, e_nmax = 1, e is nonincreasing, and the loss
      recurrence, shifted, gives e_k >= e_n + delta_(n-k) for k < n: the
      digits s_k keeps are the digits every later row reads of it.
    - delta~_j = max(delta_0..delta_j), so delta_j <= delta~_j <= D and
      delta~ is nondecreasing.  beta_j = p^(delta~_j) a_j
      = h_j p^(delta~_j - w_j) / u_j is p-integral, with v_p(beta_j) >=
      delta~_j - delta_j, and is kept modulo p^(e_(j+1) + delta~_j).
      delta~_j <= w_j, since delta_i <= w_i <= w_j for i <= j, so scaling
      h_j is one exact division by p^(w_j - delta~_j).
    - Row n multiplies the recurrence by p^(d), d = delta~_(n-1):

          p^d s_n = L_n - sum_{0<j<n} p^(d - delta~_j) beta_j s_(n-j),

      with L_n = p^d n a_n = h_n p^(d - w_(n-1)) / u_(n-1), taken modulo
      p^(e_n + d).  The term of j is right modulo p^(e_n + d): s_(n-j) is
      off by a multiple of p^(e_(n-j)), and e_(n-j) + v_p(beta_j) >=
      e_n + delta_j + delta~_j - delta_j, so beta_j s_(n-j) is right
      modulo p^(e_n + delta~_j), which the factor p^(d - delta~_j) lifts
      to p^(e_n + d).
    - The terms j < B0 = `_NEAR` (32) are summed in row n directly.
      Their beta_j are lifted once, before the first row, to the top
      exponent T = delta~_(B0-1) (or delta~_(nmax-1) when nmax < B0), as
      p^(T - delta~_j) beta_j, so row n takes one sum of products and
      multiplies it by p^(d - T), or divides it by p^(T - d).  The
      division is exact, since each near term of row n has delta~_j <=
      delta~_(n-1) = d, and so row n's integer is that of the sum of
      p^(d - delta~_j) beta_j s_(n-j).
    - Every term j >= B0 comes from a block product, by the schedule of
      semi-relaxed multiplication (van der Hoeven 2002).  When row n
      completes the aligned block s_(n+1-L)..s_n, L | n+1, it is
      multiplied by the beta_j with j in [L, 2L), for L = B0, 2 B0, ...
      below the cap `_CAP` (256), and at the cap by every block
      [c 256, (c+1) 256), c >= 1.  Each pair (j, m) with j >= B0 lies in
      exactly one block product, which is formed before row j + m, and
      each slot t of the product is added to an accumulator of row t.
    - A block's beta_j are lifted to its top exponent dhi = delta~ of its
      last j, as p^(dhi - delta~_j) beta_j.  Both operands are reduced
      modulo p^(e_b + dhi), with b the first row the block reaches: every
      later row t has e_t <= e_b.  Every slot of the product is below
      2^k, k = bits(max beta) + bits(max s) + bit_length(L), so slots of
      that width never carry into the next, and the product is one
      C-level multiplication (`_block_product`): the nonnegative residues
      are packed with `to_bytes` into slots of k + 1 bits rounded up to
      whole bytes and multiplied as ints (Karatsuba), or, from
      `_GMP_BITS` (8,000) operand bits (L times k), by GMP's `mpn_mul`
      when libgmp loads; each slot is read back with `from_bytes`.  Slot
      t is then multiplied by p^(delta~_(t-1) - dhi), or divided by
      p^(dhi - delta~_(t-1)), which is exact since each of its terms has
      delta~_j <= delta~_(t-1) and the modulus keeps that many digits.
      So row t's sum agrees with the sum of all its terms modulo
      p^(e_t + delta~_(t-1)), the only digits it reads, and every s_n,
      residue and ``ValueError`` is bit for bit that of a row loop that
      forms each product itself (the tests keep that loop).
    - L_n is p-integral whenever s_1..s_n are, because the sum is
      (v_p(a_j) >= -delta~_(n-1) for j < n), and L_n needs h_n modulo
      p^(w_(n-1) + e_n); beta_j needs h_j modulo p^(w_j + e_(j+1)).  The
      largest is w_(nmax-1) + e_1 = C + P - 1, so the kernel reads h
      modulo p**(C + P - 1).
    - beta_j and L_(j+1) share the factor 1/u_j modulo p^(e_(j+1) +
      delta~_j).  u_(nmax-1) = m_0 m_1 ... m_(nmax-1), with m_j = j /
      p^(v_p(j)), is one product, inverted once; inv(u_(j-1)) = inv(u_j)
      m_j walks down from it.

    Every scaling division by a power of p, and the final one of row n by
    p^d, is checked exact; an inexact one means some s_n is not
    p-integral and raises ``ValueError`` at the first such n.  The plan
    is always feasible: for integer h, delta_j <= w_j, and w_a + w_b <=
    w_(a+b) since a! b! divides (a+b)!, so by induction Delta_n <=
    w_(n-1).  Hence P <= C and D <= C - 1: the widest row modulus
    p^(P + D) and the C + P - 1 digits read of h are both at most 2C - 1.
    """
    nmax = len(h) - 1
    C = log_residue_precision(nmax, p)
    if p == 2:
        # x & (2^k - 1) is x mod 2^k; CPython's % runs a full long
        # division even when the divisor is a power of two
        cut, red = (lambda k: (1 << k) - 1), operator.and_
    else:
        cut, red = (lambda k: p**k), operator.mod
    cut_c = cut(C)
    hred = [red(x, cut_c) for x in h]  # h modulo p**C
    if not hred or hred[0] != 1:
        raise ValueError("h must hold h_0..h_N, N >= 0, with h_0 = 1")
    w, m = _factorial_parts(p, nmax)
    dt, loss = _precision_plan(hred, p, w)  # dt[j] = delta~_j
    del hred  # C digits of every h_j, which no row reads: free them
    e = [0] + [1 + loss[nmax - n + 1] for n in range(1, nmax + 1)]
    D = dt[-1] if nmax else 0
    pw = [p**i for i in range(D + 1)]
    # red(x, mods[j]) is x modulo p^(e_(j+1) + delta~_j)
    mods = [cut(e[j + 1] + dt[j]) for j in range(nmax)]
    widest = e[1] + D if nmax else 0
    work, cut_work = p**widest, cut(widest)  # p^(P+D), the widest of the moduli
    inv = [0] * nmax  # inv[j] = 1/u_j modulo p^(e_(j+1) + delta~_j)
    iu = pow(math.prod(m), -1, work)  # 1/u_(nmax-1)
    for j in range(nmax - 1, -1, -1):
        inv[j] = red(iu, mods[j])
        iu = red(iu * m[j], cut_work)

    def scaled(x, j):
        # x / (p^(w_j - delta~_j) u_j) modulo p^(e_(j+1) + delta~_j)
        x, r = divmod(red(x, cut(e[j + 1] + w[j])), p ** (w[j] - dt[j]))
        if r:
            raise ValueError(f"inverse transform not integral at n={j + 1}")
        return red(x * inv[j], mods[j])

    beta = [scaled(h[j], j) for j in range(nmax)]
    # the near terms' beta_j lifted to one exponent T, as p^(T - delta~_j) beta_j
    T = max(dt[:_NEAR], default=0)  # delta~ is nondecreasing
    lifted = [x * pw[T - d] for x, d in zip(beta[:_NEAR], dt)]
    s = [0] * (nmax + 1)  # s_n modulo p^(e_n)
    far = [0] * (nmax + 1)  # far[t]: row t's terms j >= _NEAR, scaled by p^(delta~_(t-1))

    gmp = False  # GMP's product from the first wide block on; None without libgmp

    def add_block(m0, m1, j0, j1):
        nonlocal gmp
        # far[t] += the terms beta_j s_m, j0 <= j < j1, m0 <= m < m1, t = j + m <= nmax
        j1 = min(j1, nmax, nmax + 1 - m0)
        if j1 <= j0:
            return
        base = m0 + j0  # the first row the block reaches
        dhi = dt[j1 - 1]
        mod = cut(e[base] + dhi)
        a = [red(beta[j] * pw[dhi - dt[j]], mod) for j in range(j0, j1)]
        b = [red(x, mod) for x in s[m0:m1]]
        # every slot of the product is below 2^bits
        bits = max(a).bit_length() + max(b).bit_length() + len(b).bit_length()
        wide = len(b) * bits >= _GMP_BITS
        if wide and gmp is False:
            gmp = _gmp_product()
        prod = _block_product(a, b, bits, min(len(a) + len(b) - 1, nmax + 1 - base), gmp if wide else None)
        for k, x in enumerate(prod):
            if x:
                t = base + k
                shift = dt[t - 1] - dhi
                # exact: each term of row t has delta~_j <= delta~_(t-1)
                far[t] += x * pw[shift] if shift >= 0 else x // pw[-shift]

    for n in range(1, nmax + 1):
        near = min(n, _NEAR)
        acc = sum([x * y for x, y in zip(lifted[1:near], s[n - 1 : n - near : -1])])
        d = dt[n - 1]
        # exact: each near term of row n has delta~_j <= delta~_(n-1)
        acc = acc * pw[d - T] if d >= T else acc // pw[T - d]
        acc = red(scaled(h[n], n - 1) - acc - far[n], mods[n - 1])
        q, r = divmod(acc, pw[d])
        if r:
            raise ValueError(f"inverse transform not integral at n={n}")
        s[n] = q
        # the aligned s-blocks that end at n: length L meets j in [L, 2L),
        # length _CAP every [c _CAP, (c+1) _CAP), c >= 1
        size = _NEAR
        while size < _CAP and (n + 1) % size == 0:
            add_block(n + 1 - size, n + 1, size, 2 * size)
            size *= 2
        if size == _CAP and (n + 1) % _CAP == 0:
            for lo in range(_CAP, nmax - n + _CAP, _CAP):
                add_block(n + 1 - _CAP, n + 1, lo, lo + _CAP)
    return [x % p for x in s]
