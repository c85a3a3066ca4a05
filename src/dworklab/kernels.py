"""The hot integer kernels, on arbitrary precision Python ints.

The central recurrence converts between the two coefficient sequences of
``H(z) = sum h_n z^n / n! = exp(sum s_n z^n / n)``:

    h_n = sum_{k=1}^{n} (n-k+1)_{k-1} * s_k * h_{n-k},    h_0 = 1,

where ``(a)_j`` is the rising factorial.  The recurrence contains no
divisions, so it reduces exactly modulo any modulus.  The inverse
recurrence divides by (n-1)!: its exact form, which may leave the
integers, is `dworklab.series.log_transform`, and here it runs only
modulo p, with the precision bookkeeping done in `hall_log_mod_residues`.
"""

from __future__ import annotations

BACKEND = "pure-python"  # the kernel implementation that perfbench/run.py records

__all__ = [
    "vp_int",
    "hall_exp",
    "hall_exp_mod",
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


def hall_exp(s, nmax):
    """Integer coefficients h_0..h_nmax from integer s_1..s_nmax.

    ``s`` is indexed by position (s[0] is ignored); entries beyond
    ``len(s)-1`` count as zero.  Series with low-lying support (group and
    cycle-length data) take a sparse path that walks only the nonzero
    coefficients.
    """
    h = [0] * (nmax + 1)
    h[0] = 1
    support = [k for k in range(1, len(s)) if s[k]]
    if support and support[-1] * 4 <= nmax:
        for n in range(1, nmax + 1):
            acc = 0
            poch = 1  # (n-k+1)_{k-1}, extended incrementally over the support
            prev = 1
            for k in support:
                if k > n:
                    break
                for j in range(n - k + 1, n - prev + 1):
                    poch *= j
                prev = k
                acc += poch * s[k] * h[n - k]
            h[n] = acc
        return h
    slen = len(s)
    for n in range(1, nmax + 1):
        acc = 0
        poch = 1
        for k in range(1, min(n, slen - 1) + 1):
            sk = s[k]
            if sk:
                acc += poch * sk * h[n - k]
            poch *= n - k
        h[n] = acc
    return h


def hall_exp_mod(s, nmax, modulus):
    """`hall_exp` with every value reduced modulo ``modulus``.

    Exact because the recurrence is division free: the result entries are
    congruent to the exact h_n modulo ``modulus``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    h = [0] * (nmax + 1)
    h[0] = 1 % modulus
    slen = len(s)
    sred = [x % modulus for x in s]
    support = [k for k in range(1, slen) if sred[k]]
    if support and support[-1] * 4 <= nmax:
        for n in range(1, nmax + 1):
            acc = 0
            poch = 1
            prev = 1
            for k in support:
                if k > n:
                    break
                for j in range(n - k + 1, n - prev + 1):
                    poch = poch * j % modulus
                prev = k
                acc += poch * sred[k] * h[n - k]
            h[n] = acc % modulus
        return h
    for n in range(1, nmax + 1):
        acc = 0
        poch = 1
        for k in range(1, min(n, slen - 1) + 1):
            sk = sred[k]
            if sk:
                acc += poch * sk * h[n - k]
            poch = poch * (n - k) % modulus
        h[n] = acc % modulus
    return h


def subgroup_lattice_sizes(order: int, p: int, add_flat: bytes) -> list[int]:
    """Orders of all subgroups of an abelian p-group given its addition table.

    ``add_flat[i * order + j]`` must be the element index of i + j, with 0
    the identity; ``order`` is capped at 256 so indices fit in one byte.
    Walks the lattice level by level: every subgroup of order p^{k+1} is
    the closure of a subgroup H of order p^k with one extra element g
    satisfying p*g in H.  Returns the multiset of subgroup orders, sorted.
    """
    if order > 256:
        raise ValueError("subgroup enumeration is capped at order 256")
    if len(add_flat) != order * order:
        raise ValueError("addition table has the wrong size")
    ptimes = []
    for g in range(order):
        acc = 0
        for _ in range(p):
            acc = add_flat[acc * order + g]
        ptimes.append(acc)

    trivial = frozenset({0})
    found = {trivial}
    level = [trivial]
    while level:
        next_level = set()
        for H in level:
            seen = set(H)
            for g in range(order):
                if g in seen or ptimes[g] not in H:
                    continue
                K = set(H)
                coset = g
                row = g * order
                while coset not in H:
                    base = coset * order
                    K.update(add_flat[base + h] for h in H)
                    coset = add_flat[row + coset]
                frozen = frozenset(K)
                seen |= frozen
                next_level.add(frozen)
        found |= next_level
        level = list(next_level)
    return sorted(len(H) for H in found)


def log_residue_precision(nmax: int, p: int) -> int:
    """p-adic precision needed by `hall_log_mod_residues` up to nmax."""
    total = 0
    q = (nmax - 1) // p if nmax >= 1 else 0
    while q:
        total += q
        q //= p
    return total + 1


def hall_log_mod_residues(h, p, nmax):
    """Residues of s_n modulo p from h values known modulo p**C.

    ``h`` must contain integers congruent to the exact h_n modulo p**C
    with C = `log_residue_precision(nmax, p)`; exact values work too.
    The inverse recurrence divides by (n-1)!; writing (n-1)! = p^v * u,
    the division loses exactly v digits of p-adic precision, and
    v_p((k-1)!) + v_p((n-k)!) <= v_p((n-1)!) guarantees the surviving
    precision is always >= 1 digit, so the returned residues are exact.
    """
    C = log_residue_precision(nmax, p)
    modulus = p**C
    if len(h) <= nmax or h[0] % modulus != 1 % modulus:
        raise ValueError("h must cover 0..nmax and have h_0 = 1")
    hred = [x % modulus for x in h[: nmax + 1]]
    s = [0] * (nmax + 1)
    residues = [0] * (nmax + 1)
    v = 0  # v_p((n-1)!)
    u = 1  # unit part of (n-1)! modulo p**C
    for n in range(1, nmax + 1):
        if n > 1:
            m = n - 1
            while m % p == 0:
                v += 1
                m //= p
            u = u * m % modulus
        acc = hred[n]
        poch = 1
        for k in range(1, n):
            sk = s[k]
            if sk:
                acc -= poch * sk * hred[n - k]
            poch = poch * (n - k) % modulus
        pv = p**v
        acc %= modulus
        q, r = divmod(acc, pv)
        if r:
            raise ValueError(f"inverse transform not integral at n={n}")
        rest = p ** (C - v)
        sn = q * pow(u % rest, -1, rest) % rest
        s[n] = sn
        residues[n] = sn % p
    return residues
