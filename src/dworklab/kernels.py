"""The hot integer kernels, on arbitrary precision Python ints.

The central recurrence converts between the two coefficient sequences of
``H(z) = sum h_n z^n / n! = exp(sum s_n z^n / n)``:

    h_n = sum_{k=1}^{n} (n-k+1)_{k-1} * s_k * h_{n-k},    h_0 = 1,

where ``(a)_j`` is the rising factorial.  The recurrence contains no
divisions, so it reduces exactly modulo any modulus.  `hall_exp` and
`hall_exp_mod` run it in one loop whose sum over k stops at the last
nonzero s_k, which keeps sparse group and cycle series cheap.
`verify-group` runs `hall_exp_mod` modulo p^(E+64), with E the largest
bound exponent e(n), and reads every row from those residues; only when
some e(n) < 0, or some residue is 0 modulo p^(e(n)+64), does it fall back
to the exact `hall_exp` (`dworklab.bounds.verify_bounds_mod`).  The
inverse recurrence divides by (n-1)!: its exact form, which may leave
the integers, is `dworklab.series.log_transform`, and here it runs only
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
    ``len(s)-1`` count as zero.  The sum over k stops at the last nonzero
    s_k, so series with low-lying support (group and cycle-length data)
    skip the empty tail of every row.
    """
    h = [0] * (nmax + 1)
    h[0] = 1
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
    sred = [x % modulus for x in s[: nmax + 1]]
    last = len(sred) - 1
    while last > 0 and not sred[last]:
        last -= 1
    for n in range(1, nmax + 1):
        acc = 0
        poch = 1
        for k in range(1, min(n, last) + 1):
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
    """Digits C = v_p((nmax-1)!) + 1 of h that `hall_log_mod_residues` reads."""
    total = 0
    q = (nmax - 1) // p if nmax >= 1 else 0
    while q:
        total += q
        q //= p
    return total + 1


def _factorial_parts(p, stop):
    """(w_j, m_j) for 0 <= j < stop, with w_j = v_p(j!) and m_j = j / p^(v_p(j)).

    m_0 = 1, so the unit part u_j = j! / p^(w_j) is m_0 * m_1 * ... * m_j.
    """
    w = 0
    for j in range(stop):
        m = j or 1
        while m % p == 0:
            w += 1
            m //= p
        yield w, m


def _precision_plan(hred, p, nmax):
    """(P, D) for `hall_log_mod_residues`, with 1 <= P <= C and 0 <= D <= C - 1.

    ``hred`` holds h_0..h_nmax modulo p**C, C = `log_residue_precision(nmax, p)`.
    D = max delta_j and P = 1 + max Delta_n, as defined in the kernel's docstring.
    """
    delta = [0] * nmax
    for j, (w, _) in enumerate(_factorial_parts(p, nmax)):
        # h_j = 0 mod p**C has v_p(h_j) >= C > w, so delta_j = 0
        if hred[j]:
            delta[j] = max(w - vp_int(hred[j], p), 0)
    support = [j for j in range(1, nmax) if delta[j]]
    loss = [0] * (nmax + 1)
    for n in range(2, nmax + 1):
        # Delta is nondecreasing (delta >= 0), so max_k Delta_k = Delta_{n-1}
        worst = loss[n - 1]
        for j in support:
            if j >= n:
                break
            if loss[n - j] + delta[j] > worst:
                worst = loss[n - j] + delta[j]
        loss[n] = worst
    return loss[nmax] + 1, max(delta, default=0)


def hall_log_mod_residues(h, p, nmax):
    """Residues of s_n modulo p from h values known modulo p**(2C - 1).

    ``h`` must contain integers congruent to the exact h_n modulo
    p**(2C - 1) with C = `log_residue_precision(nmax, p)`; exact values
    work too.

    With a_j = h_j / j!, the derivative of H = exp(S) gives

        s_n = n a_n - sum_{k<n} s_k a_{n-k},    n a_n = h_n / (n-1)!.

    Write w_j = v_p(j!) and j! = p^(w_j) u_j.  The precision is read from
    the data; no theorem about h is assumed:

    - delta_j = max(0, w_j - v_p(h_j)) for j < nmax, read from h mod p**C
      (h_j = 0 mod p**C gives delta_j = 0, since w_j < C), so
      v_p(a_j) >= -delta_j.  D = max delta_j.
    - alpha_j = p^D a_j = h_j p^(D - w_j) / u_j is p-integral, and the
      leading term p^D n a_n = h_n p^(D - w_(n-1)) / u_(n-1) is p-integral
      whenever s_n and s_1..s_(n-1) are, because the sum is.
    - Run p^D s_n = p^D n a_n - sum_{k<n} s_k alpha_(n-k) modulo
      p^(P+D), keeping s_n modulo p^P.  If s_k is known modulo p^(P -
      Delta_k), the term s_k alpha_(n-k) is known modulo
      p^(P - Delta_k - delta_(n-k) + D), so s_n is known modulo p^(P -
      Delta_n) with Delta_1 = 0 and
      Delta_n = max(0, max_{k<n} Delta_k + delta_(n-k)).
      P = 1 + max Delta_n therefore leaves every s_n right modulo p.
    - alpha_j needs h_j modulo p^(w_j + P) and the leading term h_n
      modulo p^(w_(n-1) + P); the largest is w_(nmax-1) + P = C + P - 1,
      so the kernel works from h modulo p**(C + P - 1).

    Every scaling division by a power of p, and the final one by p^D, is
    checked exact; an inexact one means some s_n is not p-integral and
    raises ``ValueError``.  The plan is always feasible: for integer h,
    delta_j <= w_j, and w_a + w_b <= w_(a+b) since a! b! divides (a+b)!,
    so by induction Delta_n <= w_(n-1).  Hence P <= C and D <= C - 1:
    the work precision P + D and the C + P - 1 digits read of h are both
    at most 2C - 1.
    """
    C = log_residue_precision(nmax, p)
    modulus = p**C
    if len(h) <= nmax or h[0] % modulus != 1 % modulus:
        raise ValueError("h must cover 0..nmax and have h_0 = 1")
    P, D = _precision_plan([x % modulus for x in h[: nmax + 1]], p, nmax)
    hmod = p ** (C + P - 1)
    hred = [x % hmod for x in h[: nmax + 1]]
    work = p ** (P + D)
    pD = p**D
    # alpha_j and the leading term p^D n a_n with n = j + 1 share the
    # factor p^(D - w_j) / u_j; both are taken modulo p^(P+D)
    alpha = [0] * (nmax + 1)
    lead = [0] * (nmax + 1)
    u = 1  # u_j modulo p^(P+D)
    for j, (w, m) in enumerate(_factorial_parts(p, nmax)):
        u = u * m % work
        inv = pow(u, -1, work)
        for target, n in ((alpha, j), (lead, j + 1)):
            x = hred[n]
            if D >= w:
                x *= p ** (D - w)
            else:
                x, r = divmod(x, p ** (w - D))
                if r:
                    raise ValueError(f"inverse transform not integral at n={j + 1}")
            target[n] = x * inv % work
    s = [0] * (nmax + 1)  # s_n modulo p^P
    residues = [0] * (nmax + 1)
    for n in range(1, nmax + 1):
        tail = sum([x * y for x, y in zip(s[1:n], alpha[n - 1 : 0 : -1])])
        acc = (lead[n] - tail) % work
        q, r = divmod(acc, pD)
        if r:
            raise ValueError(f"inverse transform not integral at n={n}")
        s[n] = q
        residues[n] = q % p
    return residues
