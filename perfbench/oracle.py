"""Independent checks of every operation's output.

Nothing here imports ``dworklab``.  Subgroup counts of the small groups in
the workloads come from a brute-force closure over a multiplication table;
``h_n`` comes from the scaled recurrence ``H' = S'H``: with
``G_n = h_n N!/n!`` it reads ``n G_n = sum_k s_k G_{n-k}``, ``G_0 = N!``, which
uses only small-by-big products and exact divisions, unlike the
Pochhammer recurrence of the program's kernels.  Valuations of ``h_n`` are
read back from ``v_p(h_n) = v_p(G_n) + v_p(n!) - v_p(N!)``.

Each check returns ``None`` when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

PERIODICITY_PREFIX = 200


def legendre(n: int, p: int) -> int:
    """v_p(n!)."""
    total = 0
    while n:
        n //= p
        total += n
    return total


# ---------------------------------------------------------------------------
# small finite groups
# ---------------------------------------------------------------------------


def _abelian_table(p: int, parts) -> list[list[int]]:
    moduli = [p**a for a in parts]
    order = math.prod(moduli)
    digits = []
    for idx in range(order):
        x = []
        for m in moduli:
            x.append(idx % m)
            idx //= m
        digits.append(x)

    def encode(x):
        idx = 0
        for value, m in zip(reversed(x), reversed(moduli)):
            idx = idx * m + value
        return idx

    return [
        [encode([(a + b) % m for a, b, m in zip(digits[i], digits[j], moduli)]) for j in range(order)]
        for i in range(order)
    ]


def _dihedral_table(m: int) -> list[list[int]]:
    # (r, f) -> r + m f, with (r1, f1)(r2, f2) = (r1 + (-1)^f1 r2, f1 xor f2)
    elems = [(r, f) for f in (0, 1) for r in range(m)]
    return [
        [((r1 + (-r2 if f1 else r2)) % m) + m * (f1 ^ f2) for r2, f2 in elems]
        for r1, f1 in elems
    ]


def group_table(term: str) -> list[list[int]]:
    """Multiplication table of one A[p;...], C[m] or D[m] term; 0 is the identity."""
    match = re.fullmatch(r"([ACD])\[([^\]]*)\]", term.strip())
    if not match:
        raise ValueError(f"unsupported group term {term!r}")
    head, body = match.groups()
    if head == "A":
        p, parts = body.split(";")
        return _abelian_table(int(p), [int(a) for a in parts.split(",")])
    if head == "C":
        m = int(body)
        return [[(i + j) % m for j in range(m)] for i in range(m)]
    return _dihedral_table(int(body))


def subgroup_index_counts(term: str) -> dict[int, int]:
    """{index: number of subgroups of that index}, by closing H + <g> over all H, g."""
    table = group_table(term)
    order = len(table)

    def closure(gens):
        seen = {0}
        todo = [0]
        while todo:
            x = todo.pop()
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return frozenset(seen)

    found = {frozenset({0}): ()}
    todo = list(found.items())
    while todo:
        sub, gens = todo.pop()
        for g in range(order):
            if g not in sub:
                bigger = closure(gens + (g,))
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    todo.append((bigger, gens + (g,)))
    counts: dict[int, int] = {}
    for sub in found:
        counts[order // len(sub)] = counts.get(order // len(sub), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# the scaled exponential recurrence
# ---------------------------------------------------------------------------


def scaled_exp(s, n_max: int) -> list[int]:
    """G_0..G_N with G_n = h_n N!/n!, from s as {k: s_k} or a list (index 0 unused)."""
    support = sorted(s.items()) if isinstance(s, dict) else [(k, v) for k, v in enumerate(s) if k and v]
    support = [(k, v) for k, v in support if k <= n_max]
    g = [0] * (n_max + 1)
    g[0] = math.factorial(n_max)
    for n in range(1, n_max + 1):
        acc = 0
        for k, sk in support:
            if k > n:
                break
            acc += sk * g[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"scaled recurrence not integral at n={n}")
        g[n] = q
    return g


def exact_h(s, n_max: int) -> list[int]:
    g = scaled_exp(s, n_max)
    top = g[0]
    return [g[n] * math.factorial(n) // top for n in range(n_max + 1)]


def exact_log(h: list[int]) -> list[int]:
    """s_1..s_N (index 0 unused) from integer h_0..h_N, through b_n = h_n N!/n!."""
    n_max = len(h) - 1
    top = math.factorial(n_max)
    b = [h[n] * (top // math.factorial(n)) for n in range(n_max + 1)]
    s = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = n * b[n] - sum(s[k] * b[n - k] for k in range(1, n))
        q, r = divmod(acc, top)
        if r:
            raise ArithmeticError(f"inverse recurrence not integral at n={n}")
        s[n] = q
    return s


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _has_valuation(x: int, p: int, w: int) -> bool:
    if x == 0 or w < 0:
        return False
    if p == 2:
        return (x & -x).bit_length() - 1 == w
    r = x % p ** (w + 1)
    return r != 0 and r % p**w == 0


def check_rows(rows, g: list[int] | None, p: int) -> str | None:
    """Every row's valuation against G, plus the row's own arithmetic.

    ``g=None`` skips the valuations, for rows already verified once.
    """
    if g is not None and len(rows) != len(g):
        return f"{len(rows)} rows, expected {len(g)}"
    top = legendre(len(rows) - 1, p)
    for n, row in enumerate(rows):
        if row["n"] != n:
            return f"row {n} is labelled n={row['n']}"
        v = row["valuation"]
        if v == "infinity":
            if (g is not None and g[n] != 0) or row["slack"] != "infinity":
                return f"h_{n} reported zero"
            continue
        if g is not None and not _has_valuation(g[n], p, v - legendre(n, p) + top):
            return f"v_{p}(h_{n}) reported as {v}"
        if row["slack"] != v - row["bound"] or row["tight"] != (row["slack"] == 0):
            return f"row {n} slack/tight inconsistent"
    return None


def parse_report(stdout: bytes, exit_code: int, command: str):
    """The JSON report of a successful CLI run, or a reason it is unusable."""
    if exit_code not in (0, 1):
        return None, f"exit status {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None, "report is not JSON"
    if doc.get("command") != command or doc.get("exit_status") != exit_code:
        return None, "report header disagrees with the run"
    return doc, None


def check_periodicity(doc, spec: str, p: int, n_max: int, confirm: int) -> str | None:
    rows = doc["rows"]
    residues = [row["residue"] for row in rows]
    if [row["n"] for row in rows] != list(range(1, n_max + 1)):
        return "residue rows do not cover 1..n_max"
    if any(not 0 <= r < p for r in residues):
        return "residue outside 0..p-1"
    k = min(PERIODICITY_PREFIX, n_max)
    h = [1] * (k + 1)
    for term in spec.split("*"):
        factor = exact_h(subgroup_index_counts(term), k)
        h = [a * b for a, b in zip(h, factor)]
    s = exact_log(h)
    for n in range(1, k + 1):
        if s[n] % p != residues[n - 1]:
            return f"s_{n} mod {p} reported as {residues[n - 1]}, exact {s[n] % p}"
    expected = _period(residues, confirm)
    summary = doc["summary"]
    got = (summary["status"], summary["period"], summary["preperiod"])
    return None if got == expected else f"period summary {got}, expected {expected}"


def _period(residues, confirm: int):
    """Minimal period, then minimal preperiod, confirmed `confirm` times."""
    n = len(residues)
    for period in range(1, n // 2 + 1):
        pre = 0
        for idx in range(n - period - 1, -1, -1):
            if residues[idx] != residues[idx + period]:
                pre = idx + 1
                break
        if (n - pre) // period - 1 >= confirm:
            return ("detected", period, pre)
    return ("unresolved", 0, 0)


def check_lattice(stdout: bytes, p: int, parts) -> tuple[int, str | None]:
    """(subgroups enumerated, reason) for a lattice operation."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 0, "output is not JSON"
    brute = {int(i): c for i, c in doc["brute"]}
    formula = {int(i): c for i, c in doc["formula"]}
    rows = sum(brute.values())
    if brute != formula:
        return rows, "brute-force lattice disagrees with the type-counting formula"
    weight, rank = sum(parts), len(parts)
    if brute.get(1) != 1 or brute.get(p**weight) != 1:
        return rows, "whole group or trivial subgroup not counted once"
    if brute.get(p) != (p**rank - 1) // (p - 1):
        return rows, f"{brute.get(p)} subgroups of index p, expected (p^r-1)/(p-1)"
    for i in range(weight + 1):
        if brute.get(p**i) != brute.get(p ** (weight - i)):
            return rows, f"subgroup counts not symmetric at index p^{i}"
    if set(brute) - {p**i for i in range(weight + 1)}:
        return rows, "subgroup of an index that is not a power of p"
    return rows, None
