"""Seeded operation lists for the four workloads.

A workload is a sequence of *rounds*.  Every round of a workload has the
same shape (the same cost classes in the same proportions); the seed picks
the concrete inputs inside each class and the order of the operations.
A run executes whole rounds, so its mix of expensive and cheap operations
does not depend on where the time limit falls, and runs with different
seeds measure comparable work.

An operation is a dict that `child.py` understands:

* ``{"kind": "cli", "argv": [...]}`` runs ``dworklab <argv>``;
* ``{"kind": "roundtrip", "input": path}`` runs the library round trip
  ``log_transform(exp_transform(s))`` on a series file;
* ``{"kind": "lattice", "parts": [...], "p": p}`` compares the brute-force
  subgroup lattice with the type-counting formula.

Each operation also carries benchmark-only fields (``check`` and friends)
that say how `oracle.py` verifies its output; the child ignores them.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("group-bounds", "dense-series", "free-product-periodicity", "lattice-oracle")

# group-bounds: verify-group at a fixed truncation.  Types within one class
# have the same group order, hence h_n of the same size and the same cost.
GROUP_N_MAX = 4096
GROUP_CLASSES = {
    "odd3": [(3, (3,)), (3, (2, 1)), (3, (1, 1, 1))],
    "odd5": [(5, (2,)), (5, (1, 1))],
    # p = 2 case II: (2,1,1) and (1,1,1,1) are known thm6.2 tightness
    # counterexamples and exit 1 with a correct report.
    "p2-case2": [(2, (2, 2)), (2, (2, 1, 1)), (2, (1, 1, 1, 1))],
    "p2-case1": [(2, (4,)), (2, (3, 1))],
}

# dense-series: one analyze-series per (p, theorem) and one library round
# trip on one of the same series.
DENSE_N = 800
DENSE_COEFF = 50
DENSE_RULES = [
    (2, "cor2.4", [{"l": 2}, {"l": 3}, {"l": 4}]),
    (3, "thm3.1", [{"l": 2}, {"l": 3}]),
    (5, "thm2.1", [{"l": 2, "m": 0}, {"l": 2, "m": 1}]),
]

# free-product-periodicity: (p, n_max, number of factors) per slot.
# No D[m] factors: for m >= 3 the program's dihedral subgroup counts are
# wrong (see NOTES.md), so every such operation would fail its check.
PERIODICITY_SLOTS = [(2, 1000, 2), (3, 1000, 3), (2, 1200, 2)]
PERIODICITY_FACTORS = [
    "C[2]", "C[3]", "C[4]", "C[6]", "C[8]", "C[9]", "C[16]",
    "A[2;1,1]", "A[2;2,1]", "A[3;1,1]",
]
PERIODICITY_CONFIRM = 3

# lattice-oracle: every Abelian p-group type of order 256 (p=2), 243 (p=3)
# and 125 (p=5) of rank <= 5.  Rank 6+ types of order 256 are left out:
# (2,1^6) takes ~5 s and (1^8) ~54 s with the pure backend, which would
# swamp every other type in the round.
LATTICE_RANK_CAP = 5
LATTICE_WEIGHTS = {2: 8, 3: 5, 5: 3}


def _partitions(weight: int, max_part: int | None = None):
    max_part = weight if max_part is None else max_part
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, max_part), 0, -1):
        for rest in _partitions(weight - first, first):
            yield (first,) + rest


LATTICE_POOL = [
    (p, parts)
    for p, weight in LATTICE_WEIGHTS.items()
    for parts in _partitions(weight)
    if len(parts) <= LATTICE_RANK_CAP
]


def spec_of(p: int, parts) -> str:
    return f"A[{p};{','.join(str(a) for a in parts)}]"


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def dense_series(rng: random.Random, n: int, p: int) -> list[int]:
    """Random integer s_1..s_n with the gap S(z^p) - p S(z) p-integral.

    The gap coefficient at j is p (s_{j/p} - s_j) / j when p | j, so the
    repair sets s_j = s_{j/p} + p^{v_p(j)} r.  Index 0 is unused.
    """
    s = [0] * (n + 1)
    for j in range(1, n + 1):
        r = rng.randint(-DENSE_COEFF, DENSE_COEFF)
        s[j] = r if j % p else s[j // p] + p ** _vp(j, p) * r
    return s


def write_series(path: Path, s: list[int], p: int) -> None:
    lines = [f"{len(s) - 1} {p}\n"]
    lines.extend(f"{n} {s[n]} 1\n" for n in range(1, len(s)))
    path.write_text("".join(lines), encoding="utf-8")


def _group_round(rng, workdir: Path, index: int):
    picks = {name: rng.choice(types) for name, types in GROUP_CLASSES.items()}
    ops = [
        {
            "kind": "cli",
            "argv": ["verify-group", "--spec", spec_of(p, parts), "--n-max", str(GROUP_N_MAX)],
            "check": "verify-group",
            "p": p,
            "parts": list(parts),
        }
        for p, parts in picks.values()
    ]
    rng.shuffle(ops)
    # A minority of operations repeat one type through --cache-dir: once
    # cold (miss and write), once warm (hit and read).  Their reports must
    # equal the uncached report byte for byte.
    p, parts = picks["odd5"]
    cache_dir = workdir / f"cache-{index}"
    cache_dir.mkdir()
    for phase in ("cold", "warm"):
        ops.append(
            {
                "kind": "cli",
                "argv": [
                    "verify-group", "--spec", spec_of(p, parts),
                    "--n-max", str(GROUP_N_MAX), "--cache-dir", str(cache_dir),
                ],
                "check": "verify-group",
                "p": p,
                "parts": list(parts),
                "cache": phase,
            }
        )
    return ops


def _dense_round(rng, workdir: Path, index: int):
    ops = []
    for p, theorem, param_choices in DENSE_RULES:
        s = dense_series(rng, DENSE_N, p)
        path = workdir / f"dense-{index}-p{p}.series"
        write_series(path, s, p)
        params = rng.choice(param_choices)
        argv = ["analyze-series", "--input", str(path), "--theorem", theorem]
        for key in ("l", "m"):
            if key in params:
                argv += [f"--{key}", str(params[key])]
        ops.append({"kind": "cli", "argv": argv, "check": "analyze-series", "p": p, "s": s})
    rng.shuffle(ops)
    trip = rng.choice(ops)
    ops.append({"kind": "roundtrip", "input": trip["argv"][2], "check": "roundtrip"})
    return ops


def _periodicity_round(rng, workdir: Path, index: int):
    ops = []
    for p, n_max, n_factors in PERIODICITY_SLOTS:
        spec = "*".join(rng.sample(PERIODICITY_FACTORS, n_factors))
        ops.append(
            {
                "kind": "cli",
                "argv": [
                    "periodicity", "--spec", spec, "--p", str(p), "--n-max", str(n_max),
                    "--confirm-window", str(PERIODICITY_CONFIRM),
                ],
                "check": "periodicity",
                "p": p,
                "spec": spec,
                "n_max": n_max,
            }
        )
    rng.shuffle(ops)
    return ops


def _lattice_round(rng, workdir: Path, index: int):
    ops = [
        {"kind": "lattice", "parts": list(parts), "p": p, "check": "lattice"}
        for p, parts in LATTICE_POOL
    ]
    rng.shuffle(ops)
    return ops


_ROUND_BUILDERS = {
    "group-bounds": _group_round,
    "dense-series": _dense_round,
    "free-product-periodicity": _periodicity_round,
    "lattice-oracle": _lattice_round,
}


def build_rounds(workload: str, seed: int, n_rounds: int, workdir: Path) -> list[list[dict]]:
    """The first ``n_rounds`` rounds of a workload, written under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    builder = _ROUND_BUILDERS[workload]
    return [builder(rng, workdir, index) for index in range(n_rounds)]
