"""Pinned verdicts of `check_hypotheses`.

Every theorem id is run at p in {2, 3, 5} and l, m in {None, 0, ..., 3}
on subgroup-count, zero and rational series, some truncated below p^l.
Each call is written as one line holding what the command line prints of
the report (theorem, p, params, each condition's name, verdict and first
failure, overall and fully_verified) or, for a call that raises, the
exception's type and message.  The SHA-256 of each theorem's lines was
recorded from an earlier tree, so a refactor of the hypothesis checks
must keep every verdict and every error message.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import series_from_map
from dworklab.groups import finite_subgroup_counts, parse_group_spec
from dworklab.series import check_hypotheses


def _counts(spec: str, n_max: int) -> list[int]:
    return finite_subgroup_counts(*parse_group_spec(spec)).values(n_max)


# 5-integral with denominators 3 and 7; 3- and 7-adically non-integral
_RAT = {1: 1, 2: Fraction(1, 3), 3: Fraction(2, 7), 5: Fraction(8, 3), 7: Fraction(4, 21),
        10: Fraction(22, 21), 15: Fraction(37, 7), 25: Fraction(1, 7)}

SERIES = {
    "A[2;1,1]-40": _counts("A[2;1,1]", 40),
    "A[2;2,1,1]-12": _counts("A[2;2,1,1]", 12),
    "A[3;2,1]-20": _counts("A[3;2,1]", 20),
    "A[3;1,1]-90": _counts("A[3;1,1]", 90),
    "A[5;1,1]-30": _counts("A[5;1,1]", 30),
    "zero-30": [0] * 31,
    "zero-3": [0] * 4,
    "rat-60": series_from_map(_RAT, 60),
    "half-24": series_from_map({1: 1, 2: Fraction(1, 2), 3: 1}, 24),
    "mixed-50": [0] + [n * n % 11 - 5 for n in range(1, 51)],
}

PARAMS = (None, 0, 1, 2, 3)


def _line(s: list, p: int, theorem: str, l, m) -> str:
    try:
        rep = check_hypotheses(s, p, theorem, l=l, m=m)
    except Exception as exc:  # the type and message are what is pinned
        return f"raises {type(exc).__name__}: {exc}"
    return json.dumps(
        {
            "theorem": rep.theorem,
            "p": rep.p,
            "params": rep.params,
            "conditions": [[c.name, c.status, c.first_failure] for c in rep.conditions],
            "overall": rep.overall,
            "fully_verified": rep.fully_verified,
        },
        sort_keys=True,
    )


def verdict_lines(theorem: str) -> list[str]:
    return [
        f"{name} p={p} l={l} m={m}: {_line(s, p, theorem, l, m)}"
        for name, s in SERIES.items()
        for p in (2, 3, 5)
        for l in PARAMS
        for m in PARAMS
    ]


# theorem id -> sha256 of its newline-joined verdict lines
DIGESTS = {
    "thm2.1": "6b96d1d795c956c1b08ddfaa42a052979edb56c2fda0c2e39dab38a719fa86ef",
    "cor2.4": "d5d0151528c9b2c2be7edeb31299baa781c9147881e5144538e3e21013341461",
    "cor2.5": "5638a5f959263b1e80f1029c00309686dcccf2c39d7127cc4cde7003c235a0c0",
    "thm2.7": "e2e0e48361c0aa43028284e405f34d7c2bfce0542cb87c489e9efcbc66e6a993",
    "thm3.1": "8107e45df4d409ad8ea7663d8be32b565cfa248580f69144bb2b2add8ee355fe",
    "thm3.3": "251d3b81d5db7c7f5b1403b8dc2c13505cce143216fbaa6a8a7ff60c27a51440",
    "thm3.4": "989859d509ef9bbc339bb3cc204a6e750a3e9d5a7f9bde7cf925c15f36471b90",
    "thm3.7": "bb40fc18da42c9e71ce633cebc0a54a3dae125ca5730aeb5464342c149b49b58",
    "cor3.6": "09a44ef522b5f6c5e0e83299ca27cd1806d5bee1c72839b1ce3d69f61b3c41ed",
}


@pytest.mark.parametrize("theorem", sorted(DIGESTS))
def test_check_hypotheses_verdicts_pinned(theorem):
    text = "\n".join(verdict_lines(theorem))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[theorem]
