"""Value semantics of the package's public record classes.

Records are immutable: assigning a field or a new attribute raises
``AttributeError``.  The validating records raise their ``ValueError``
messages on the inputs they reject, equal keys hash equal, and each
record's repr names its class and fields.
"""

import re

import pytest

from dworklab.applications import (
    CycleRule,
    periodicity_detect,
    supercongruence_check,
    verify_permutation_divisibility,
)
from dworklab.bounds import RULES, BoundKind, floor_lemma_checks, verify_bounds, verify_q_recurrence
from dworklab.groups import PartitionType, abelian_subgroup_counts, parse_group_spec
from dworklab.series import THEOREMS, Condition, check_hypotheses, exp_transform

C2 = [0, 1, 1, 0, 0]


def _records():
    """(record, one of its fields) for every public record class."""
    kind = BoundKind("cor2.4", 2, l=1)
    report = verify_bounds(exp_transform(C2), kind)
    hyp = check_hypotheses(C2, 2, "cor2.4", l=1)
    rule = CycleRule("pi1", 2, 1, frozenset({1}))
    return [
        (kind, "tag"),
        (RULES["thm2.1"], "needs"),
        (report.rows[0], "n"),
        (report, "violations"),
        (verify_q_recurrence(report, C2), "failures"),
        (floor_lemma_checks(2, 1, 4, 2), "ij_checked"),
        (PartitionType((2, 1), 3), "parts"),
        (abelian_subgroup_counts(PartitionType((1, 1), 2)), "counts"),
        (parse_group_spec("C[2]*C[4]"), "variant"),
        (hyp, "theorem"),
        (hyp.conditions[0], "status"),
        (Condition("x", []), "name"),
        (THEOREMS["thm2.1"], "rule"),
        (rule, "variant"),
        (verify_permutation_divisibility(rule, 5), "violations"),
        (supercongruence_check(3, 1, 0, 0), "passed"),
        (periodicity_detect([0, 1] * 8, 2), "period"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def _raises(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_bound_kind_messages():
    with _raises("p must be prime"):
        BoundKind("cor2.4", 4, l=1)
    with _raises("unknown bound kind 'nope'"):
        BoundKind("nope", 2)
    with _raises("thm2.1 needs parameter m"):
        BoundKind("thm2.1", 3, l=2)
    with _raises("thm2.1 needs 0 <= m < l"):
        BoundKind("thm2.1", 3, l=1, m=1)
    with _raises("thm3.1 needs p >= 3, l >= 1, (p, l) != (3, 1)"):
        BoundKind("thm3.1", 3, l=1)
    with _raises("thm6.2 needs p = 2 and a case II partition"):
        BoundKind("thm6.2", 2, partition=(2, 1))
    with _raises("partition must be weakly decreasing positive integers"):
        BoundKind("thm6.1", 3, partition=(1, 2))


def test_partition_type_messages_and_normalisation():
    with _raises("p must be prime"):
        PartitionType((2, 1), 6)
    with _raises("partition parts must be positive"):
        PartitionType((), 3)
    with _raises("partition parts must be positive"):
        PartitionType((2, 0), 3)
    with _raises("partition parts must be weakly decreasing"):
        PartitionType((1, 2), 3)
    t = PartitionType([2, "1"], 3)
    assert t.parts == (2, 1) and type(t.parts) is tuple
    assert all(type(a) is int for a in t.parts)


def test_cycle_rule_messages():
    with _raises("p must be prime"):
        CycleRule("pi1", 9, 1, frozenset({1}))
    with _raises("unknown cycle rule variant 'pi4'"):
        CycleRule("pi4", 2, 1, frozenset({1}))
    with _raises("l must be positive"):
        CycleRule("pi1", 2, 0, frozenset({1}))
    with _raises("base set entries must be positive"):
        CycleRule("pi1", 2, 1, frozenset({0, 1}))


def test_equal_keys_hash_equal():
    a = BoundKind("thm2.1", 3, l=2, m=1)
    b = BoundKind("thm2.1", 3, 2, 1)
    assert a == b and hash(a) == hash(b)
    assert a != BoundKind("thm2.1", 3, l=2, m=0)
    c = BoundKind("thm6.1", 3, partition=(2, 1))
    assert hash(c) == hash(BoundKind("thm6.1", 3, partition=(2, 1)))
    t = PartitionType([2, 1], 3)
    assert t == PartitionType((2, 1), 3) and hash(t) == hash(PartitionType((2, 1), 3))
    assert len({t, PartitionType((2, 1), 3), PartitionType((2, 1), 5)}) == 2


def test_record_reprs():
    assert repr(BoundKind("cor2.4", 2, l=1)) == (
        "BoundKind(tag='cor2.4', p=2, l=1, m=None, partition=None, dihedral_m=None)"
    )
    assert repr(PartitionType([2, 1], 3)) == "PartitionType(parts=(2, 1), p=3)"
    assert repr(abelian_subgroup_counts(PartitionType((1, 1), 2))) == (
        "SubgroupCounts(counts=((1, 1), (2, 3), (4, 1)))"
    )
    assert repr(periodicity_detect([0, 1] * 8, 2)) == (
        "PeriodResult(preperiod=0, period=2, confirmed_window=7, status='detected', horizon=16)"
    )
