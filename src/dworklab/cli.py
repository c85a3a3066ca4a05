"""Command-line front end.

Every run is fully determined by its flags: reports carry no timestamps
or machine identifiers, so identical invocations produce byte-identical
JSON documents.  Exit status is 0 exactly when no bound violation,
hypothesis failure, tightness-claim failure, or oracle mismatch was
found, and nonzero otherwise.  A report's `parameters` lists every flag
except `--output`, which only chooses where the report goes, with the
values the subcommand resolved in place of the raw ones: the prime read
from a series file, the truncation used, a group spec in canonical form,
the parsed odd primes and the sorted base set.

Each `dworklab` process pays for every package module it loads (and,
without a bytecode cache, compiles it), so this module imports only the
package root at module level and each subcommand handler imports the
layers it runs; README, "Layout", lists them.  A `periodicity` run loads
neither the bound catalog nor the series layer, and a `verify-dihedral`
run, which calls `kernels.hall_exp` itself, no series layer.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__

# `sorted(series.THEOREMS)` and `applications.PI_VARIANTS`, as literals so
# that building the parser loads neither module; tests/test_cli.py pins both.
_THEOREM_CHOICES = ("cor2.4", "cor2.5", "cor3.6", "thm2.1", "thm2.7", "thm3.1", "thm3.3", "thm3.4", "thm3.7")
_VARIANT_CHOICES = ("pi1", "pi2", "pi3")

DETERMINISM_NOTE = (
    "deterministic: no timestamps or machine identifiers; identical flags "
    "produce byte-identical output"
)

def _hypothesis_dict(report) -> dict:
    return {
        "theorem": report.theorem,
        "p": report.p,
        "params": report.params,
        "conditions": [
            {
                "condition": c.name,
                "verdict": c.status,
                "first_failure": c.first_failure,
            }
            for c in report.conditions
        ],
        "overall": "pass" if report.overall else "fail",
        "fully_verified": report.fully_verified,
    }


def _parameters(args, **resolved) -> dict:
    """Every flag but ``--output``, which does not change the report, with
    the values the subcommand resolved in place of the raw ones."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand", "output")}
    params.update(resolved)
    return params


def _document(command: str, parameters: dict, truncation, rows, summary, failed):
    return {
        "command": command,
        "parameters": parameters,
        "truncation": truncation,
        "determinism": DETERMINISM_NOTE,
        "rows": rows,
        "summary": summary,
        "exit_status": 1 if failed else 0,
    }


# the text between two rows as the C encoder writes them with the item
# separator of `_ROW_SEPARATORS`, and the same text in the indent=2 layout
_ROW_SEPARATORS = (",\n      ", ": ")
_ROW_BOUNDARY = ("},\n      {", "\n    },\n    {\n      ")


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, with the rows encoded in C.

    CPython runs its C encoder only when ``indent`` is None, so the rows,
    the bulk of a report, are encoded in one call with an item separator
    that already holds the indentation of a row's items, and only the row
    boundaries are rewritten.  This relies on every row being a non-empty
    dict of scalars (str, int, bool or None): then the boundary text can
    only occur between two rows, since an encoded string never holds a
    raw newline.  The other top-level values are small and are encoded
    with ``indent=2`` and shifted one level.
    """
    items = []
    for key in sorted(doc):
        if key == "rows" and doc[key]:
            body = json.dumps(doc[key], sort_keys=True, separators=_ROW_SEPARATORS)
            value = "[\n    {\n      " + body[2:-2].replace(*_ROW_BOUNDARY) + "\n    }\n  ]"
        else:
            value = json.dumps(doc[key], sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(items) + "\n}\n"


# Every subcommand's rows are non-empty dicts of scalars (str, int, bool or
# None): `_json_text` relies on it, and tests/test_cli.py checks it.
def _emit(doc: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = _json_text(doc)
    else:
        rows = doc["rows"]
        lines = []
        if rows:
            keys = sorted(rows[0])
            lines.append("\t".join(keys))
            for row in rows:
                lines.append(
                    "\t".join(_tsv_cell(row.get(k)) for k in keys)
                )
        text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _tsv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze_series(args) -> dict:
    from .bounds import verify_bounds
    from .series import check_hypotheses, exp_transform, load_log_series

    with open(args.input, encoding="utf-8") as f:
        s, file_p = load_log_series(f.read())
    p = args.p if args.p is not None else file_p
    hyp = check_hypotheses(s, p, args.theorem, l=args.l, m=args.m)
    n_hi = len(s) - 1 if args.n_max is None else min(args.n_max, len(s) - 1)
    # row n reads only s_1..s_n, so the transform stops at the last row reported
    report = verify_bounds(exp_transform(s[: n_hi + 1]), hyp.kind)
    failed = not (hyp.overall and report.ok)
    return _document(
        args.subcommand,
        _parameters(args, p=p, n_max=n_hi),
        len(s) - 1,
        report.rows,
        {"bounds": report.summary(), "hypothesis": _hypothesis_dict(hyp)},
        failed,
    )


def _cmd_verify_group(args) -> dict:
    from .bounds import RULES, BoundKind, verify_bounds_mod, verify_q_recurrence
    from .groups import (
        difference_valuation_profile,
        finite_subgroup_counts,
        parse_group_spec,
        partition_case,
    )
    from .series import check_hypotheses

    spec = parse_group_spec(args.spec)
    if spec.variant != "abelian":
        raise ValueError("verify-group expects a single abelian term A[p;...]")
    t = spec.partition
    p = t.p
    n_max = args.n_max
    case, l, m = partition_case(t.parts)
    p2_exception = case == "II" and p == 2
    counts = finite_subgroup_counts(spec)
    s = counts.values(n_max)

    if p2_exception:
        kind = BoundKind("thm6.2", 2, partition=t.parts)
        hyp = check_hypotheses(s, 2, "thm2.7", l=l)
    else:
        kind = BoundKind("thm6.1", p, partition=t.parts)
        hyp = check_hypotheses(s, p, "cor2.5", l=l, m=m)

    report = verify_bounds_mod(s, kind)
    tight_failures: list[int] = []
    qrec_summary = None
    claimed = RULES[kind.tag].tight_classes(kind)
    if report.ok:
        qrec = verify_q_recurrence(report, counts)
        qrec_summary = qrec.summary()
        step = qrec.step
        if qrec.multiplier == 0:
            claimed = []  # tightness precondition (non-congruence) fails
        tight = set(report.tight_set)
        for cls_residue in claimed:
            for n in range(cls_residue, n_max + 1, step):
                if n not in tight:
                    tight_failures.append(n)
    profile_failures = difference_valuation_profile(counts, t)

    failed = (
        not hyp.overall
        or not report.ok
        or bool(tight_failures)
        or (qrec_summary is not None and qrec_summary["failures"])
        or bool(profile_failures)
    )
    return _document(
        args.subcommand,
        _parameters(args, spec=spec.canonical(), p=p),
        n_max,
        report.rows,
        {
            "case": case,
            "l": l,
            "m": m,
            "routed_to_p2_exception": p2_exception,
            "bounds": report.summary(),
            "hypothesis": _hypothesis_dict(hyp),
            "q_recurrence": qrec_summary,
            "tightness_claimed_classes_mod_step": claimed,
            "tightness_failures": sorted(tight_failures),
            "difference_profile_failures": profile_failures,
        },
        failed,
    )


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _cmd_verify_dihedral(args) -> dict:
    from .bounds import BoundKind, verify_bounds
    from .exactcore import check_prime
    from .groups import dihedral_subgroup_counts
    from .kernels import hall_exp

    m = args.m
    odd_primes = (
        [check_prime(q) for q in _int_list("--odd-primes", args.odd_primes)]
        if args.odd_primes
        else []
    )
    if 2 in odd_primes:
        raise ValueError("--odd-primes expects odd primes, got 2")
    h = hall_exp(dihedral_subgroup_counts(m).values(args.n_max))
    kind = BoundKind("thm5.5", 2, dihedral_m=m)
    report = verify_bounds(h, kind)
    exhibitions = {}
    for p in odd_primes:
        first = None
        for n in range(args.odd_n_max + 1):
            if h[n] % p != 0:
                first = n
                break
        exhibitions[str(p)] = first
    failed = not report.ok or any(v is None for v in exhibitions.values())
    return _document(
        args.subcommand,
        _parameters(args, odd_primes=odd_primes),
        args.n_max,
        report.rows,
        {
            "bounds": report.summary(),
            "branch": "n/2" if m % 4 == 0 else "n/2 - n/4",
            "odd_prime_indivisible_at": exhibitions,
        },
        failed,
    )


def _cmd_verify_permutations(args) -> dict:
    from .applications import CycleRule, verify_permutation_divisibility

    base = frozenset(_int_list("--A", args.A))
    rule = CycleRule(args.variant, args.p, args.l, base)
    report = verify_permutation_divisibility(rule, args.n_max)
    return _document(
        args.subcommand,
        _parameters(args, A=sorted(base)),
        args.n_max,
        [{"n": n} for n in report.violations],
        report.summary(),
        not report.ok,
    )


def _cmd_supercongruence(args) -> dict:
    from .applications import supercongruence_sweep

    instances = supercongruence_sweep(args.p, args.a_max)
    rows = [inst.summary() for inst in instances]
    failures = [
        {"a": i.a, "b": i.b, "c": i.c} for i in instances if not i.passed
    ]
    return _document(
        args.subcommand,
        _parameters(args),
        None,
        rows,
        {"instances": len(instances), "failures": failures},
        bool(failures),
    )


def _cmd_periodicity(args) -> dict:
    from .applications import periodicity_detect
    from .groups import parse_group_spec, subgroup_residues_mod_p

    spec = parse_group_spec(args.spec)
    residues = subgroup_residues_mod_p(spec, args.n_max, args.p)
    result = periodicity_detect(residues[1:], args.confirm_window)
    return _document(
        args.subcommand,
        _parameters(args, spec=spec.canonical()),
        args.n_max,
        [{"n": n, "residue": r} for n, r in enumerate(residues[1:], start=1)],
        result.summary(),
        not result.detected,
    )


def _cmd_lemmas(args) -> dict:
    from .bounds import floor_lemma_checks

    report = floor_lemma_checks(args.p, args.l, args.i_max, args.j_max, j_min=args.j_min)
    return _document(
        args.subcommand,
        _parameters(args),
        None,
        [
            {"lemma": "floor-sum-gap", "i": i, "j": j}
            for i, j in report.ij_counterexamples
        ]
        + [
            {"lemma": "half-floor", "j": j, "x": str(x)}
            for j, x in report.half_counterexamples
        ],
        report.summary(),
        not report.ok,
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworklab",
        description="exact verification of p-adic valuation bounds for "
        "exponentials of power series and subgroup/homomorphism counts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_an = sub.add_parser("analyze-series", help="check hypotheses and bounds on a series file")
    p_an.add_argument("--input", required=True, help="series file: header 'N p', lines 'n num den'")
    p_an.add_argument("--p", type=int, help="prime (default: from the file header)")
    p_an.add_argument("--theorem", required=True, choices=_THEOREM_CHOICES)
    p_an.add_argument("--l", type=int)
    p_an.add_argument("--m", type=int)
    p_an.add_argument("--n-max", type=int)
    _add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze_series)

    p_vg = sub.add_parser("verify-group", help="verify bounds/tightness for an abelian p-group")
    p_vg.add_argument("--spec", required=True, help="abelian term, e.g. A[2;1,1]")
    p_vg.add_argument("--n-max", type=int, default=512)
    _add_common(p_vg)
    p_vg.set_defaults(func=_cmd_verify_group)

    p_vd = sub.add_parser("verify-dihedral", help="verify the dihedral 2-adic bound")
    p_vd.add_argument("--m", type=int, required=True, help="dihedral group of order 2m")
    p_vd.add_argument("--n-max", type=int, default=512)
    p_vd.add_argument("--odd-primes", default="3,5")
    p_vd.add_argument("--odd-n-max", type=int, default=200)
    _add_common(p_vd)
    p_vd.set_defaults(func=_cmd_verify_dihedral)

    p_vp = sub.add_parser("verify-permutations", help="verify divisibility of restricted-cycle counts")
    p_vp.add_argument("--variant", required=True, choices=_VARIANT_CHOICES)
    p_vp.add_argument("--p", type=int, required=True)
    p_vp.add_argument("--l", type=int, required=True)
    p_vp.add_argument("--A", metavar="BASE_SET", required=True, help="comma-separated base lengths")
    p_vp.add_argument("--n-max", type=int, default=200)
    _add_common(p_vp)
    p_vp.set_defaults(func=_cmd_verify_permutations)

    p_sc = sub.add_parser("supercongruence", help="run the binomial-sum supercongruence sweep")
    p_sc.add_argument("--p", type=int, required=True)
    p_sc.add_argument("--a-max", type=int, default=4)
    _add_common(p_sc)
    p_sc.set_defaults(func=_cmd_supercongruence)

    p_pd = sub.add_parser("periodicity", help="detect ultimate periodicity of s_n mod p")
    p_pd.add_argument("--spec", required=True, help="group spec, e.g. C[2]*C[16]")
    p_pd.add_argument("--p", type=int, required=True)
    p_pd.add_argument("--n-max", type=int, default=400)
    p_pd.add_argument("--confirm-window", type=int, default=3)
    _add_common(p_pd)
    p_pd.set_defaults(func=_cmd_periodicity)

    p_lm = sub.add_parser("lemmas", help="exhaustively check the floor-sum inequalities")
    p_lm.add_argument("--p", type=int, required=True)
    p_lm.add_argument("--l", type=int, required=True)
    p_lm.add_argument("--i-max", type=int, default=200)
    p_lm.add_argument("--j-max", type=int, default=50)
    p_lm.add_argument("--j-min", type=int, default=0)
    _add_common(p_lm)
    p_lm.set_defaults(func=_cmd_lemmas)

    return parser


# count options and the least value each accepts
_COUNT_FLAGS = (("n_max", "--n-max", 1), ("odd_n_max", "--odd-n-max", 0), ("a_max", "--a-max", 1))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, flag, least in _COUNT_FLAGS:
            value = getattr(args, dest, None)
            if value is not None and value < least:
                raise ValueError(f"{flag} must be at least {least}, got {value}")
        doc = args.func(args)
        _emit(doc, args.format, args.output)
        return doc["exit_status"]
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
