import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworklab import applications, bounds, cli
from dworklab.bounds import BoundKind
from dworklab.cli import build_parser, main
from dworklab.groups import PartitionType, abelian_subgroup_counts
from dworklab.series import THEOREMS, dump_log_series


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_verify_group_klein(capsys):
    code, doc, _ = run_json(capsys, ["verify-group", "--spec", "A[2;1,1]", "--n-max", "64"])
    assert code == 0 and doc["exit_status"] == 0
    summary = doc["summary"]
    assert summary["case"] == "II" and summary["routed_to_p2_exception"]
    assert summary["tightness_claimed_classes_mod_step"] == [0, 4, 8]
    assert summary["tightness_failures"] == []
    assert summary["q_recurrence"]["step"] == 16
    assert summary["hypothesis"]["overall"] == "pass"


def test_verify_group_surfaces_tightness_defect(capsys):
    # for type (2,1,1) the claimed class 2^{A_1+2} = 16 (mod 32) is not
    # tight; the harness must exit nonzero and name the failures
    code, doc, _ = run_json(capsys, ["verify-group", "--spec", "A[2;2,1,1]", "--n-max", "64"])
    assert code == 1 and doc["exit_status"] == 1
    assert doc["summary"]["tightness_failures"] == [16, 48]
    assert doc["summary"]["bounds"]["violations"] == []


def test_verify_group_case_i(capsys):
    code, doc, _ = run_json(capsys, ["verify-group", "--spec", "A[3;2,1]", "--n-max", "120"])
    assert code == 0
    assert doc["summary"]["case"] == "I"
    assert doc["summary"]["q_recurrence"]["step"] == 27
    assert doc["summary"]["q_recurrence"]["multiplier_mod_p"] == 1  # (-1)^{a_1} = 1


def test_verify_group_prints_the_report_rows(capsys):
    # the report holds each row as the dict the document prints
    s = abelian_subgroup_counts(PartitionType((2, 1), 3)).values(256)
    kind = BoundKind("thm6.1", 3, partition=(2, 1))
    _, doc, _ = run_json(capsys, ["verify-group", "--spec", "A[3;2,1]", "--n-max", "256"])
    assert doc["rows"] == bounds.verify_bounds_mod(s, kind).rows


@pytest.mark.parametrize(
    "spec, n_max", [("A[3;1,1]", 8), ("A[3;1]", 2), ("A[2;1,1]", 1), ("A[2;1,1]", 7), ("A[2;1]", 3)]
)
def test_verify_group_n_max_below_recurrence_index(capsys, spec, n_max):
    # rho reads s at an index above n_max; a group's counts are exact there
    code, doc, err = run_json(capsys, ["verify-group", "--spec", spec, "--n-max", str(n_max)])
    assert code == 0 and err == ""
    assert doc["summary"]["q_recurrence"]["rows_checked"] == 0


def test_verify_group_rejects_bad_spec(capsys):
    code, out, err = run(capsys, ["verify-group", "--spec", "C[4]"])
    assert code == 2 and "abelian" in err


@pytest.mark.parametrize("spec", ["C[3]*A[3;1,1]", "C[3]"])
def test_verify_group_takes_one_abelian_factor(capsys, spec):
    code, out, err = run(capsys, ["verify-group", "--spec", spec])
    assert (code, out) == (2, "")
    assert err == "error: verify-group expects a single abelian term A[p;...]\n"


def test_determinism_byte_identical(capsys):
    argv = ["verify-group", "--spec", "A[2;1,1]", "--n-max", "32"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_series_zero_series(capsys, tmp_path):
    path = tmp_path / "zero.series"
    path.write_text(dump_log_series([0] * 13, 2))
    code, doc, _ = run_json(
        capsys,
        ["analyze-series", "--input", str(path), "--theorem", "cor2.4", "--l", "1"],
    )
    assert code == 0
    assert doc["summary"]["bounds"]["violations"] == []
    assert doc["summary"]["hypothesis"]["overall"] == "pass"


def test_analyze_series_c2(capsys, tmp_path):
    path = tmp_path / "c2.series"
    path.write_text(dump_log_series([0, 1, 1] + [0] * 38, 2))
    code, doc, _ = run_json(
        capsys,
        ["analyze-series", "--input", str(path), "--theorem", "cor2.4", "--l", "2"],
    )
    assert code == 0
    rows = doc["rows"]
    assert rows[8] == {"n": 8, "valuation": 2, "bound": 2, "slack": 0, "tight": True}


def test_analyze_series_failing_hypothesis(capsys, tmp_path):
    path = tmp_path / "bad.series"
    path.write_text(dump_log_series([0, 0, 1, 0, 0, 0, 0, 0, 0], 2))
    code, doc, _ = run_json(
        capsys,
        ["analyze-series", "--input", str(path), "--theorem", "cor2.4", "--l", "2"],
    )
    assert code == 1
    conditions = {c["condition"]: c for c in doc["summary"]["hypothesis"]["conditions"]}
    gap = conditions["gap integrality below z^(p^l)"]
    assert gap["verdict"] == "fail" and gap["first_failure"] == 2


def test_analyze_series_non_integer_token_exits_2(capsys, tmp_path):
    path = tmp_path / "token.series"
    path.write_text("2 3\n1 1 1\n2 x 1\n")
    code, out, err = run(capsys, ["analyze-series", "--input", str(path), "--theorem", "cor3.6"])
    assert code == 2 and out == ""
    assert err == "error: malformed series line '2 x 1'\n"


@pytest.mark.parametrize(
    "header, flags",
    [("2 3", ["--p", "9"]), ("2 4", [])],
    ids=["flag", "header"],
)
def test_analyze_series_composite_p_exits_2(capsys, tmp_path, header, flags):
    path = tmp_path / "composite.series"
    path.write_text(f"{header}\n1 1 1\n2 1 1\n")
    code, out, err = run(
        capsys, ["analyze-series", "--input", str(path), "--theorem", "cor2.4", "--l", "1", *flags]
    )
    assert code == 2 and out == ""
    assert err == "error: p must be prime\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-group", "--spec", "A[2;1,1]"], "--cache-dir"),
        (["verify-dihedral", "--m", "6"], "--cache-dir"),
        (["verify-group", "--spec", "A[3;1]"], "--p"),
    ],
    ids=["verify-group", "verify-dihedral", "verify-group-p"],
)
def test_cache_dir_flag_is_gone(capsys, tmp_path, argv, flag):
    # h is recomputed on every run, so there is no cache to point at, and
    # verify-group reads p from the spec
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_dihedral(capsys):
    code, doc, _ = run_json(capsys, ["verify-dihedral", "--m", "6", "--n-max", "64"])
    assert code == 0
    assert doc["summary"]["branch"] == "n/2 - n/4"
    assert doc["summary"]["odd_prime_indivisible_at"]["3"] is not None
    code, doc, _ = run_json(capsys, ["verify-dihedral", "--m", "8", "--n-max", "64"])
    assert code == 0 and doc["summary"]["branch"] == "n/2"


def test_verify_dihedral_checks_odd_primes_before_h(capsys, monkeypatch):
    import dworklab.kernels as kernels

    def spy(s):
        raise AssertionError("h computed before --odd-primes was checked")

    monkeypatch.setattr(kernels, "hall_exp", spy)
    code, out, err = run(capsys, ["verify-dihedral", "--m", "6", "--odd-primes", "4"])
    assert code == 2 and out == ""
    assert err == "error: p must be prime\n"
    code, out, err = run(capsys, ["verify-dihedral", "--m", "6", "--n-max", "8", "--odd-primes", "2"])
    assert code == 2 and out == ""
    assert err == "error: --odd-primes expects odd primes, got 2\n"


def test_verify_group_counts_once_and_transforms_once(capsys, monkeypatch):
    # s, h, the bounds and the difference profile all come from one count,
    # and the rows from h modulo p^(E+64): the exact h is never built
    import dworklab.groups as groups
    import dworklab.kernels as kernels
    from dworklab.bounds import _GUARD, BoundKind, bound_value

    calls = []
    abelian_subgroup_counts = groups.abelian_subgroup_counts
    hall_exp = kernels.hall_exp

    def spy_counts(*args):
        calls.append("abelian_subgroup_counts")
        return abelian_subgroup_counts(*args)

    def spy_exp(s, *, modulus=None):
        calls.append(("hall_exp", modulus))
        return hall_exp(s, modulus=modulus)

    monkeypatch.setattr(groups, "abelian_subgroup_counts", spy_counts)
    monkeypatch.setattr(kernels, "hall_exp", spy_exp)
    code, _, _ = run(capsys, ["verify-group", "--spec", "A[3;2,1]", "--n-max", "64"])
    assert code == 0
    kind = BoundKind("thm6.1", 3, partition=(2, 1))
    modulus = 3 ** (max(bound_value(kind, n) for n in range(65)) + _GUARD)
    assert calls == ["abelian_subgroup_counts", ("hall_exp", modulus)]


@pytest.mark.parametrize("spec", ["A[3;2,1]", "A[2;2,1,1]"])
def test_verify_group_falls_back_to_exact_h(capsys, monkeypatch, spec):
    # with no guard digits h is reduced modulo p^E, E = max e(n), so a row
    # with v_p(h_n) >= E reads 0 and only the exact h settles it (n = 72,
    # 75, 77-80 for A[3;2,1], n = 80 for A[2;2,1,1]); the reports must not
    # change
    import dworklab.bounds as bounds
    import dworklab.kernels as kernels

    argvs = [
        ["verify-group", "--spec", spec, "--n-max", "80", "--format", fmt]
        for fmt in ("json", "tsv")
    ]
    expected = [run(capsys, argv) for argv in argvs]
    runs = []
    hall_exp = kernels.hall_exp

    def spy(s, *, modulus=None):
        runs.append((len(s) - 1, modulus is None))
        return hall_exp(s, modulus=modulus)

    monkeypatch.setattr(kernels, "hall_exp", spy)
    monkeypatch.setattr(bounds, "_GUARD", 0)
    for argv, before in zip(argvs, expected):
        runs.clear()
        assert run(capsys, argv) == before
        # first modulo p^E, then, once, exactly
        assert runs == [(80, False), (80, True)]


def test_verify_permutations(capsys):
    code, doc, _ = run_json(
        capsys,
        ["verify-permutations", "--variant", "pi1", "--p", "2", "--l", "2", "--A", "1", "--n-max", "80"],
    )
    assert code == 0 and doc["summary"]["allowed_lengths"] == [1, 2]


def test_supercongruence_cli(capsys):
    code, doc, _ = run_json(capsys, ["supercongruence", "--p", "2", "--a-max", "2"])
    assert code == 0 and doc["summary"]["instances"] == 8
    assert doc["summary"]["failures"] == []


def test_periodicity_cli(capsys):
    code, doc, _ = run_json(
        capsys, ["periodicity", "--spec", "C[2]*C[16]", "--p", "2", "--n-max", "120"]
    )
    assert code == 0 and doc["summary"]["status"] == "detected"


def test_lemmas_cli(capsys):
    code, doc, _ = run_json(capsys, ["lemmas", "--p", "2", "--l", "1", "--i-max", "40", "--j-max", "10"])
    assert code == 0 and doc["rows"] == []
    code, doc, _ = run_json(
        capsys,
        ["lemmas", "--p", "2", "--l", "1", "--i-max", "4", "--j-max", "4", "--j-min", "-4"],
    )
    assert code == 1
    assert any(row["lemma"] == "half-floor" for row in doc["rows"])


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--i-max", "-5"], "i_max must be at least p**l = 2", id="i-max"),
        pytest.param(["--j-max", "-1"], "j_max must be non-negative", id="j-max"),
        pytest.param(["--j-min", "5", "--j-max", "2"], "j_max must be at least j_min = 5", id="j-min"),
    ],
)
def test_lemmas_empty_grid_exits_2(capsys, flags, message):
    code, out, err = run(capsys, ["lemmas", "--p", "2", "--l", "1"] + flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            ["verify-dihedral", "--m", "4", "--n-max", "16", "--odd-primes", "3,x"],
            "--odd-primes",
            id="odd-primes",
        ),
        pytest.param(
            ["verify-permutations", "--variant", "pi1", "--p", "2", "--l", "2", "--A", "1,x"],
            "--A",
            id="A",
        ),
    ],
)
def test_comma_list_flag_named_on_error(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert f"{flag} expects comma-separated integers, got '{argv[-1]}'" in err


def test_tsv_output(capsys, tmp_path):
    path = tmp_path / "c2.series"
    path.write_text(dump_log_series([0, 1, 1, 0, 0], 2))
    code, out, _ = run(
        capsys,
        ["analyze-series", "--input", str(path), "--theorem", "cor2.4", "--l", "2", "--format", "tsv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["bound", "n", "slack", "tight", "valuation"]
    assert lines[1].split("\t") == ["0", "0", "0", "true", "0"]


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["verify-group", "--spec", "A[2;1,1]", "--n-max", "16", "--output", str(out_path)],
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["command"] == "verify-group"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, fmt):
    # 601 rows: past two blocks of rows
    argv = ["verify-group", "--spec", "A[2;1,1]", "--n-max", "600", "--format", fmt]
    code, out, _ = run(capsys, argv)
    path = tmp_path / "report"
    assert run(capsys, [*argv, "--output", str(path)]) == (code, "", "")
    assert path.read_bytes() == out.encode()
    if fmt == "tsv":
        rows = json.loads(run(capsys, argv[:-2])[1])["rows"]
        keys = sorted(rows[0])
        lines = ["\t".join(keys)]
        lines += ["\t".join(cli._tsv_cell(row[k]) for k in keys) for row in rows]
        assert out == "\n".join(lines) + "\n"


def test_emit_holds_less_than_the_report_text(monkeypatch, tmp_path):
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt, output: docs.append(doc))
    main(["verify-group", "--spec", "A[3;1,1,1]", "--n-max", "4096"])
    monkeypatch.undo()
    (doc,) = docs
    text_length = len(json.dumps(doc, sort_keys=True, indent=2)) + 1
    tracemalloc.start()
    try:
        cli._emit(doc, "json", str(tmp_path / "report.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "report.json").stat().st_size == text_length
    assert peak < text_length


def test_reader_closing_early_keeps_the_exit_status():
    # the report is far longer than a pipe's buffer, so writes go on
    # after the reader has closed the pipe
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dworklab.cli", "verify-group", "--spec", "A[3;3]", "--n-max", "4096"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_output_into_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys,
        ["verify-group", "--spec", "A[2;1,1]", "--n-max", "16", "--output", str(out_path)],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert not out_path.parent.exists()


def test_analyze_series_theorem_choices_are_the_theorem_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in sub.choices["analyze-series"]._actions if a.dest == "theorem")
    assert list(option.choices) == sorted(THEOREMS)


def test_verify_permutations_variant_choices_are_the_rule_variants():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in sub.choices["verify-permutations"]._actions if a.dest == "variant")
    assert tuple(option.choices) == applications.PI_VARIANTS


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify-group"])  # missing --spec
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-series", "--input", "c2.series", "--theorem", "cor2.4", "--l", "2", "--n-max", "0"],
        ["verify-group", "--spec", "A[2;1,1]", "--n-max", "0"],
        ["verify-dihedral", "--m", "4", "--n-max", "-3"],
        ["verify-permutations", "--variant", "pi2", "--p", "3", "--l", "1", "--A", "1", "--n-max", "-3"],
        ["periodicity", "--spec", "C[2]*C[4]", "--p", "2", "--n-max", "-3"],
        pytest.param(["verify-dihedral", "--m", "4", "--n-max", "16", "--odd-n-max", "-3"], id="odd-n-max"),
        pytest.param(["supercongruence", "--p", "3", "--a-max", "-1"], id="a-max"),
        pytest.param(["supercongruence", "--p", "3", "--a-max", "0"], id="a-max-zero"),
    ],
    ids=lambda argv: argv[0],
)
def test_n_max_below_one_exits_2(capsys, tmp_path, monkeypatch, argv):
    # a count option below its least value; the flag is argv[-2]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c2.series").write_text(dump_log_series([0, 1, 1, 0, 0], 2))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"{argv[-2]} must be at least" in err


# text that JSON escapes, a row boundary's own characters, and non-ASCII
_TRICKY = st.sampled_from(['"', "\\", "\n", "},", "},\n      {", "\t", "\u00e9", "\u2603", "\U0001f600"])
_TEXT = st.lists(st.one_of(st.text(max_size=4), _TRICKY), max_size=4).map("".join)
_SCALARS = st.one_of(
    _TEXT, st.booleans(), st.none(), st.integers(), st.integers(-(10**80), 10**80)
)
_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12,
)


@settings(deadline=None, max_examples=300)
@given(
    command=_TEXT,
    parameters=st.dictionaries(_TEXT, _SCALARS, max_size=4),
    truncation=st.none() | st.integers(0, 10**6),
    rows=st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=5), max_size=6),
    summary=_NESTED,
    failed=st.booleans(),
)
@example(command="c", parameters={}, truncation=None, rows=[], summary={}, failed=False)
@example(
    command="c",
    parameters={},
    truncation=0,
    rows=[{"a": '},\n      {"b": 1'}, {"},": "\\"}],
    summary={"x": [{"y": None}]},
    failed=True,
)
def test_json_text_is_indented_json(command, parameters, truncation, rows, summary, failed):
    doc = cli._document(command, parameters, truncation, rows, summary, failed)
    assert "".join(cli._json_pieces(doc)) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_B = cli._ROW_BLOCK


@pytest.mark.parametrize("n_rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_json_pieces_cross_row_blocks(n_rows):
    rows = [
        {"n": n, "text": '},\n      {"b": 1', "tight": n % 3 == 0, "slack": None}
        for n in range(n_rows)
    ]
    doc = cli._document("c", {"n_max": n_rows}, n_rows, rows, {"x": [1, {"y": 2}]}, False)
    pieces = list(cli._json_pieces(doc))
    assert "".join(pieces) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # no piece holds more than one block of rows
    assert max(piece.count('"n": ') for piece in pieces) == min(n_rows, _B)


def test_every_subcommand_reports_flat_rows(monkeypatch, tmp_path):
    # `cli._json_pieces` requires every row to be a non-empty dict of scalars
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, fmt, output: docs.append(doc))
    # no permutation rule at hand is violated, so report two made-up violations
    real = applications.verify_permutation_divisibility
    monkeypatch.setattr(
        applications,
        "verify_permutation_divisibility",
        lambda rule, n_max: real(rule, n_max)._replace(violations=[3, 5]),
    )
    path = tmp_path / "c2.series"
    path.write_text(dump_log_series([0, 1, 1] + [0] * 14, 2))
    argvs = {
        "analyze-series": ["--input", str(path), "--theorem", "cor2.4", "--l", "2"],
        "verify-group": ["--spec", "A[2;1,1]", "--n-max", "16"],
        "verify-dihedral": ["--m", "6", "--n-max", "16"],
        "verify-permutations": ["--variant", "pi1", "--p", "2", "--l", "1", "--A", "1", "--n-max", "8"],
        "supercongruence": ["--p", "3", "--a-max", "1"],
        "periodicity": ["--spec", "C[2]*C[4]", "--p", "2", "--n-max", "16"],
        "lemmas": ["--p", "2", "--l", "1", "--i-max", "4", "--j-max", "4", "--j-min", "-4"],
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(argvs) == set(sub.choices)
    for name, flags in argvs.items():
        main([name, *flags])
        doc = docs.pop()
        # a report names its subcommand and records every flag but --output
        assert doc["command"] == name
        dests = {a.dest for a in sub.choices[name]._actions} - {"help", "output"}
        assert dests <= set(doc["parameters"]), name
        rows = doc["rows"]
        assert rows, name
        for row in rows:
            assert type(row) is dict and row, name
            assert all(type(v) in (str, int, bool, type(None)) for v in row.values()), (name, row)
