import argparse
import json

import pytest

from dworklab.cli import build_parser, main
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

    def spy(s, n_max):
        raise AssertionError("h computed before --odd-primes was checked")

    monkeypatch.setattr(kernels, "hall_exp", spy)
    code, out, err = run(capsys, ["verify-dihedral", "--m", "6", "--odd-primes", "4"])
    assert code == 2 and out == ""
    assert err == "error: p must be prime\n"


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

    def spy_exp(s, n_max, modulus=None):
        calls.append(("hall_exp", modulus))
        return hall_exp(s, n_max, modulus)

    monkeypatch.setattr(groups, "abelian_subgroup_counts", spy_counts)
    monkeypatch.setattr(kernels, "hall_exp", spy_exp)
    code, _, _ = run(capsys, ["verify-group", "--spec", "A[3;2,1]", "--n-max", "64"])
    assert code == 0
    kind = BoundKind("thm6.1", 3, partition=(2, 1))
    modulus = 3 ** (max(bound_value(kind, n) for n in range(65)) + _GUARD)
    assert calls == ["abelian_subgroup_counts", ("hall_exp", modulus)]


@pytest.mark.parametrize("spec", ["A[3;2,1]", "A[2;2,1,1]"])
def test_verify_group_falls_back_to_exact_h(capsys, monkeypatch, spec):
    # with no guard digits every row with v_p(h_n) >= e(n) reads 0 modulo
    # p^e(n), so only the exact h settles it; the reports must not change
    import dworklab.bounds as bounds
    import dworklab.kernels as kernels

    argvs = [
        ["verify-group", "--spec", spec, "--n-max", "80", "--format", fmt]
        for fmt in ("json", "tsv")
    ]
    expected = [run(capsys, argv) for argv in argvs]
    runs = []
    hall_exp = kernels.hall_exp

    def spy(s, n_max, modulus=None):
        runs.append((n_max, modulus is None))
        return hall_exp(s, n_max, modulus)

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
