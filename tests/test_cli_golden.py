"""Byte-identity pins for the command line.

Each case runs `dworklab.cli.main` in-process and compares its exit status
and the SHA-256 of its stdout with values recorded from an earlier tree, so
a refactor that must keep every report byte for byte is checked here. Runs
that exit 0 or 1 must also write nothing to stderr. Runs that exit 2 pin
only the status and the `error: ` prefix, so a validation message may be
reworded without touching this file.

The runs happen in a temporary working directory with relative `--input`
names, because `analyze-series` echoes the input path in its report.
"""

import hashlib

import pytest

from dworklab.cli import main

# name -> (p, N, {n: s_n}) for the series files the runs read; the
# supports are subgroup counts of small Abelian groups, plus series with
# non-integral coefficients: rat5 is 5-integral with denominators 3 and 7
# and meets the gap condition below z^25 (s_5k = s_k mod 5 for k < 5), and
# odd3 is the Klein four-group's series plus a 2-adically small term at
# every other index, over 3 at odd ones, which meets thm2.7 at l = 2
SERIES = {
    "k4.series": (2, 64, {1: 1, 2: 3, 4: 1}),
    "inv.series": (2, 64, {1: 1, 2: 1}),
    "c3c3.series": (3, 81, {1: 1, 3: 4, 9: 1}),
    "c5c5.series": (5, 60, {1: 1, 5: 6, 25: 1}),
    "half.series": (3, 24, {1: 1, 2: (1, 2), 3: 1}),
    "rat5.series": (
        5,
        125,
        {1: 1, 2: (1, 3), 3: (2, 7), 5: (8, 3), 7: (4, 21), 10: (22, 21), 15: (37, 7), 25: (1, 7)},
    ),
    "odd3.series": (
        2,
        96,
        {n: (2 ** (n // 2) * (n % 5 + 1), 3 if n % 2 else 1) for n in range(1, 97)}
        | {1: 1, 2: 3, 4: 1},
    ),
}

# (id, argv, exit status, sha256 of stdout; None where the status is 2)
CASES = [
    ("an-thm2.1", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm2.1", "--l", "2", "--m", "1"], 0, "6b432ddb3499af94b23380afc4de64b92b4b1141b576ac6c1cb5d08bd2469735"),
    ("an-cor2.4", ["analyze-series", "--input", "inv.series", "--theorem", "cor2.4", "--l", "2"], 0, "497fb0af59f93ce6be1ecd74599e7d52945a0d531b4780ed7d70b57cd71433ba"),
    ("an-cor2.5", ["analyze-series", "--input", "k4.series", "--theorem", "cor2.5", "--l", "2", "--m", "1"], 1, "79617305dcc5050598de7e7e05f83723d166c03ec2e8bd426a9df4ffc4f299f1"),
    ("an-thm2.7", ["analyze-series", "--input", "k4.series", "--theorem", "thm2.7", "--l", "2"], 0, "983c9b6b91074dd96f0ba34f9eb33c9ddde3011333602da334f439fba565a002"),
    ("an-thm3.1", ["analyze-series", "--input", "c5c5.series", "--theorem", "thm3.1", "--l", "1"], 0, "28fc2fab685d1cb832985317c30ffb869befb9099b61c1b49a756e8b617a67e5"),
    ("an-thm3.3", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm3.3"], 0, "b6cf83c7a30fcf24e02846503457d88727bc53ca671bc7d89ad042c015e60474"),
    ("an-thm3.3-l2", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm3.3", "--l", "2"], 0, "efda2ace28d064ce540848d4867b3ae9c9541ad0e020d009aafd5df8acce442c"),
    ("an-thm3.4-tsv", ["analyze-series", "--input", "inv.series", "--theorem", "thm3.4", "--l", "1", "--format", "tsv"], 0, "c5c053340455656f5e0b70408f3bfa4719913a6195740787ff8c94920e5cdac7"),
    ("an-thm3.7", ["analyze-series", "--input", "c5c5.series", "--theorem", "thm3.7", "--l", "1", "--n-max", "40"], 0, "2628a290cb6a0690f4ce0e3f0571d5c4a11006c3d45c85ef89b0716323625aa1"),
    ("an-cor3.6", ["analyze-series", "--input", "c3c3.series", "--theorem", "cor3.6"], 0, "7d2e19135dfb78907349004f501a3fefc031151f889eb5078e738a30883a882b"),
    ("an-cor3.6-fraction", ["analyze-series", "--input", "half.series", "--theorem", "cor3.6"], 0, "90e2393abc858f396f4fc40e48164b0f32a839c9fce92b9168432a1aaeef22c0"),
    ("an-cor3.6-l2", ["analyze-series", "--input", "c3c3.series", "--theorem", "cor3.6", "--l", "2"], 0, "28e11546f551565b26bd6cfde5273ab78dd77c0f1f48742b0321de4d7588731a"),
    ("an-rat5-cor2.4", ["analyze-series", "--input", "rat5.series", "--theorem", "cor2.4", "--l", "2"], 0, "96782ca3b5ced7385a9b74da4692492a13caf7c5a4f53dbca0d17adebe8017a8"),
    ("an-rat5-thm2.1", ["analyze-series", "--input", "rat5.series", "--theorem", "thm2.1", "--l", "2", "--m", "0"], 0, "2e2b68a5b60799252cc5c1b7725198c91768a1c1469e2918df28e8af86fc73c0"),
    ("an-rat5-thm2.1-tsv", ["analyze-series", "--input", "rat5.series", "--theorem", "thm2.1", "--l", "2", "--m", "0", "--format", "tsv"], 0, "2eda62dc9ee5d3020ccd3dd7426225aeda53264c6dcf27595d8fdb4733b910c9"),
    ("an-odd3-thm2.7", ["analyze-series", "--input", "odd3.series", "--theorem", "thm2.7", "--l", "2"], 0, "a86da9987798cb032ae6cacb89620dace9d7c45c98cdd71b339bcaf5b50ca1e2"),
    ("an-thm3.7-p3-l1", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm3.7", "--l", "1"], 2, None),
    ("an-thm2.1-no-m", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm2.1", "--l", "2"], 2, None),
    ("an-thm2.7-p3", ["analyze-series", "--input", "c3c3.series", "--theorem", "thm2.7", "--l", "2"], 2, None),
    ("an-cor2.4-violated", ["analyze-series", "--input", "k4.series", "--theorem", "cor2.4", "--l", "3"], 1, "ab22e785fc99069b09ea4967fecf62919348d0a40f8fadd95d0ded4aba39334f"),
    ("vg-3-21", ["verify-group", "--spec", "A[3;2,1]", "--n-max", "100"], 0, "043c6a9010cf47132696040ae7a2860f0a846f77fedbc6f817d6295d4150c608"),
    # at n = 1024 the valuations exceed 64, beyond one chunk of p^64
    ("vg-3-21-n1024", ["verify-group", "--spec", "A[3;2,1]", "--n-max", "1024"], 0, "53a79b1d7fef370918c1ecb2dde8ac8fe86bd4f265cc7ff38149373179d6a78d"),
    ("vg-5-11-n1024-tsv", ["verify-group", "--spec", "A[5;1,1]", "--n-max", "1024", "--format", "tsv"], 0, "708db969933cfbd485a8048300c391071f42f8d57c3df0362b4b8cc064ad99f7"),
    ("vg-3-111", ["verify-group", "--spec", "A[3;1,1,1]", "--n-max", "100"], 0, "112b735f65f65eb841cbb277450e09f8d39eedd6dfb26999cf70963a1a2cd591"),
    ("vg-2-11-tsv", ["verify-group", "--spec", "A[2;1,1]", "--n-max", "64", "--format", "tsv"], 0, "6ad717e97d03946b18eec41fce61b0ff63b4af5d71f0f3d9ca13c285e2481a15"),
    ("vg-2-211", ["verify-group", "--spec", "A[2;2,1,1]", "--n-max", "64"], 1, "9d5e611e0a312908b1c3b2ed45ba1cf28e1eb98114483ac29b9f140025d7a759"),
    ("vg-2-31", ["verify-group", "--spec", "A[2;3,1]", "--n-max", "64"], 0, "bdb2ecece982d152f4f1f35bb6beb9bf5116022bb68daee69ff9951d4a2d6024"),
    ("vg-3-11", ["verify-group", "--spec", "A[3;1,1]", "--n-max", "60"], 0, "a8df0fe520fa1cbc36e7a22b45e45bfe08414cb1d3f554dfa5d7fb011d51656a"),
    # p = 2 case II of rank 4: the claimed class 2^(A_1+2) is not tight
    ("vg-2-1111-n1024", ["verify-group", "--spec", "A[2;1,1,1,1]", "--n-max", "1024"], 1, "1239b9c2edebc8272cbc3cc0bc916fa23cfc6d3a3a3c809c20526b7b79729978"),
    # wide support (s_n != 0 up to n = p^weight), so every row steps every k
    ("vg-2-12-n1024", ["verify-group", "--spec", "A[2;12]", "--n-max", "1024"], 0, "a165b307a0428bef7db385a55489e7581f2f8951c40d7b89ef9ca788bafeead7"),
    ("vg-3-7-n512", ["verify-group", "--spec", "A[3;7]", "--n-max", "512"], 0, "03980c4ce18a1e2fb5f6d4f32cb82a0e4d6087933587c421d3f0907bedb0abfb"),
    # the n the group-bounds benchmark runs, passing and failing
    ("vg-5-11-n4096", ["verify-group", "--spec", "A[5;1,1]", "--n-max", "4096"], 0, "3a725cc004ae017f8677a43530c2b621f070c15bef4a1da277e0a86866e017e4"),
    ("vg-2-211-n4096", ["verify-group", "--spec", "A[2;2,1,1]", "--n-max", "4096"], 1, "0bb39968daa49e8769b219ecc56792fa57158e8542d343fae051d124d80cf65c"),
    ("vg-not-abelian", ["verify-group", "--spec", "C[4]"], 2, None),
    ("vd-12", ["verify-dihedral", "--m", "12", "--n-max", "64", "--odd-n-max", "50"], 0, "c41fc57defc092422abc1708c8c268c0fccce73ac283f41e8219a2d8e70ef8ab"),
    # the n/2 - n/4 branch (m not divisible by 4), for even and odd m
    ("vd-6-n512", ["verify-dihedral", "--m", "6", "--n-max", "512"], 0, "b5bf1accf4a0879d43816d94c2a7573e4dd45c727f9b5092dc407fafb76657d8"),
    ("vd-9-n512", ["verify-dihedral", "--m", "9", "--n-max", "512"], 0, "41e2239e9684b7b5c220a7ea11f19215d7392b91d2a8418ce995f0d3c40e13ac"),
    ("vp-pi2-3-1", ["verify-permutations", "--variant", "pi2", "--p", "3", "--l", "1", "--A", "1", "--n-max", "60"], 0, "eb87f41fd7971452b06eeb0ea3a473600e6932d73fe9f0e567ddb636931c5889"),
    ("vp-pi3-5-1", ["verify-permutations", "--variant", "pi3", "--p", "5", "--l", "1", "--A", "1,2", "--n-max", "60"], 0, "f902577eb5ddd42c6400abdf460eb16e72069322b6dd92d0d414f03c8120184a"),
    ("vp-pi3-3-1", ["verify-permutations", "--variant", "pi3", "--p", "3", "--l", "1", "--A", "1"], 2, None),
    ("sc-3", ["supercongruence", "--p", "3", "--a-max", "2"], 0, "68ddc73bbcf6c6d20d4e72140582831d36108f6aed595a719adc516e04be23ca"),
    ("pd-c2c4", ["periodicity", "--spec", "C[2]*C[4]", "--p", "2", "--n-max", "60"], 0, "6664f2da555415ec439ec22cc1b40d32013f53a48b9049ea57985250ce471a4b"),
    # workload-scale residues: products with a p-part at their own prime
    # (C[2]*C[16], A[3;1,1]*C[9], C[4]*C[6]) and one without (C[3]*C[9] at p = 2)
    ("pd-c2c16-n1000", ["periodicity", "--spec", "C[2]*C[16]", "--p", "2", "--n-max", "1000"], 0, "4b0f136649e70d7157a0e3c7d94dd9ac78b6cb43c92694cd0432b2dcf03273ee"),
    ("pd-a311c9-p3-n1000", ["periodicity", "--spec", "A[3;1,1]*C[9]", "--p", "3", "--n-max", "1000"], 0, "e29d0001cc237b89de8668f54b0b303dda1a07c6576061374ed52e130a568423"),
    ("pd-c4c6-n1200", ["periodicity", "--spec", "C[4]*C[6]", "--p", "2", "--n-max", "1200"], 0, "3724f0e195498e2a5b67a876f44afb1cbf47c1053da71423d5293490c3955688"),
    ("pd-c3c9-p2-n1000", ["periodicity", "--spec", "C[3]*C[9]", "--p", "2", "--n-max", "1000"], 1, "2edf40dbb231a1069d188a34cfcc38102d8cea52825e6d29874eed09a72f3f28"),
    # the widest plan, P = C = 1193 (no 2-part), and a three-factor p = 3
    # product with 1 < P < C; neither N is a multiple of 64
    ("pd-a311c3-p2-n1200", ["periodicity", "--spec", "A[3;1,1]*C[3]", "--p", "2", "--n-max", "1200"], 0, "b28d55580d3bd523cd893857fe3c601f6fadd6bcbf423d88a7106099fb006240"),
    ("pd-c8c3a211-p3-n1000", ["periodicity", "--spec", "C[8]*C[3]*A[2;1,1]", "--p", "3", "--n-max", "1000"], 1, "661cea94fa7a7394d9197279f67d472a35b6617c74c780465c5bd3ff46899d73"),
    ("lm-2-1", ["lemmas", "--p", "2", "--l", "1", "--i-max", "40", "--j-max", "10"], 0, "63d47e4ee52bcecbf181da07f4b23cd2ad77448acd7b9717f6b1889544a2e5c7"),
    ("lm-3-1-negative-j-tsv", ["lemmas", "--p", "3", "--l", "1", "--i-max", "30", "--j-max", "5", "--j-min", "-1", "--format", "tsv"], 1, "8bb19bab05f6f205d59b459681b3f647cdf47e86d24e8958585fcbb4526cd8d4"),
]


def _series_text(p: int, n_max: int, support: dict) -> str:
    lines = [f"{n_max} {p}"]
    for n in range(1, n_max + 1):
        num, den = support.get(n, 0), 1
        if isinstance(num, tuple):
            num, den = num
        lines.append(f"{n} {num} {den}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, status, digest", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_cli_report_bytes(tmp_path, monkeypatch, capsys, argv, status, digest):
    monkeypatch.chdir(tmp_path)
    for name, (p, n_max, support) in SERIES.items():
        (tmp_path / name).write_text(_series_text(p, n_max, support), encoding="utf-8")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == status
    if status == 2:
        assert err.startswith("error: ")
    else:
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
