import hashlib
import json

import pytest

from gradedorbits import cli, cohom, exactlin, ffgeom, liegrade, orbitlib
from gradedorbits.ffgeom import CountReport, CountRow


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_orbits_table_text(capsys):
    code, out = run_capture(capsys, ["orbits", "--type", "sp", "--n", "4"])
    assert code == 0
    assert out == (
        "orbit    dim  pi1\n"
        "[4]      8    Z/2\n"
        "[2^2]    6    Z/2\n"
        "[2,1^2]  4    Z/2\n"
        "[1^4]    0    1\n"
    )


def test_orbits_json_round_trip(capsys):
    code, out = run_capture(capsys, ["orbits", "--type", "sl", "--n", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "sl"
    assert [o["dim"] for o in payload["orbits"]] == [12, 10, 8, 6, 0]
    assert [o["component_group"] for o in payload["orbits"]] == [
        "Z/4",
        "1",
        "Z/2",
        "1",
        "1",
    ]


def test_grading_reproduces_weight_matrix(capsys):
    code, out = run_capture(
        capsys,
        ["grading", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1",
         "--degree", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight_matrix"] == "0,1,1,2;-1,0,0,1;-1,0,0,1;-2,-1,-1,0"
    assert payload["dim"] == 1
    assert payload["basis"] == ["0,0,0,1;0,0,0,0;0,0,0,0;0,0,0,0"]


def test_deterministic_output(capsys):
    argv = ["graded-orbits", "--cochar", "1,0,0,-1", "--degree", "-1"]
    _, first = run_capture(capsys, argv)
    _, second = run_capture(capsys, argv)
    assert first == second
    argv_json = argv + ["--json"]
    _, jfirst = run_capture(capsys, argv_json)
    _, jsecond = run_capture(capsys, argv_json)
    assert jfirst == jsecond


def test_parabolic_json_masks(capsys):
    code, out = run_capture(
        capsys,
        ["parabolic", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1",
         "--x", "0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0", "--degree", "-1", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_prime"] == [-1, 1, -1, 1]
    assert payload["chi_prime_matrix"] == "0,-2,0,-2;2,0,2,0;0,-2,0,-2;2,0,2,0"
    assert payload["indicator"] == "0,0,2,2;0,0,2,2;-2,-2,0,0;-2,-2,0,0"
    assert payload["l_mask"] == "1,1,0,0;1,1,0,0;0,0,1,1;0,0,1,1"
    assert payload["levi_blocks"] == [2, 2]
    assert payload["levi_rigid"] is True


def test_primes_json_schema(capsys):
    code, out = run_capture(capsys, ["primes", "--type", "sl", "--n", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "good_excluded",
        "torsion",
        "pretty_good_excluded",
        "rather_good_excluded",
    }
    assert payload["pretty_good_excluded"] == [2]
    assert payload["rather_good_excluded"] == [2]


def test_fibers_exit_zero_on_match(capsys):
    code, out = run_capture(capsys, ["fibers", "--case", "sl4", "--primes", "2,3"])
    assert code == 0
    assert "MISMATCH" not in out


def test_fibers_exit_three_on_mismatch(capsys, monkeypatch):
    bad = CountReport("sl4", (CountRow("[4]", 2, "full", 1, 2, False),))
    monkeypatch.setattr(ffgeom, "verify_fiber_counts", lambda case, primes: bad)
    code, out = run_capture(capsys, ["fibers", "--case", "sl4", "--primes", "2"])
    assert code == 3
    assert "MISMATCH" in out


def test_stalks_json_schema(capsys):
    code, out = run_capture(capsys, ["stalks", "--case", "sp4", "--char", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"convention", "columns"}
    assert payload["convention"] == "shift-by-dimC"
    assert payload["columns"]["[2,1^2]"] == {"0": 1, "2": 1}
    assert payload["columns"]["[4]"] == {"-2": 1}
    assert payload["columns"]["[2^2]"] == {}


def test_stalks_char_two_needs_flag(capsys):
    code, _ = run_capture(capsys, ["stalks", "--case", "sp4", "--char", "2"])
    assert code == 2
    code, out = run_capture(
        capsys, ["stalks", "--case", "sp4", "--char", "2", "--allow-char-2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"]["[2^2]"] == {"-1": 1, "0": 1}


def test_parse_error_exit_code(capsys):
    assert cli.run(["orbits", "--type", "bogus", "--n", "4"]) == 2
    assert cli.run(["nonsense"]) == 2


def test_quiet_suppresses_output(capsys):
    code, out = run_capture(capsys, ["orbits", "--type", "sp", "--n", "4", "--quiet"])
    assert code == 0
    assert out == ""


def test_graded_orbits_levi_column(capsys):
    code, out = run_capture(
        capsys, ["graded-orbits", "--cochar", "1,0,0,-1", "--degree", "-1", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    by_label = {o["label"]: o for o in payload["orbits"]}
    assert by_label["[1-2]+[2-3]"]["levi_blocks"] == [2, 2]
    assert by_label["[1]+[2]+[2-3]"]["levi_blocks"] == [1, 1, 2]
    assert by_label["[1-3]+[2]"]["levi_blocks"] == [4]
    assert by_label["[1-2]+[2]+[3]"]["levi_blocks"] == [2, 1, 1]
    assert by_label["[1]+[2]+[2]+[3]"]["levi_blocks"] == [1, 2, 1]
    assert [o["dim"] for o in payload["orbits"]] == [4, 3, 2, 2, 0]


def test_fibers_primes_parse_error_names_flag(capsys):
    assert cli.run(["fibers", "--case", "sl4", "--primes", "2,,3"]) == 2
    captured = capsys.readouterr()
    assert "--primes" in captured.err
    assert "invalid literal" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("kind", ["sl", "sp"])
def test_orbits_rejects_n_below_one(capsys, kind, n):
    assert cli.run(["orbits", "--type", kind, "--n", n]) == 2
    captured = capsys.readouterr()
    assert "--n" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["sl", "sp"])
def test_orbits_rejects_n_above_limit(capsys, kind):
    assert cli.MAX_ORBITS_N == 40
    assert cli.run(["orbits", "--type", kind, "--n", "42"]) == 2
    captured = capsys.readouterr()
    assert "argument --n:" in captured.err
    assert "40" in captured.err
    assert captured.out == ""
    code, out = run_capture(capsys, ["orbits", "--type", kind, "--n", "8", "--quiet"])
    assert (code, out) == (0, "")


def test_parser_is_built_once_and_still_rejects(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _ = run_capture(capsys, ["orbits", "--type", "sl", "--n", "3"])
    assert code == 0
    assert cli.run(["orbits", "--type", "sl", "--n", "x"]) == 2
    assert "argument --n:" in capsys.readouterr().err
    assert cli.run(["orbits", "--type", "sl"]) == 2
    code, out = run_capture(capsys, ["orbits", "--type", "sp", "--n", "4", "--json"])
    assert code == 0
    assert json.loads(out)["type"] == "sp"
    # options of one call do not carry over to the next
    code, out = run_capture(capsys, ["orbits", "--type", "sp", "--n", "4"])
    assert code == 0
    assert out.startswith("orbit")


def test_orbits_sl3_json_bytes(capsys):
    code, out = run_capture(capsys, ["orbits", "--type", "sl", "--n", "3", "--json"])
    assert code == 0
    assert out == (
        '{"n": 3, "orbits": ['
        '{"component_group": "Z/3", "component_group_order": 3, "dim": 6, '
        '"label": "[3]", "partition": [3]}, '
        '{"component_group": "1", "component_group_order": 1, "dim": 4, '
        '"label": "[2,1]", "partition": [2, 1]}, '
        '{"component_group": "1", "component_group_order": 1, "dim": 0, '
        '"label": "[1^3]", "partition": [1, 1, 1]}], "type": "sl"}\n'
    )


# ---------------------------------------------------------------------------
# pinned --json bytes of the graded-piece commands

GRADED_ORBITS_D6_JSON = (
    '{"cochar": [1, 0, 0, 0, 0, -1], "degree": -1, '
    '"orbits": [{"decomposition": [[1, 3], [2, 2], [2, 2], [2, 2]], '
    '"dim": 8, "label": "[1-3]+[2]+[2]+[2]", "levi_blocks": [6], '
    '"representative": "0,0,0,0,0,0;1,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,1,0,0,0,0"}, '
    '{"decomposition": [[1, 2], [2, 2], [2, 2], [2, 3]], "dim": 7, '
    '"label": "[1-2]+[2]+[2]+[2-3]", "levi_blocks": [2, 2, 2], '
    '"representative": "0,0,0,0,0,0;1,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,1,0"}, '
    '{"decomposition": [[1, 2], [2, 2], [2, 2], [2, 2], [3, 3]], "dim": 4, '
    '"label": "[1-2]+[2]+[2]+[2]+[3]", "levi_blocks": [2, 3, 1], '
    '"representative": "0,0,0,0,0,0;1,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0"}, '
    '{"decomposition": [[1, 1], [2, 2], [2, 2], [2, 2], [2, 3]], "dim": 4, '
    '"label": "[1]+[2]+[2]+[2]+[2-3]", "levi_blocks": [1, 3, 2], '
    '"representative": "0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,1,0"}, '
    '{"decomposition": [[1, 1], [2, 2], [2, 2], [2, 2], [2, 2], [3, 3]], '
    '"dim": 0, "label": "[1]+[2]+[2]+[2]+[2]+[3]", "levi_blocks": [1, 4, '
    '1], '
    '"representative": "0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0"}]}\n'
)

# Bytes captured before the graded pieces were read off the basis.  The
# Levi of the canonical parabolic is rigid by construction, so both
# parabolic outputs carry "levi_rigid": true although h is not diagonal.
SL_X = "0,0,0,0;1,0,0,0;1,0,0,0;0,-2,2,0"  # h is not diagonal
SL_ARGS = ["--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--x", SL_X, "--degree", "-1"]
SL_TRIPLE_JSON = (
    '{"chi_prime": [-1, -1, 1, 1], '
    '"e": "0,0,0,0;1,0,0,0;1,0,0,0;0,-2,2,0", '
    '"f": "0,1/2,1/2,0;0,0,0,-1/4;0,0,0,1/4;0,0,0,0", '
    '"h": "-1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1"}\n'
)
SL_PARABOLIC_JSON = (
    '{"chi_prime": [-1, -1, 1, 1], '
    '"chi_prime_matrix": "0,0,-2,-2;0,0,-2,-2;2,2,0,0;2,2,0,0", '
    '"indicator": "0,2,0,2;-2,0,-2,0;0,2,0,2;-2,0,-2,0", '
    '"l_mask": "1,0,1,0;0,1,0,1;1,0,1,0;0,1,0,1", "levi_blocks": [2, 2], '
    '"levi_rigid": true, "n_mask": "0,1,0,1;0,0,0,0;0,1,0,1;0,0,0,0", '
    '"p_mask": "1,1,1,1;0,1,0,1;1,1,1,1;0,1,0,1"}\n'
)

SP_X = (
    "0,1,0,0,0,0;0,0,-1,0,0,-2;0,0,0,0,-2,0;"
    "0,0,0,0,0,0;0,0,0,-1,0,0;0,0,0,0,1,0"
)  # h is not diagonal
SP_ARGS = ["--type", "sp", "--d", "6", "--cochar", "2,1,0,-2,-1,0", "--x", SP_X, "--degree", "1"]
SP_TRIPLE_JSON = (
    '{"chi_prime": [2, 0, -2, -2, 0, 2], '
    '"e": "0,1,0,0,0,0;0,0,-1,0,0,-2;0,0,0,0,-2,0;0,0,0,0,0,0;0,0,0,-1,0,0;0,0,0,0,1,0", '
    '"f": "0,0,0,0,0,0;2,0,0,0,0,0;0,-2,0,0,0,0;0,0,0,0,-2,0;0,0,0,0,0,2;0,0,0,0,0,0", '
    '"h": "2,0,0,0,0,0;0,0,0,0,0,0;0,0,-2,0,0,-8;0,0,0,-2,0,0;0,0,0,0,0,0;0,0,0,0,0,2"}\n'
)
SP_PARABOLIC_JSON = (
    '{"chi_prime": [2, 0, -2, -2, 0, 2], '
    '"chi_prime_matrix": "0,2,4,4,2,0;-2,0,2,2,0,-2;-4,-2,0,0,-2,-4;-4,-2,0,0,-2,-4;-2,0,2,2,0,-2;0,2,4,4,2,0", '
    '"indicator": "0,0,0,-4,-4,-4;0,0,0,-4,-4,-4;0,0,0,-4,-4,-4;4,4,4,0,0,0;4,4,4,0,0,0;4,4,4,0,0,0", '
    '"l_mask": "1,1,1,0,0,0;1,1,1,0,0,0;1,1,1,0,0,0;0,0,0,1,1,1;0,0,0,1,1,1;0,0,0,1,1,1", '
    '"levi_blocks": [3, 3], "levi_rigid": true, '
    '"n_mask": "0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;1,1,1,0,0,0;1,1,1,0,0,0;1,1,1,0,0,0", '
    '"p_mask": "1,1,1,0,0,0;1,1,1,0,0,0;1,1,1,0,0,0;1,1,1,1,1,1;1,1,1,1,1,1;1,1,1,1,1,1"}\n'
)


# sha256 of `triple --json` and `parabolic --json` for one element of each
# shape of the `triples` benchmark, captured before brackets, equations and
# sp pieces were taken on cells.  Three of the eight have an h that is not
# diagonal (marked), so their parabolics take the pieces in a diagonalising
# basis, for sp those of the conjugated form p^T B p.
TRIPLE_SHAPES_SHA256 = [
    ("sl", "1,0,0,-1", "-1", "0,0,0,0;-2,0,0,0;2,0,0,0;0,2,-2,0",
     "118841d36ca92541f7a59660187f14603d75ec728c593d847c6d5ae086ce2dc2",
     "062d1f2b02feba87004fd4b055651ee0018dfbc23a37d0c46b4fde203e51a7de"),
    ("sl", "1,1,0,0,-1,-1", "1",
     "0,0,-1,2,0,0;0,0,2,1,0,0;0,0,0,0,-1,-2;0,0,0,0,2,1;0,0,0,0,0,0;0,0,0,0,0,0",
     "db8fd6f7b1c8b2838c47048cc2bd2ef86f2f8649b08e0799e0d554f9568a742b",
     "a7cd0aa5d8a4a1387beb963f0526aaea7cd2f73a4fb2255c44ab49c5c399e909"),
    ("sl", "1,1,0,0,0,-1,-1", "1",
     "0,0,-2,-1,1,0,0;0,0,-2,2,-1,0,0;0,0,0,0,0,1,2;0,0,0,0,0,2,1;"
     "0,0,0,0,0,1,2;0,0,0,0,0,0,0;0,0,0,0,0,0,0",
     "f3a4538738da5b041569377b4ff36da7841b000faf23c98db9c3ff1a463fa7c4",
     "9d9bca496b44dcfb6544cecd8e9e922436cfafee2c1683de384369851b058666"),
    ("sl", "2,1,1,0,-1,-1,-2", "-1",  # h is not diagonal
     "0,0,0,0,0,0,0;-1,0,0,0,0,0,0;1,0,0,0,0,0,0;0,1,-1,0,0,0,0;"
     "0,0,0,2,0,0,0;0,0,0,-1,0,0,0;0,0,0,0,2,2,0",
     "b07c0708c58f8b6f094a18160cad9c0ffb95ab99eae5805dd58c4c4b980d3b9b",
     "84a1d0769b4e9ec92a53d18c600691c06f17eda21dd9d39f0cdb89c5f770cf69"),
    ("sp", "1,0,-1,0", "1", "0,-2,0,-2;0,0,-2,0;0,0,0,0;0,0,2,0",  # h is not diagonal
     "ece01fa55634c4d7f9f254352f0e77c1753a52cf03ff2da4cacd0952f55907dd",
     "963b983319278c12a467eed7fc6626270973af01064a9e178dfda4d7098b987b"),
    ("sp", "1,1,0,-1,-1,0", "1",
     "0,0,-1,0,0,-1;0,0,-1,0,0,1;0,0,0,-1,1,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,1,1,0",
     "0fa2fad980ca38ef2ed84872a01b19f5844c05128e87fbd13e5b7682c4a47bdf",
     "c6587061ec6365fdd98f715a7ca96341c2a1336d317aa7f5a07737bce43aafb8"),
    ("sp", "2,1,0,-2,-1,0", "1",  # h is not diagonal
     "0,1,0,0,0,0;0,0,-1,0,0,1;0,0,0,0,1,0;0,0,0,0,0,0;0,0,0,-1,0,0;0,0,0,0,1,0",
     "18b57846931968df6f7ac8164279fafd0b30906b137c35f383e9be70c968971b",
     "01a25905842bdfda25afc96c53d1763295c016241f33db36e3feea653e6dc6d5"),
    ("sp", "1,1,0,0,-1,-1,0,0", "1",
     "0,0,2,2,0,0,1,-1;0,0,2,-2,0,0,-1,2;0,0,0,0,1,-1,0,0;0,0,0,0,-1,2,0,0;"
     "0,0,0,0,0,0,0,0;0,0,0,0,0,0,0,0;0,0,0,0,-2,-2,0,0;0,0,0,0,-2,2,0,0",
     "9037a9920531efbabc9881f5aef23b8aa39e55386c90f2fff64458400822d608",
     "95376cf0191ec07d8ac213210bce9f03ad9c6011100336aa624cdbac6f9cfe0c"),
]


@pytest.mark.parametrize("command", ["triple", "parabolic"])
@pytest.mark.parametrize(
    "kind,cochar,degree,x,triple_digest,parabolic_digest",
    TRIPLE_SHAPES_SHA256,
    ids=[f"{k}{len(c.split(','))}-degree{n}-{i}" for i, (k, c, n, *_) in enumerate(TRIPLE_SHAPES_SHA256)],
)
def test_triple_shapes_json_sha256(
    capsys, command, kind, cochar, degree, x, triple_digest, parabolic_digest
):
    argv = [command, "--type", kind, "--d", str(len(cochar.split(","))), "--cochar", cochar,
            "--x", x, "--degree", degree, "--json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    digest = triple_digest if command == "triple" else parabolic_digest
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `triple --json` and `parabolic --json` for x = E_13 + E_23 of
# degree 3 under chi = (1, 1, -2), captured while the toral h was still
# compared with the Jordan type of x.  [h, x] = 2x has the one diagonal
# solution (2/3, 2/3, -4/3), which is not integral, so no toral h is tried.
@pytest.mark.parametrize(
    "command,digest",
    [
        ("triple", "34a5821d9d1cbfacfb5a0620d0583e0babd003f158c8bc9721202c85d14f9d47"),
        ("parabolic", "4f0344ea685a03297b9ee7b8ebc9d5aed21f7d2474cae60423e8f37f064f99c0"),
    ],
)
def test_non_integral_diagonal_solution_sha256(capsys, command, digest):
    argv = [command, "--type", "sl", "--d", "3", "--cochar", "1,1,-2", "--degree", "3",
            "--x", "0,0,1;0,0,1;0,0,0", "--json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `triple --json` and `parabolic --json` for elements whose cells
# fall into several components, so that [h, x] = 2x alone leaves a diagonal
# h free, captured while that h was still solved for by elimination: the
# README's sl4 example, the sp4 pair E_12 - E_43, and E_1,25 in sl_48 under
# (1^24, (-1)^24).
E_1_25 = ";".join(",".join("1" if (i, j) == (0, 24) else "0" for j in range(48)) for i in range(48))
FREE_H_SHA256 = [
    (["--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--x", "0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0",
      "--degree", "-1"],
     "d0980b7dc67db6ddddb24f3dcf93a5e33d3db9f083637f6ff955ec37e4b2fd7d",
     "a68b7e072f32d58acb3f9801f40fde1acd1ca1cdf070bc1033f3a999883f361a"),
    (["--type", "sp", "--d", "4", "--cochar", "1,0,-1,0", "--x", "0,1,0,0;0,0,0,0;0,0,0,0;0,0,-1,0",
      "--degree", "1"],
     "cbb3bbaf384d404b79b1fe638e052be2124c3ccdcedb0e1461736b0ae46ae3a8",
     "963b983319278c12a467eed7fc6626270973af01064a9e178dfda4d7098b987b"),
    (["--type", "sl", "--d", "48", "--cochar", ",".join(["1"] * 24 + ["-1"] * 24), "--x", E_1_25,
      "--degree", "2"],
     "27c12baf0aa9ea9150aa0de5e22c04f440873db03eb414ac645252ace947db59",
     "ce86c6cc6f3c81e0acb6be1e79598c7f4a5eaeb805fc84df61e07afdce4bb63f"),
]


@pytest.mark.parametrize("command", ["triple", "parabolic"])
@pytest.mark.parametrize("args,triple_digest,parabolic_digest", FREE_H_SHA256, ids=["sl4", "sp4", "sl48"])
def test_free_diagonal_h_sha256(capsys, command, args, triple_digest, parabolic_digest):
    code, out = run_capture(capsys, [command, *args, "--json"])
    assert code == 0
    digest = triple_digest if command == "triple" else parabolic_digest
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same elements' text output (no --json), captured before the triple took
# a toral h from the diagonal system and f from the ad-h weight -2 cells.
TRIPLE_SHAPES_TEXT_SHA256 = [
    ("f30e4e9af212b9c729ffd3a96ad5c0284944c49ae49ada7c15dfe008d90df738",
     "77c567367b78a29072674d62917a1a9dba138c727283aadebc444f58c40b46ae"),
    ("fa75d476693cb0f8c9ff5e5faa31c8e1999983188da95dc23faaed5b9d8de039",
     "65b1f8a306d7aade68fa683da4d4bb2d7fc1abd175670a5b6d424427c2d8916c"),
    ("1a6d42bb26693421182dd0271c7cc933a6733b664ffff44fdc90ada74fb74565",
     "09a7ce1e03244e84549bf25194079f4fe18c0eee52a49db546ae0959c5961067"),
    ("9624c9f1893a2b7d45f69f6cbffc2922e0fb860465acc001a933ff7691eb70e5",
     "f23db0adff7e8ee222c70c5dae843d684c03520d0dbf2dd31e7387bc0b5cfa08"),
    ("221e8bb6b91165ec549d01f18fd0d4d5cfcaf6d1f761c7481bcf7b0cea77b1e3",
     "df01bc9ebbbac31aa02afcfc2ee7030147cd527f5866ea17e3e9013983d5fe8a"),
    ("f5817e12f1d8642166513ba0fe28d93e5a4b820b0984ba3eaf8991c8d6fb362e",
     "d2b103e4cba7a56df01c6a60a89271a7f5bfeca71d349f39fe5cf6810b7b3b6c"),
    ("53641d8a1a494b9dfa03599a0350132a847f116e7cd711d809a9c8bd8d4a03f2",
     "8bff9fb70e4dfc6f8e90d2f3b04e28ac0b92c61cb8c66681236f67a242d5c382"),
    ("02f28dc961830b1d1468738fcdf98df02f22f07e0cbcea15913509d0fba7c615",
     "ba453b8014fa026d4cd53491b3c113c6cf7d8a6803959bd288bce5a19ed440ff"),
]


@pytest.mark.parametrize("command", ["triple", "parabolic"])
@pytest.mark.parametrize(
    "shape,digests",
    list(zip(TRIPLE_SHAPES_SHA256, TRIPLE_SHAPES_TEXT_SHA256)),
    ids=[f"{k}{len(c.split(','))}-degree{n}-{i}" for i, (k, c, n, *_) in enumerate(TRIPLE_SHAPES_SHA256)],
)
def test_triple_shapes_text_sha256(capsys, command, shape, digests):
    kind, cochar, degree, x, *_ = shape
    argv = [command, "--type", kind, "--d", str(len(cochar.split(","))), "--cochar", cochar,
            "--x", x, "--degree", degree]
    code, out = run_capture(capsys, argv)
    assert code == 0
    digest = digests[0] if command == "triple" else digests[1]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["triple", "parabolic"])
def test_triple_and_parabolic_never_build_the_whole_algebra(capsys, monkeypatch, command):
    def whole_algebra(alg):
        raise AssertionError("the basis of the whole algebra was built")

    monkeypatch.setattr(liegrade.MatrixLieAlgebra, "basis", property(whole_algebra))
    shapes = [["--type", k, "--d", str(len(c.split(","))), "--cochar", c, "--x", x, "--degree", n]
              for k, c, n, x, *_ in TRIPLE_SHAPES_SHA256]
    for args in [*shapes, SL_ARGS, SP_ARGS]:
        assert run_capture(capsys, [command, *args])[0] == 0


# Bytes of `grading --json` captured before every piece was built from its cells.
GRADING_JSON = [
    (
        ["--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--degree", "-1"],
        '{"basis": ['
        '"0,0,0,0;1,0,0,0;0,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,0;1,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,0;0,0,0,0;0,1,0,0", '
        '"0,0,0,0;0,0,0,0;0,0,0,0;0,0,1,0"], '
        '"degree": -1, "dim": 4, "weight_matrix": "0,1,1,2;-1,0,0,1;-1,0,0,1;-2,-1,-1,0"}\n'
    ),
    (
        ["--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--degree", "0"],
        '{"basis": ['
        '"0,0,0,0;0,0,1,0;0,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,0;0,1,0,0;0,0,0,0", '
        '"1,0,0,0;0,-1,0,0;0,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,0;0,0,1,0;0,0,0,-1"], '
        '"degree": 0, "dim": 5, "weight_matrix": "0,1,1,2;-1,0,0,1;-1,0,0,1;-2,-1,-1,0"}\n'
    ),
    (
        ["--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--degree", "1"],
        '{"basis": ['
        '"0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0", '
        '"0,0,1,0;0,0,0,0;0,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,1;0,0,0,0;0,0,0,0", '
        '"0,0,0,0;0,0,0,0;0,0,0,1;0,0,0,0"], '
        '"degree": 1, "dim": 4, "weight_matrix": "0,1,1,2;-1,0,0,1;-1,0,0,1;-2,-1,-1,0"}\n'
    ),
    (
        ["--type", "sp", "--d", "6", "--cochar", "2,1,0,-2,-1,0", "--degree", "-1"],
        '{"basis": ['
        '"0,0,0,0,0,0;1,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,-1,0;0,0,0,0,0,0;0,0,0,0,0,0", '
        '"0,0,0,0,0,0;0,0,0,0,0,0;0,1,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,-1;0,0,0,0,0,0", '
        '"0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,1,0,0,0;0,1,0,0,0,0"], '
        '"degree": -1, "dim": 3, "weight_matrix": "0,1,2,4,3,2;-1,0,1,3,2,1;-2,-1,0,2,1,0;-4,-3,-2,0,-1,-2;-3,-2,-1,1,0,-1;-2,-1,0,2,1,0"}\n'
    ),
    (
        ["--type", "sp", "--d", "6", "--cochar", "2,1,0,-2,-1,0", "--degree", "0"],
        '{"basis": ['
        '"0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,1;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0", '
        '"1,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,-1,0,0;0,0,0,0,0,0;0,0,0,0,0,0", '
        '"0,0,0,0,0,0;0,1,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,-1,0;0,0,0,0,0,0", '
        '"0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,1,0,0,0", '
        '"0,0,0,0,0,0;0,0,0,0,0,0;0,0,1,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,-1"], '
        '"degree": 0, "dim": 5, "weight_matrix": "0,1,2,4,3,2;-1,0,1,3,2,1;-2,-1,0,2,1,0;-4,-3,-2,0,-1,-2;-3,-2,-1,1,0,-1;-2,-1,0,2,1,0"}\n'
    ),
    (
        ["--type", "sp", "--d", "6", "--cochar", "2,1,0,-2,-1,0", "--degree", "1"],
        '{"basis": ['
        '"0,0,0,0,0,0;0,0,0,0,0,1;0,0,0,0,1,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0", '
        '"0,1,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,-1,0,0;0,0,0,0,0,0", '
        '"0,0,0,0,0,0;0,0,1,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,0,0;0,0,0,0,-1,0"], '
        '"degree": 1, "dim": 3, "weight_matrix": "0,1,2,4,3,2;-1,0,1,3,2,1;-2,-1,0,2,1,0;-4,-3,-2,0,-1,-2;-3,-2,-1,1,0,-1;-2,-1,0,2,1,0"}\n'
    ),
]


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["graded-orbits", "--cochar", "1,0,0,0,0,-1", "--degree", "-1"], GRADED_ORBITS_D6_JSON),
        (["triple", *SL_ARGS], SL_TRIPLE_JSON),
        (["parabolic", *SL_ARGS], SL_PARABOLIC_JSON),
        (["triple", *SP_ARGS], SP_TRIPLE_JSON),
        (["parabolic", *SP_ARGS], SP_PARABOLIC_JSON),
        *((["grading", *args], text) for args, text in GRADING_JSON),
    ],
    ids=[
        "graded-orbits-d6", "triple-sl", "parabolic-sl", "triple-sp", "parabolic-sp",
        *(f"grading-{args[1]}{args[3]}-degree{args[7]}" for args, _ in GRADING_JSON),
    ],
)
def test_graded_piece_json_bytes(capsys, argv, expected):
    code, out = run_capture(capsys, argv + ["--json"])
    assert code == 0
    assert out == expected


# sha256 of `graded-orbits --json` as the solver route printed it (the rank
# of ad x on g_0, and the sl2-triple with the canonical parabolic)
GRADED_ORBITS_SHA256 = [
    ("2,2,1,1,1,0,0,0,-1,-1,-1,-2,-2", "-1", 456,
     "724a5d67888be8e08bcbf199e35f003b80f995b1af2dfe2ab2087df3a4826add"),
    ("2,2,1,1,1,1,0,0,0,0,-1,-1,-1,-1,-2,-2", "-1", 1138,
     "3c584e208aeebaacd835460920baea49c039294921a411db3da690c4893ad85d"),
    ("1,1,0,0,-1,-1", "-1", 10,
     "e8e1d6a1ee86a4f60c6a4aff64569dddf5df536072fa99bfaedc89a6c5ad523d"),
    ("1,0,0,0,0,0,-1", "1", 5,
     "cf46e07017ae7d6bc895e79d9625623bb58e0eec956df914756c5dda94baa434"),
    ("1,1,1,1,-1,-1,-1,-1", "-2", 5,
     "0c978e5709fd8079bd15241447f3fc7ca9b73152e586646d3d73ed611cec4909"),
    ("1,1,0,0,0,0,-1,-1", "2", 3,
     "ecb9ea660e4c99a09bf95bdc26f235b7338bad50e642eeddd4a011cf33c0c78d"),
]

SOLVERS = {
    exactlin: ("nullspace", "solve_linear", "bracket"),
    liegrade: ("adapted_sl2_triple", "canonical_parabolic", "graded_component", "build_algebra"),
}


@pytest.mark.parametrize(
    "cochar,degree,orbits,digest",
    GRADED_ORBITS_SHA256,
    ids=[f"d{len(c.split(','))}-degree{n}" for c, n, *_ in GRADED_ORBITS_SHA256],
)
def test_graded_orbits_json_sha256(capsys, monkeypatch, cochar, degree, orbits, digest):
    # the closed forms solve nothing: every solver fails if it is called
    def solve_nothing(*args, **kwargs):
        raise AssertionError("a solver was called")

    for module, names in SOLVERS.items():
        for name in names:
            for owner in (module, cli, orbitlib):
                if hasattr(owner, name):
                    monkeypatch.setattr(owner, name, solve_nothing)
    argv = ["graded-orbits", "--cochar", cochar, "--degree", degree, "--json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert len(json.loads(out)["orbits"]) == orbits
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [SL_ARGS, SP_ARGS], ids=["sl", "sp"])
def test_parabolic_levi_rigid_for_non_diagonal_h(capsys, args):
    code, out = run_capture(capsys, ["parabolic", *args])
    assert code == 0
    assert "levi_rigid: yes" in out.splitlines()


# ---------------------------------------------------------------------------
# argument errors name their flag


@pytest.mark.parametrize(
    "argv",
    [
        ["graded-orbits", "--cochar", "1,,0", "--degree", "-1"],
        ["grading", "--type", "sl", "--d", "3", "--cochar", "1,x,-1", "--degree", "1"],
        ["triple", "--type", "sl", "--d", "2", "--cochar", "1,", "--x", "0,1;0,0", "--degree", "2"],
        ["parabolic", "--type", "sl", "--d", "2", "--cochar", "", "--x", "0,1;0,0", "--degree", "2"],
    ],
    ids=["graded-orbits", "grading", "triple", "parabolic"],
)
def test_cochar_parse_error_names_flag(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert "argument --cochar:" in captured.err
    assert "invalid literal" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["triple", "parabolic"])
@pytest.mark.parametrize(
    "x,message",
    [("0,1;0,0", "expected a 3x3 matrix, got 2x2"), ("0,1,0;0,0", "rows of comma-separated integers")],
    ids=["shape", "ragged"],
)
def test_x_errors_name_flag(capsys, command, x, message):
    argv = [command, "--type", "sl", "--d", "3", "--cochar", "1,0,-1", "--x", x, "--degree", "1"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert "argument --x:" in captured.err
    assert message in captured.err
    assert "shape mismatch" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("primes", ["131", "4", "2,3,1"])
def test_fibers_prime_bound_names_flag(capsys, primes):
    assert cli.run(["fibers", "--case", "sl4", "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert "argument --primes:" in captured.err
    assert "<= 127" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["sl4", "sp4"])
def test_fibers_at_the_prime_bound_all_match(capsys, case):
    argv = ["fibers", "--case", case, "--primes", str(ffgeom.MAX_PRIME), "--json"]
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["all_match"] is True


def test_primes_root_bound_names_flag(capsys):
    # SL(22) and Sp(28) are the first refused, past the largest n for which
    # the tests derive the report from the definitions
    assert cli.run(["primes", "--type", "sl", "--n", "22"]) == 2
    captured = capsys.readouterr()
    assert "argument --n:" in captured.err
    assert "SL(22) is too large" in captured.err and "n <= 21" in captured.err
    assert captured.out == ""
    assert cli.run(["primes", "--type", "sp", "--n", "28"]) == 2
    captured = capsys.readouterr()
    assert "argument --n: Sp(28) is too large" in captured.err and "n <= 26" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind,n,message",
    [("sl", "1", "SL needs n >= 2"), ("sp", "5", "Sp needs even n >= 2"), ("sp", "0", "Sp needs even n >= 2")],
)
def test_primes_domain_error_names_flag(capsys, kind, n, message):
    assert cli.run(["primes", "--type", kind, "--n", n]) == 2
    captured = capsys.readouterr()
    assert f"argument --n: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cochar,degree,message",
    [("1,0,0", "-1", "sl cocharacter weights must sum to zero"),
     ("0,1,-1", "-1", "cocharacter weights must be weakly decreasing"),
     ("1,0,-1", "0", "degree must be nonzero")],
)
def test_graded_orbits_invalid_cochar_messages(capsys, cochar, degree, message):
    flag = "degree" if degree == "0" else "cochar"
    assert cli.run(["graded-orbits", "--cochar", cochar, "--degree", degree]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: argument --{flag}: {message}\n")


SL3 = ["--type", "sl", "--d", "3", "--cochar", "1,0,-1"]


@pytest.mark.parametrize(
    "argv,flag,message",
    [
        (["grading", "--type", "sp", "--d", "4", "--cochar", "1,0,0,0", "--degree", "1"],
         "cochar", "sp cocharacter must satisfy w[0] + w[2] = 0, as B[0][2] != 0"),
        (["triple", *SL3, "--x", "0,0,0;0,0,0;0,0,0", "--degree", "1"],
         "x", "the zero element admits no sl2-triple"),
        (["triple", *SL3, "--x", "0,0,1;0,0,0;0,0,0", "--degree", "1"],
         "x", "x does not lie in the requested graded component"),
        (["triple", *SL3, "--x", "0,1,0;0,0,0;0,0,0", "--degree", "0"],
         "degree", "degree must be nonzero"),
        (["parabolic", *SL3, "--x", "0,1,0;0,0,0;0,0,0", "--degree", "0"],
         "degree", "degree must be nonzero"),
        (["stalks", "--case", "sp4", "--char", "2"], "char",
         "characteristic 2 violates the standing hypothesis; "
         "request it explicitly to exhibit the anomaly"),
    ],
    ids=["sp-cochar", "zero-x", "x-outside-piece", "triple-degree-0", "parabolic-degree-0",
         "char-2"],
)
def test_library_domain_errors_name_flag(capsys, argv, flag, message):
    assert run_both(capsys, argv) == (2, "", f"error: argument --{flag}: {message}\n")


@pytest.mark.parametrize(
    "kind,n,text",
    [
        ("sl", "3", "good_excluded: -\ntorsion: -\npretty_good_excluded: 3\nrather_good_excluded: 3\n"),
        ("sp", "6", "good_excluded: 2\ntorsion: 2\npretty_good_excluded: 2\nrather_good_excluded: 2\n"),
    ],
)
def test_primes_text(capsys, kind, n, text):
    assert run_both(capsys, ["primes", "--type", kind, "--n", n]) == (0, text, "")


def test_graded_orbits_above_bound_names_flag(capsys, monkeypatch):
    def enumerate_nothing(dims):
        raise AssertionError("the orbits were enumerated")

    monkeypatch.setattr(orbitlib, "_interval_multisets", enumerate_nothing)
    # one chain of block sizes 1, 7, 4, 3, 7, 7: 10,080 orbits
    cochar = ",".join(map(str, [3] + [2] * 7 + [1] * 4 + [0] * 3 + [-1] * 7 + [-2] * 7))
    assert cli.run(["graded-orbits", "--cochar", cochar, "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert "argument --cochar:" in captured.err
    assert f"more than {orbitlib.MAX_GRADED_ORBITS} orbits" in captured.err
    assert captured.out == ""


def test_primes_huge_n_names_flag_without_building_roots(capsys, deadline):
    # the report builds no root at all, so a huge n is refused at once
    with deadline(1):
        assert cli.run(["primes", "--type", "sl", "--n", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert "argument --n: SL(99999999999) is too large" in captured.err
    assert "n <= 21" in captured.err
    assert captured.out == ""


def test_stalks_char_bound_names_flag(capsys):
    code, out = run_capture(capsys, ["stalks", "--case", "sp4", "--char", str(2**61 - 1), "--json"])
    assert code == 0
    assert json.loads(out)["convention"] == "shift-by-dimC"
    assert cli.run(["stalks", "--case", "sp4", "--char", str(exactlin.PRIME_TEST_BOUND)]) == 2
    captured = capsys.readouterr()
    assert "argument --char:" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# pinned ``fibers --json`` bytes, captured before the sweep counted only
# x-stable subspaces

FIBERS_JSON_SHA256 = [
    ("sp4", 2, "3e225cfb336bfcb7f7ed3bdc820c660330302e37f419464c2f1fe0e1313c99b1"),
    ("sp4", 3, "b47dda5cdbd71c4cad5c393101d947fadc42e549d235b64592b064cf403d1e82"),
    ("sp4", 5, "c2befb48d9f6e54904d34719bb2d4be0940c819c7bf6e58b69df9ecf9d67bad1"),
    ("sp4", 7, "0425602f90fddbd7b74d8fd05683d9f091ab54b1c6dadef93d882fa466ea7eec"),
    ("sp4", 11, "0081a6fc103bc05c667137839784ed7a23c829179734e5c4b6365d658a73fb71"),
    ("sp4", 13, "3fa7509f01c14635f65367bbd4ccf67b1ca1b33da4945030eb9290cb9ebd42ac"),
    ("sl4", 2, "8b0f0a31b12ffeb9ce2b59f7afec49d6dabd9a69eea76d59d6eb3a50bf14ef82"),
    ("sl4", 3, "e08afdacaa8490dba1e1490c2c0abc8278d94a3ae67279bb39b1a403bd7923ae"),
    ("sl4", 5, "6200602178a89bc8f293e979dd6ebadb892da1f72c7ff763b190012031e73fd4"),
    ("sl4", 7, "434768c748730b50ff5e53b31b4679960015c3d61212e5cbd4e0e31ff0d8816d"),
    ("sl4", 11, "ecf72f7e4733215f1873a8f4d0c5c23ac4f9763296c46b3b14af4117945f1088"),
    ("sl4", 13, "0c54c44f7038a21f09a3f633b9994c99d107daaf496530ea562ee494fae8a32c"),
]


@pytest.mark.parametrize("case,prime,digest", FIBERS_JSON_SHA256)
def test_fibers_json_sha256(capsys, case, prime, digest):
    code, out = run_capture(capsys, ["fibers", "--case", case, "--primes", str(prime), "--json"])
    assert code == 0
    assert json.loads(out)["all_match"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("char", ["4", "-3", "1"])
def test_stalks_char_not_prime_names_flag(capsys, char):
    assert cli.run(["stalks", "--case", "sp4", "--char", char]) == 2
    captured = capsys.readouterr()
    assert f"argument --char: must be 0 or a prime, got {char}" in captured.err
    assert captured.out == ""


def test_graded_orbits_cell_bound_names_flag(capsys, monkeypatch):
    def enumerate_nothing(dims):
        raise AssertionError("the orbits were enumerated")

    monkeypatch.setattr(orbitlib, "_interval_multisets", enumerate_nothing)
    # one orbit of a 2301 x 2301 representative: 5,294,601 cells
    cochar = ",".join(["0"] * 2301)
    assert cli.run(["graded-orbits", "--cochar", cochar, "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert "argument --cochar:" in captured.err
    assert f"more than the {orbitlib.MAX_GRADED_CELLS} that are printed" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# values that start with '-'


def run_both(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["grading", "--type", "sp", "--d", "4", "--cochar", "-1,0,1,0", "--degree", "1"],
        ["grading", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--degree", "-1"],
        ["triple", "--type", "sl", "--d", "3", "--cochar", "1,0,-1", "--x", "-1,0;0,1",
         "--degree", "1"],
    ],
    ids=["cochar", "degree", "x"],
)
def test_dash_value_space_form_matches_equals_form(capsys, argv):
    i = next(i for i, a in enumerate(argv) if a.startswith("--") and argv[i + 1][:1] == "-")
    joined = [*argv[:i], f"{argv[i]}={argv[i + 1]}", *argv[i + 2 :]]
    spaced = run_both(capsys, argv)
    assert spaced == run_both(capsys, joined)
    assert "expected one argument" not in spaced[2]
    if argv[0] == "triple":
        assert spaced[0] == 2
        assert "argument --x: expected a 3x3 matrix, got 2x2" in spaced[2]
    else:
        assert spaced[0] == 0 and spaced[1].startswith("weight_matrix: ")


def test_missing_cochar_value_still_names_flag(capsys):
    argv = ["grading", "--type", "sp", "--d", "4", "--cochar", "--degree", "1"]
    code, out, err = run_both(capsys, argv)
    assert code == 2
    assert "argument --cochar: expected one argument" in err
    assert out == ""


# ---------------------------------------------------------------------------
# grading --d is bounded and named


@pytest.mark.parametrize(
    "kind,d,cochar,message",
    [
        ("sp", "0", "1", "argument --d: must be at least 1, got 0"),
        ("sp", "-2", "1,-1", "argument --d: must be at least 1, got -2"),
        ("sl", str(cli.MAX_GRADING_D + 1), "1,-1",
         f"argument --d: must be at most {cli.MAX_GRADING_D}, got {cli.MAX_GRADING_D + 1}"),
        ("sp", "3", "1,0,-1", "argument --d: sp needs an even dimension, got 3"),
        ("sp", "4", "1,0,-1", "argument --cochar: expected 4 weights, got 3"),
        ("sl", "3", "1,0,-1,0", "argument --cochar: expected 3 weights, got 4"),
    ],
)
def test_grading_d_errors_name_flag(capsys, kind, d, cochar, message):
    argv = ["grading", "--type", kind, "--d", d, "--cochar", cochar, "--degree", "1"]
    code, out, err = run_both(capsys, argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", ["triple", "parabolic"])
@pytest.mark.parametrize(
    "d,cochar,x,message",
    [
        ("60", "0", "0", f"argument --d: must be at most {cli.MAX_GRADING_D}, got 60"),
        ("0", "0", "0", "argument --d: must be at least 1, got 0"),
        ("4", "1,0,0,-1", "0", "argument --x: expected a 4x4 matrix, got 1x1"),
    ],
    ids=["d-60", "d-0", "x-1x1"],
)
def test_triple_and_parabolic_reject_before_building(
    capsys, monkeypatch, command, d, cochar, x, message
):
    def build_nothing(kind, d):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(liegrade, "build_algebra", build_nothing)
    argv = [command, "--type", "sl", "--d", d, "--cochar", cochar, "--x", x, "--degree", "1"]
    code, out, err = run_both(capsys, argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", ["grading", "triple", "parabolic"])
@pytest.mark.parametrize(
    "kind,d,cochar,message",
    [
        ("sp", 5, "0,0,0,0,0", "argument --d: sp needs an even dimension, got 5"),
        ("sl", 4, "1,0,-1", "argument --cochar: expected 4 weights, got 3"),
    ],
    ids=["sp-odd-d", "short-cochar"],
)
def test_d_and_cochar_checks_are_shared(capsys, monkeypatch, command, kind, d, cochar, message):
    def build_nothing(kind, d):
        raise AssertionError("the algebra was built")

    monkeypatch.setattr(liegrade, "build_algebra", build_nothing)
    argv = [command, "--type", kind, "--d", str(d), "--cochar", cochar, "--degree", "1"]
    if command != "grading":
        argv += ["--x", ";".join([",".join(["0"] * d)] * d)]
    assert run_both(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("primes", [",".join(["13"] * 20), "2,3,2"])
def test_fibers_rejects_a_repeated_prime(capsys, primes):
    code, out, err = run_both(capsys, ["fibers", "--case", "sl4", "--primes", primes])
    assert (code, out) == (2, "")
    assert f"argument --primes: {primes.split(',')[0]} is repeated" in err


def test_orbits_odd_sp_n_names_flag(capsys):
    code, out, err = run_both(capsys, ["orbits", "--type", "sp", "--n", "39"])
    assert (code, out, err) == (2, "", "error: argument --n: sp needs an even n, got 39\n")


# ---------------------------------------------------------------------------
# a defect inside a command is one line on stderr and exit 1


@pytest.mark.parametrize(
    "command,layer,name,argv,exc",
    [
        ("orbits", orbitlib, "nilpotent_orbits", ["--type", "sl", "--n", "3"],
         RuntimeError("boom")),
        ("fibers", ffgeom, "verify_fiber_counts", ["--case", "sl4", "--primes", "2"],
         ZeroDivisionError("division by zero")),
        ("triple", liegrade, "adapted_sl2_triple", SL_ARGS, RuntimeError("no triple")),
    ],
    ids=["orbits-RuntimeError", "fibers-ZeroDivisionError", "triple-RuntimeError"],
)
def test_internal_error_is_one_line_and_exit_one(
    capsys, monkeypatch, command, layer, name, argv, exc
):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(layer, name, broken)
    code, out, err = run_both(capsys, [command, *argv, "--json"])
    assert code == 1
    assert out == ""
    assert err == f"internal error: {command}: {type(exc).__name__}: {exc}\n"


# ---------------------------------------------------------------------------
# a fibers mismatch names its first failing row on stderr


def test_fibers_mismatch_witness_on_stderr(capsys, monkeypatch):
    from test_ffgeom import random_case

    # every fiber of this case is predicted to be a point; E_12 has 11 stable
    # planes over F_2
    x = exactlin.parse_matrix_text("0,1,0,0;0,0,0,0;0,0,0,0;0,0,0,0")
    monkeypatch.setattr(cohom, "load_case", lambda name: random_case("two-plane", None, [x]))
    code, out, err = run_both(capsys, ["fibers", "--case", "sl4", "--primes", "2", "--json"])
    assert code == 3
    assert err == "mismatch: orbit [1] stratum full prime 2: count 11, predicted 1, delta +10\n"
    payload = json.loads(out)
    assert payload["all_match"] is False
    assert "delta" not in out
