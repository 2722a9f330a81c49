"""The bytes and the exit code of argparse's help and error paths of
``cli.run``, at an 80-column terminal: the top-level and every
subcommand's --help, and the argvs that argparse rejects before any
subcommand runs; and the argparse parsers that a call builds: none for
an accepted call, the whole parser for a help."""

import argparse
import hashlib

import pytest

from gradedorbits import cli

EMPTY = hashlib.sha256(b"").hexdigest()

# (id, argv, exit code, sha256 of stdout, sha256 of stderr), captured while
# every call still built the parser of all eight subcommands
HELP_AND_ERROR_SHA256 = [
    ("help", ["--help"], 0,
     "21e1d374d8a222d2682d37a57154d42ab8b5a7a3d19cfa80733f2a8f3816ded5",
     EMPTY),
    ("orbits-help", ["orbits", "--help"], 0,
     "3b42995d7312a4e2aa1365bf5e26553371cc7d20530e8026e01f51f30bc14cb6",
     EMPTY),
    ("graded-orbits-help", ["graded-orbits", "--help"], 0,
     "28d38ef26fb00c795a694e4fbdf8d2b6ad9788a9bfac4e97aeacaaaaf81f280b",
     EMPTY),
    ("grading-help", ["grading", "--help"], 0,
     "2b515a152b1f6119a189217bd1938c27949e6a92d05ac1823fd2405a6b9ef4fc",
     EMPTY),
    ("triple-help", ["triple", "--help"], 0,
     "ef5b917cff7f2e2850092935ce9bb93db71ae1c027be56c523bf196cdc06a178",
     EMPTY),
    ("parabolic-help", ["parabolic", "--help"], 0,
     "72ad0fc0290cf972e62ffa4c30b96bc059eb3903c01fe1470976ca37bcaa3111",
     EMPTY),
    ("primes-help", ["primes", "--help"], 0,
     "e050ca7708ee3ade8d36886cbf43cc9c193f9754008883694f892d4d6b7f5e0f",
     EMPTY),
    ("fibers-help", ["fibers", "--help"], 0,
     "06ca16eb70bc53ea723df8caf7dad61d17921d2553981514311c1f2defb880ed",
     EMPTY),
    ("stalks-help", ["stalks", "--help"], 0,
     "40a39c68ef6a9ceb60f35566b32e403d167fe77d21f2e5b4de2f9f258ec3f969",
     EMPTY),
    ("no-argv", [], 2,
     EMPTY,
     "1bac02dbd2c9269c19f964dac0271e2bbc31da106733e8a45341e7b0e1389a1d"),
    ("unknown-command", ["frobnicate", "--type", "sl"], 2,
     EMPTY,
     "a33db59afc9b8cb2538f7970e240986ebff9cdf399024fdca1e8f37f21264815"),
    ("missing-required", ["orbits", "--type", "sl"], 2,
     EMPTY,
     "698d737582bde99df38e0e1fe493808c75aca31c5a964068a790b186e0b125ec"),
    ("bad-int", ["orbits", "--type", "sl", "--n", "x"], 2,
     EMPTY,
     "b7b63feed612ba3e7b0a331bb444127dd313ebb746f2c885a89747fd3a08e5b3"),
    ("bad-cochar", ["graded-orbits", "--cochar", "1,x", "--degree", "1"], 2,
     EMPTY,
     "44025fb1c2de64a0450dad5b1ccfcfef4fa49721a857b48dfa9623ac6b7281b3"),
    ("bad-choice", ["fibers", "--case", "so5", "--primes", "2"], 2,
     EMPTY,
     "fc61829078a0e71f7f03b85caf55d1133658ded3460c9b75cb384349bf96f24f"),
    ("stray-before", ["primes", "--bogus", "--type", "sl", "--n", "3"], 2,
     EMPTY,
     "aafa1559385477314679d0a4b5000b14471477a54a770b2dce2100a1606645e8"),
    ("stray-between", ["primes", "--type", "sl", "stray", "--n", "3"], 2,
     EMPTY,
     "fb586eee3409cfb6ee4b4b204dc1cf28a4c0ea9eea9d433dcb6b10770469bf3a"),
    ("stray-after", ["primes", "--type", "sl", "--n", "3", "--bogus"], 2,
     EMPTY,
     "aafa1559385477314679d0a4b5000b14471477a54a770b2dce2100a1606645e8"),
    ("help-after-options", ["triple", "--type", "sl", "--d", "2", "-h"], 0,
     "ef5b917cff7f2e2850092935ce9bb93db71ae1c027be56c523bf196cdc06a178",
     EMPTY),
    ("option-before-command", ["--json", "orbits", "--type", "sl", "--n", "3"], 2,
     EMPTY,
     "dc96109d9ac692e37414b91f2d3b611ea4cecba1adf40494af0b942783d9bb85"),
]


@pytest.mark.parametrize(
    "argv,code,out_digest,err_digest",
    [case[1:] for case in HELP_AND_ERROR_SHA256],
    ids=[case[0] for case in HELP_AND_ERROR_SHA256],
)
def test_help_and_error_bytes(capsys, monkeypatch, argv, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest


def parsers_built(monkeypatch, capsys, argv) -> int:
    """The exit code of ``cli.run(argv)`` and the number of
    ``argparse.ArgumentParser`` objects it constructs with no parser cached."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    code = cli.run(argv)
    capsys.readouterr()
    return code, len(built)


X = "0,1;0,0"
# one accepted call of each subcommand, which is read from ``cli.COMMANDS``
# without argparse, and a help, which needs the whole parser
CALLS = [
    ("orbits", ["orbits", "--type", "sl", "--n", "3"], 0),
    ("graded-orbits", ["graded-orbits", "--cochar=1,0,-1", "--degree", "1", "--json"], 0),
    ("grading", ["grading", "--type", "sp", "--d", "2", "--cochar", "-1,1", "--degree", "2"], 0),
    ("triple", ["triple", "--type", "sl", "--d", "2", "--cochar", "1,-1", "--x", X, "--degree", "2"], 0),
    ("parabolic", ["parabolic", "--quiet", "--type=sl", "--d=2", "--cochar=1,-1", f"--x={X}",
                   "--degree=2"], 0),
    ("primes", ["primes", "--type", "sl", "--n", "3"], 0),
    ("fibers", ["fibers", "--case", "sp4", "--primes", "2"], 0),
    ("stalks", ["stalks", "--case", "sl4", "--char", "2", "--allow-char-2"], 0),
    ("orbits-help", ["orbits", "--help"], 1 + len(cli.COMMANDS)),
]


@pytest.mark.parametrize("argv,built", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_parsers_built_by_a_call(monkeypatch, capsys, argv, built):
    assert parsers_built(monkeypatch, capsys, argv) == (0, built)


def test_calls_cover_every_subcommand():
    assert [c[0] for c in CALLS[:-1]] == list(cli.COMMANDS)


def test_the_top_level_help_builds_the_whole_parser(monkeypatch, capsys):
    assert parsers_built(monkeypatch, capsys, ["--help"]) == (0, 1 + len(cli.COMMANDS))

