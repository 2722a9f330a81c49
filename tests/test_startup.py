"""Start-up: ``python -m gradedorbits.cli <subcommand>`` and the
``gradedorbits`` console script load only the layers the subcommand runs,
``import gradedorbits`` loads none and ``import gradedorbits.cli`` loads
every one, and none of them loads ``dataclasses`` or ``inspect``; the
program path prints what ``cli.run`` prints in-process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gradedorbits
from gradedorbits import cli, cohom

SRC = str(Path(gradedorbits.__file__).resolve().parent.parent)
LAYERS = {"cli", "cohom", "exactlin", "ffgeom", "liegrade", "orbitlib", "rootdata"}


def environment():
    """The environment with the package on its path and an 80-column
    terminal for argparse's help."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def python(*args):
    """A fresh interpreter in ``environment()``."""
    return subprocess.run([sys.executable, *args], env=environment(), capture_output=True, timeout=60)


def imported(proc):
    """The modules that a run under ``-X importtime`` imported."""
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"\|\s*([\w.]+)\s*$", proc.stderr.decode(), re.M))


def layers_loaded(proc):
    """The layers that a run under ``-X importtime`` loaded; cli itself runs
    as ``__main__``."""
    return {"cli", *(m.partition(".")[2] for m in imported(proc) if m.startswith("gradedorbits."))}


def loaded_by_program(*argv):
    """The layers that ``python -m gradedorbits.cli argv`` loads."""
    return layers_loaded(python("-X", "importtime", "-m", "gradedorbits.cli", *argv, "--quiet"))


def console_script():
    """The ``python -c`` program that runs the ``gradedorbits`` entry point
    of ``[project.scripts]``, as the installed console script does."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, func = re.search(r'^gradedorbits = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys; from {module} import {func}; sys.exit({func}())"


def loaded_by_import(statement):
    proc = python("-c", f"import sys; {statement}; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return {m.partition(".")[2] for m in proc.stdout.decode().split() if m.startswith("gradedorbits.")}


def test_orbits_loads_only_its_layers():
    assert loaded_by_program("orbits", "--type", "sl", "--n", "3") == {"cli", "exactlin", "orbitlib"}


def test_graded_orbits_loads_only_its_layers():
    # the --cochar type is a plain tuple, so liegrade stays unloaded
    argv = ["graded-orbits", "--cochar", "1,0,0,-1", "--degree", "-1"]
    assert loaded_by_program(*argv) == {"cli", "exactlin", "orbitlib"}


def test_console_script_takes_the_program_path(capsys):
    argv = ["orbits", "--type", "sl", "--n", "3"]
    proc = python("-X", "importtime", "-c", console_script(), *argv)
    assert layers_loaded(proc) == {"cli", "exactlin", "orbitlib"}
    code = cli.run(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())


@pytest.mark.parametrize(
    "argv",
    [["fibers", "--case", "sl4", "--primes", "2"], ["stalks", "--case", "sp4", "--char", "0"]],
    ids=["fibers", "stalks"],
)
def test_fibers_and_stalks_load_no_lie_algebra_layer(argv):
    assert not loaded_by_program(*argv) & {"liegrade", "orbitlib", "rootdata"}


def test_primes_loads_no_algebra_or_cohomology_layer():
    assert not loaded_by_program("primes", "--type", "sl", "--n", "3") & {"cohom", "ffgeom", "liegrade"}


def test_import_of_the_package_loads_no_layer():
    assert loaded_by_import("import gradedorbits") == set()


def test_import_of_cli_loads_every_layer():
    assert loaded_by_import("import gradedorbits.cli") == LAYERS


def test_layers_are_package_attributes():
    assert gradedorbits.cli is cli
    assert gradedorbits.cohom is cohom
    for layer in LAYERS:
        assert getattr(gradedorbits, layer).__name__ == f"gradedorbits.{layer}"
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        gradedorbits.nonexistent  # noqa: B018
    assert not hasattr(gradedorbits, "Cocharacter")


SL_X = "0,0,0,0;1,0,0,0;0,0,0,0;0,0,1,0"
PROGRAM_ARGV = [
    ["orbits", "--type", "sp", "--n", "4"],
    ["graded-orbits", "--cochar", "1,1,0,0,-1,-1", "--degree", "-1", "--json"],
    ["grading", "--type", "sp", "--d", "4", "--cochar", "-1,0,1,0", "--degree", "1"],
    ["triple", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--x", SL_X, "--degree", "-1"],
    ["parabolic", "--type", "sl", "--d", "4", "--cochar", "1,0,0,-1", "--x", SL_X, "--degree", "-1"],
    ["primes", "--type", "sl", "--n", "4", "--json"],
    ["fibers", "--case", "sp4", "--primes", "2,3"],
    ["stalks", "--case", "sl4", "--char", "0", "--json"],
    ["--help"],
    ["fibers", "--case", "sl4", "--primes", "131"],
]


# one call of each subcommand, and the import of the cli module
SUBCOMMAND_ARGV = PROGRAM_ARGV[:8]
STARTS = [["-c", "import gradedorbits.cli"]] + [
    ["-m", "gradedorbits.cli", *argv, "--quiet"] for argv in SUBCOMMAND_ARGV
]


@pytest.mark.parametrize("start", STARTS, ids=["import"] + [a[0] for a in SUBCOMMAND_ARGV])
def test_no_start_loads_dataclasses_or_inspect(start):
    # the records are namedtuples, and inspect is what dataclasses costs
    assert [a[0] for a in SUBCOMMAND_ARGV] == list(cli.COMMANDS)
    assert not imported(python("-X", "importtime", *start)) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", PROGRAM_ARGV, ids=[" ".join(a[:1] + a[-1:]) for a in PROGRAM_ARGV])
def test_program_path_prints_what_run_prints(capsys, monkeypatch, argv):
    proc = python("-m", "gradedorbits.cli", *argv)
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout) == (code, captured.out.encode())
    assert proc.stderr == captured.err.encode()
    assert code == (2 if "131" in argv else 0)


def test_closed_stdout_pipe_exits_141_in_silence():
    # the 5,604 orbits of sl_30 print far more than a pipe holds, so the
    # program is still writing when its reader closes the pipe
    argv = [sys.executable, "-m", "gradedorbits.cli", "orbits", "--type", "sl", "--n", "30"]
    with subprocess.Popen(argv, env=environment(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split() == [b"orbit", b"dim", b"pi1"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (cli.EXIT_CLOSED_PIPE, b"")
    assert cli.EXIT_CLOSED_PIPE == 141
