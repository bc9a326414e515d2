"""The table registry and ``python -m repro.experiments``: one entry per
table, flags taken from the harness signatures, ``--help`` without Spark."""
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro.experiments.__main__ as cli
from repro.experiments.tables import TABLES

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ENTRIES = list(TABLES.items())
IDS = [harness.__name__ for _, (harness, _) in ENTRIES]


def _flag_params(harness, flags):
    params = inspect.signature(harness).parameters
    return [params[f] for f in flags]


def test_one_job_per_table():
    assert list(TABLES) == [f"t{i}" for i in range(1, 12)]


@pytest.mark.parametrize("name,entry", ENTRIES, ids=IDS)
def test_job_importable_with_main(name, entry):
    """The entry point is documented for spark-submit, and every flag is
    a keyword parameter of the harness with a scalar default."""
    assert callable(cli.main)
    assert cli.__doc__ and "spark-submit" in cli.__doc__
    harness, flags = entry
    assert flags and set(flags) <= set(inspect.signature(harness).parameters)
    for p in _flag_params(harness, flags):
        assert p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        assert type(p.default) in (int, float, str), p


@pytest.mark.parametrize("name,entry", ENTRIES, ids=IDS)
def test_job_help_runs(name, entry, monkeypatch, capsys):
    """--help must work without touching Spark (argparse exits first)."""
    monkeypatch.setattr(cli, "SparkSession", None)  # any use would raise
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()
    for flag in entry[1]:
        assert "--" + flag.replace("_", "-") in out


@pytest.mark.parametrize("name,entry", ENTRIES, ids=IDS)
def test_cli_defaults_are_harness_defaults(name, entry):
    """``tN`` without flags runs what the benchmark runs: the harness
    defaults."""
    harness, flags = entry
    args = vars(cli.parser().parse_args([name]))
    assert args.pop("table") == name
    assert args == {p.name: p.default for p in _flag_params(harness, flags)}


def test_module_help_runs():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert "usage" in out.stdout.lower()
