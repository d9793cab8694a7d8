"""Shared pytest wiring: collect acceptance verdicts and echo them in the
terminal summary, where file-descriptor capture cannot hide them, and let
command-line subprocesses import the package from this checkout."""
import os
from pathlib import Path

VERDICTS = []

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pyproject's pythonpath reaches this process only; the CLI tests start
    # fresh interpreters, which find the package through PYTHONPATH.
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [SRC, *paths] if p)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.line(line)
