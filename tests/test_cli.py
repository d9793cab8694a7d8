"""End-to-end checks of the installed command line interface.

These run the real entry point in a subprocess so exit codes, stdout and
stderr behave exactly as a shell user sees them.
"""
import hashlib
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qaoa_locality.cli as cli_module
from qaoa_locality.cli import _COMMANDS, _READERS, _random_params, main
from qaoa_locality.experiments import (
    cycle_census_experiment,
    end_to_end,
    ensemble_equivalence,
    locality_check,
    report_json,
    tree_fraction_experiment,
)
from qaoa_locality.graphs import EnsembleSpec, sample_graph, write_edgelist
from qaoa_locality.optimize import optimize
from qaoa_locality.qaoa import CostModel, QaoaParams
from qaoa_locality.trees import TreePathSum, tree_expectation


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qaoa_locality", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def stdout_report(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def stderr_error(proc):
    payload = json.loads(proc.stderr)
    return payload["error"]


def test_generate_then_census_pipeline(tmp_path):
    path = tmp_path / "g.edges"
    proc = run_cli(
        "generate", "--n", "12", "--d", "3", "--seed", "1", "--out", str(path)
    )
    report = stdout_report(proc)
    assert report["results"]["vertices"] == 12
    assert report["results"]["edges"] == 18
    assert path.exists()

    proc = run_cli("cycles", "--in", str(path), "--kmax", "5")
    report = stdout_report(proc)
    counts = report["results"]["counts"]
    assert set(counts) == {"3", "4", "5"}
    assert all(v >= 0 for v in counts.values())


def test_tree_expect_matches_library():
    proc = run_cli(
        "tree-expect",
        "--d", "3", "--p", "1",
        "--gamma", "0.9", "--beta", "0.4",
    )
    report = stdout_report(proc)
    expected = tree_expectation(
        3, 1, CostModel.maxcut(), QaoaParams((0.9,), (0.4,))
    ).value
    assert report["results"]["value"] == pytest.approx(expected, abs=1e-12)
    assert report["results"]["tree_vertices"] == 6


def test_optimize_subcommand():
    proc = run_cli("optimize", "--d", "2", "--p", "1", "--resolution", "8")
    report = stdout_report(proc)
    results = report["results"]
    assert results["best_value"] == pytest.approx(0.75, abs=1e-6)
    assert len(results["gammas"]) == 1 and len(results["betas"]) == 1
    assert results["converged"] is True
    # the grid's 4 x 8 box points, then the refinement's path-sum calls
    assert results["evaluations"] > 4 * 8


def test_ratio_bound_from_value():
    proc = run_cli(
        "ratio-bound", "--d", "3", "--p", "1",
        "--tree-value", "0.6924500897298755",
    )
    report = stdout_report(proc)
    assert report["results"]["ceiling"] == pytest.approx(0.9350666666666667)
    assert report["results"]["within_ceiling"] is True


def test_ratio_bound_flag_exclusivity():
    proc = run_cli(
        "ratio-bound", "--d", "3", "--p", "1",
        "--tree-value", "0.5", "--optimize",
    )
    assert proc.returncode == 2
    assert stderr_error(proc)["category"] == "invalid-input"


def test_ratio_bound_unknown_constant_is_refused():
    proc = run_cli("ratio-bound", "--d", "4", "--p", "1", "--tree-value", "0.6")
    assert proc.returncode == 2
    error = stderr_error(proc)
    assert error["category"] == "invalid-input"
    assert "no constant available" in error["message"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--d", "4", "--p", "2"],
         "no constant available for the cut ceiling at d=4: the literature "
         "gives only the form 'd/4 + O(sqrt(d))'"),
        (["--model", "mis", "--d", "2", "--p", "1"],
         "no constant available for the independent-set ceiling at d=2"),
    ],
    ids=["maxcut-d4", "mis-d2"],
)
def test_ratio_bound_refuses_before_it_searches(monkeypatch, capsys, flags, message):
    """A case without a ceiling is known from the model and d alone, so
    ``--optimize`` is refused before any angle search runs."""
    searches = []
    monkeypatch.setattr(cli_module, "optimize", lambda *a, **k: searches.append(a))
    code, out, err = call_main(capsys, "ratio-bound", *flags, "--optimize")
    assert_refused(code, out, err)
    assert err == json.dumps({"error": {"category": "invalid-input", "message": message}}) + "\n"
    assert searches == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-list", "8", "--trials", "1"], "need at least two trials for standard errors"),
        (["--n-list", "8", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--n-list", "16,9"], "general ensemble needs n*d even"),
    ],
    ids=["trials", "seed", "later-n"],
)
def test_equivalence_refuses_before_it_searches(monkeypatch, capsys, flags, message):
    """The experiment's own input check runs before the angle search."""

    def search(*args, **kwargs):
        raise AssertionError("searched for angles")

    monkeypatch.setattr(cli_module, "optimize", search)
    code, out, err = call_main(capsys, "equivalence", *flags, "--d", "3", "--p", "2")
    assert_refused(code, out, err)
    assert err == json.dumps({"error": {"category": "invalid-input", "message": message}}) + "\n"


def test_prune_subcommand(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    proc = run_cli("prune", "--in", str(path), "--bits", "1100", "--d", "2")
    report = stdout_report(proc)
    assert report["results"]["output_bitstring"] == "1000"
    assert report["results"]["costs"] == ["0", "1/2"]
    assert report["results"]["steps"] == [{"edge": [0, 1], "zeroed": 1}]


def test_qubit_cap_exits_3():
    # the cap is checked before the register is allocated
    proc = run_cli(
        "locality-check", "--n", "28", "--d", "3", "--p", "1", "--trials", "1"
    )
    assert proc.returncode == 3
    error = stderr_error(proc)
    assert error["category"] == "resource-limit"
    assert "28 qubits exceed the cap of 26" in error["message"]


def test_tree_expect_has_no_qubit_cap():
    proc = run_cli(
        "tree-expect",
        "--d", "3", "--p", "3",
        "--gamma", "0.4,0.8,1.1", "--beta", "0.5,0.3,0.1",
    )
    report = stdout_report(proc)
    expected = TreePathSum(3, 3, CostModel.maxcut()).value(
        (0.4, 0.8, 1.1), (0.5, 0.3, 0.1)
    )
    assert report["results"]["value"] == expected
    assert report["results"]["tree_vertices"] == 30


def test_tree_expect_path_sum_cap_exits_3():
    # the path sum's weight grows as 2**(2p+1); p=13 is refused unallocated
    proc = run_cli("tree-expect", "--d", "2", "--p", "13")
    assert proc.returncode == 3
    error = stderr_error(proc)
    assert error["category"] == "resource-limit"
    assert "p=13" in error["message"]


def test_matching_budget_exits_3(tmp_path):
    # d=8 stub matchings are simple about once in 10**7 tries, so the spec
    # is refused before any matching is drawn
    start = time.monotonic()
    proc = run_cli(
        "generate", "--n", "20", "--d", "8", "--out", str(tmp_path / "g.edges")
    )
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 3
    error = stderr_error(proc)
    assert error["category"] == "resource-limit"
    assert "n=20, d=8 needs about 5.84e+07 stub matchings" in error["message"]
    assert not (tmp_path / "g.edges").exists()


def test_cycle_budget_exits_3():
    # 1000 * 3 * 2**38 paths is far above the census budget; the search is
    # refused at the first graph, before it starts
    start = time.monotonic()
    proc = run_cli("cycles", "--n", "1000", "--d", "3", "--kmax", "40", "--trials", "2")
    assert time.monotonic() - start < 5.0
    assert proc.returncode == 3
    assert proc.stdout == ""
    error = stderr_error(proc)
    assert error["category"] == "resource-limit"
    assert "1000*3*2^38 paths, above the limit of 1e+08" in error["message"]

    # on a cycle the path bound does not grow with kmax; kmax itself is capped
    proc = run_cli("cycles", "--n", "10", "--d", "2", "--kmax", "10001", "--trials", "2")
    assert proc.returncode == 3
    assert stderr_error(proc)["category"] == "resource-limit"


def test_locality_check_subcommand():
    proc = run_cli(
        "locality-check",
        "--n", "8", "--d", "3", "--p", "1",
        "--trials", "2", "--seed", "7",
    )
    report = stdout_report(proc)
    assert report["results"]["max_discrepancy"] < 1e-9
    assert report["config"]["trials"] == 2


def test_equivalence_subcommand():
    proc = run_cli(
        "equivalence",
        "--n-list", "8,10", "--d", "2", "--p", "1", "--trials", "3",
    )
    report = stdout_report(proc)
    series = report["results"]["series"]
    assert [row["n"] for row in series] == [8, 10]
    assert report["results"]["tree_value"] == pytest.approx(0.75, abs=1e-6)


def test_tree_fraction_subcommand():
    proc = run_cli(
        "tree-fraction", "--n", "16", "--d", "3", "--p-list", "1,2",
        "--trials", "4",
    )
    report = stdout_report(proc)
    assert [row["p"] for row in report["results"]["series"]] == [1, 2]


def test_run_config_is_byte_deterministic(tmp_path):
    config = tmp_path / "census.json"
    config.write_text(
        json.dumps(
            {
                "command": "cycles",
                "n": 30,
                "d": 3,
                "kind": "general",
                "trials": 5,
                "kmax": 4,
                "seed": 2,
            }
        )
    )
    first = run_cli("run", "--config", str(config))
    second = run_cli("run", "--config", str(config))
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


RING = "4 4\n0 1\n1 2\n2 3\n3 0\n"

# One case per command of the table (and a second form of some): the
# command line and a config file with the same keys. Config values keep
# their JSON types, so both paths must read them alike.
PARITY_CASES = {
    "generate": (
        ["generate", "--n", "16", "--d", "4", "--kind", "bipartite",
         "--seed", "3", "--out", "g.edges"],
        {"n": 16, "d": 4, "kind": "bipartite", "seed": 3, "out": "g.edges"},
    ),
    "cycles": (["cycles", "--n", "20", "--d", "3"], {"n": 20, "d": 3}),
    "cycles-bipartite": (
        ["cycles", "--n", "16", "--d", "4", "--kind", "bipartite",
         "--trials", "3", "--kmax", "5", "--seed", "2"],
        {"n": 16, "d": 4, "kind": "bipartite", "trials": 3, "kmax": 5, "seed": 2},
    ),
    "cycles-in": (
        ["cycles", "--in", "ring.edges", "--kmax", "4"],
        {"in": "ring.edges", "kmax": 4},
    ),
    "tree-expect": (["tree-expect", "--d", "3", "--p", "1"], {"d": 3, "p": 1}),
    "tree-expect-mis": (
        ["tree-expect", "--d", "3", "--p", "2", "--model", "mis", "--init", "zero",
         "--gamma", "1,2", "--beta", "0.3,0.2"],
        {"d": 3, "p": 2, "model": "mis", "init": "zero",
         "gamma": [1, 2], "beta": [0.3, 0.2]},
    ),
    "optimize": (
        ["optimize", "--d", "2", "--p", "1", "--resolution", "8"],
        {"d": 2, "p": 1, "resolution": 8},
    ),
    "optimize-mis": (
        ["optimize", "--d", "3", "--p", "1", "--model", "mis", "--init", "zero",
         "--resolution", "16", "--budget", "1000"],
        {"d": 3, "p": 1, "model": "mis", "init": "zero",
         "resolution": 16, "budget": 1000},
    ),
    "locality-check": (
        ["locality-check", "--n", "8", "--d", "3", "--p", "1"],
        {"n": 8, "d": 3, "p": 1},
    ),
    "locality-check-bipartite": (
        ["locality-check", "--n", "8", "--d", "3", "--p", "1", "--kind", "bipartite",
         "--init", "zero", "--trials", "2", "--seed", "3"],
        {"n": 8, "d": 3, "p": 1, "kind": "bipartite", "init": "zero",
         "trials": 2, "seed": 3},
    ),
    "equivalence": (
        ["equivalence", "--n-list", "8,10", "--d", "2", "--p", "1", "--init", "zero",
         "--trials", "3", "--seed", "5"],
        {"n_list": [8, 10], "d": 2, "p": 1, "init": "zero", "trials": 3, "seed": 5},
    ),
    "ratio-bound": (
        ["ratio-bound", "--d", "3", "--p", "1", "--optimize", "--init", "zero"],
        {"d": 3, "p": 1, "optimize": True, "init": "zero"},
    ),
    "ratio-bound-value": (
        ["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "0.6924500897298755"],
        {"d": 3, "p": 1, "tree_value": 0.6924500897298755},
    ),
    "prune": (
        ["prune", "--in", "ring.edges", "--bits", "1100", "--d", "2"],
        {"in": "ring.edges", "bits": "1100", "d": 2},
    ),
    "tree-fraction": (
        ["tree-fraction", "--n", "16", "--d", "3", "--p-list", "1,2"],
        {"n": 16, "d": 3, "p_list": "1,2"},
    ),
    "end-to-end": (
        ["end-to-end", "--n", "8", "--d", "3", "--p", "1", "--model", "maxcut",
         "--trials", "2", "--samples", "0", "--seed", "4"],
        {"n": 8, "d": 3, "p": 1, "model": "maxcut", "trials": 2, "samples": 0,
         "seed": 4},
    ),
}


def call_main(capsys, *args):
    """Run the entry point in this process; returns (exit code, stdout, stderr)."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parity_cases_cover_every_command():
    assert {argv[0] for argv, _ in PARITY_CASES.values()} == set(_COMMANDS) - {"run"}


@pytest.mark.parametrize("case", list(PARITY_CASES))
def test_command_line_and_config_share_defaults(tmp_path, monkeypatch, capsys, case):
    """The command line and a config file reach every command with one set
    of keys, read by one reader per key, and an optional key left out keeps
    the default of the library call it feeds, so both print one report and
    write the same files."""
    argv, config = PARITY_CASES[case]
    outputs = []
    for side in ("argv", "config"):
        cwd = tmp_path / side
        cwd.mkdir()
        (cwd / "ring.edges").write_text(RING)
        monkeypatch.chdir(cwd)
        if side == "argv":
            args = argv
        else:
            (cwd / "config.json").write_text(json.dumps({"command": argv[0], **config}))
            args = ["run", "--config", "config.json"]
        code, out, err = call_main(capsys, *args)
        assert code == 0, err
        files = {
            path.name: path.read_text()
            for path in sorted(cwd.iterdir())
            if path.name != "config.json"
        }
        outputs.append((out, files))
    assert outputs[0] == outputs[1]


def test_run_config_generate_writes_the_edge_list(tmp_path, monkeypatch):
    """A config file's "out" is generate's edge-list path, not a report path."""
    monkeypatch.chdir(tmp_path)
    direct = run_cli("generate", "--n", "16", "--d", "3", "--seed", "1", "--out", "a.edges")
    Path("c.json").write_text(json.dumps(
        {"command": "generate", "n": 16, "d": 3, "seed": 1, "out": "b.edges"}
    ))
    from_config = run_cli("run", "--config", "c.json")
    assert from_config.returncode == 0, from_config.stderr
    assert Path("b.edges").read_text() == Path("a.edges").read_text()
    assert from_config.stdout == direct.stdout.replace("a.edges", "b.edges")


REFUSED_COMMAND_LINES = {
    "missing-option": (
        ["generate", "--d", "3", "--out", "g.edges"], "missing required option 'n'"),
    "non-integer": (
        ["cycles", "--n", "x", "--d", "3"], "option 'n' must be an integer, got 'x'"),
    "unknown-model": (
        ["tree-expect", "--d", "3", "--p", "1", "--model", "foo"],
        "unknown model 'foo' (expected 'maxcut' or 'mis')"),
    "unknown-kind": (
        ["tree-fraction", "--n", "16", "--d", "3", "--p-list", "1", "--kind", "foo"],
        "unknown ensemble kind 'foo'"),
    "empty-kind": (
        ["generate", "--n", "16", "--d", "3", "--kind", "", "--out", "g.edges"],
        "unknown ensemble kind ''"),
    "unknown-init": (
        ["tree-expect", "--d", "3", "--p", "1", "--init", "foo"], "unknown initial state 'foo'"),
    "both-tree-value-and-optimize": (
        ["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "0.5", "--optimize"],
        "give exactly one of --tree-value or --optimize"),
    "neither-tree-value-nor-optimize": (
        ["ratio-bound", "--d", "3", "--p", "1"], "give exactly one of --tree-value or --optimize"),
    "non-numeric-tree-value": (
        ["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "x"],
        "tree value must be a finite number, got 'x'"),
    "unknown-flag": (
        ["tree-expect", "--d", "3", "--p", "1", "--kind", "general"],
        "tree-expect does not read option(s) kind"),
    "flag-without-value": (
        ["generate", "--n", "16", "--d", "3", "--out"],
        "invalid command line: argument --out: expected one argument"),
    "unknown-command": (
        ["frobnicate"],
        "unknown command 'frobnicate' (known: cycles, end-to-end, equivalence, generate,"
        " locality-check, optimize, prune, ratio-bound, run, tree-expect, tree-fraction)"),
    "ensemble-keys-with-in": (
        ["cycles", "--in", "ring.edges", "--n", "x", "--trials", "-3", "--kind", "nonsense"],
        "option 'n' must be an integer, got 'x'"),
    "init-with-tree-value": (
        ["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "0.6", "--init", "bogus"],
        "ratio-bound --tree-value does not read option(s) init"),
    "config-key-not-read": (
        ["run", "--config", "typo.json"], "tree-fraction does not read option(s) trails"),
    "locality-check-negative-depth": (
        ["locality-check", "--n", "12", "--d", "3", "--p", "-1"],
        "depth must be nonnegative, got -1"),
    "tree-expect-negative-depth": (
        ["tree-expect", "--d", "3", "--p", "-1"], "depth must be nonnegative, got -1"),
    "optimize-negative-depth": (
        ["optimize", "--d", "3", "--p", "-1"], "depth must be nonnegative, got -1"),
    "angles-of-another-depth": (
        ["tree-expect", "--d", "3", "--p", "2", "--gamma", "0.1", "--beta", "0.2"],
        "expected 2 gamma and 2 beta values, got 1 and 1"),
    "config-not-an-object": (
        ["run", "--config", "array.json"], "config file must hold a JSON object"),
    "config-without-command": (
        ["run", "--config", "no-command.json"], "config needs a 'command' field"),
    "no-command": (
        [], "invalid command line: the following arguments are required: command"),
}


@pytest.mark.parametrize("case", list(REFUSED_COMMAND_LINES))
def test_refused_command_lines_exit_2(tmp_path, monkeypatch, capsys, case):
    """Refused before anything is written, with a message that names the
    cause; every key given must be one the chosen command and form reads,
    from the command line or a config file."""
    argv, message = REFUSED_COMMAND_LINES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring.edges").write_text(RING)
    (tmp_path / "typo.json").write_text(json.dumps(
        {"command": "tree-fraction", "n": 16, "d": 3, "p_list": "1", "trails": 2}
    ))
    (tmp_path / "array.json").write_text(json.dumps([{"command": "optimize"}]))
    (tmp_path / "no-command.json").write_text(json.dumps({"d": 3, "p": 1}))
    before = sorted(tmp_path.iterdir())
    code, out, err = call_main(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"category": "invalid-input", "message": message}
    assert sorted(tmp_path.iterdir()) == before


def test_run_config_writes_report_and_csv(tmp_path):
    config = tmp_path / "census.json"
    out = tmp_path / "report.json"
    csv_out = tmp_path / "series.csv"
    config.write_text(
        json.dumps(
            {
                "command": "cycles",
                "n": 30,
                "d": 3,
                "trials": 5,
                "kmax": 4,
                "seed": 2,
                "out": str(out),
                "csv_out": str(csv_out),
            }
        )
    )
    proc = run_cli("run", "--config", str(config))
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0].startswith("k,")
    assert len(lines) == 3


def test_run_config_end_to_end(tmp_path):
    config = tmp_path / "e2e.json"
    config.write_text(
        json.dumps(
            {
                "command": "end-to-end",
                "n": 8,
                "d": 3,
                "p": 0,
                "model": "maxcut",
                "trials": 2,
                "samples": 0,
                "seed": 4,
            }
        )
    )
    proc = run_cli("run", "--config", str(config))
    report = stdout_report(proc)
    assert report["kind"] == "end-to-end"
    assert report["results"]["ratio"]["achieved_ratio"] == pytest.approx(0.5)


def test_run_config_error_paths(tmp_path):
    proc = run_cli("run", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert "not found" in stderr_error(proc)["message"]

    bad_command = tmp_path / "bad.json"
    bad_command.write_text(json.dumps({"command": "teleport"}))
    proc = run_cli("run", "--config", str(bad_command))
    assert proc.returncode == 2
    assert "unknown command" in stderr_error(proc)["message"]

    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"command": "run", "config": "x.json"}))
    proc = run_cli("run", "--config", str(nested))
    assert proc.returncode == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{oops")
    proc = run_cli("run", "--config", str(not_json))
    assert proc.returncode == 2
    assert "JSON" in stderr_error(proc)["message"]


def test_invalid_arguments_exit_2():
    proc = run_cli("generate", "--n", "7", "--d", "3", "--out", "/dev/null")
    assert proc.returncode == 2  # odd n*d
    assert stderr_error(proc)["category"] == "invalid-input"

    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    assert stderr_error(proc)["category"] == "invalid-input"


def test_help_exits_0():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
    assert proc.stderr == ""


# sha256 of the stdout report, recorded before the grid was one array; the
# three MaxCut digests again when the path sum went to fused slice factors,
# after which each search returns a symmetric point of its old one, with a
# value within 6e-11 of the old; all four again when refine went to BFGS:
# maxcut-d3-p2 rose by 4.4e-5 to its basin's maximum, the other values moved
# by at most 1.8e-15, and the evaluation and iteration counts fell; all four
# again when the grid went to one box of the angle symmetries: every search
# reports the canonical point in the box, maxcut-d3-p2 rose to the published
# p=2 optimum 0.7559064585, the other values moved by at most 1.5e-15, and
# the evaluation counts fell
PINNED_OPTIMIZE_REPORTS = {
    "maxcut-d3-p1": (
        ["--d", "3", "--p", "1"],
        "21aea4fbf6bf8af0cd0f3fe992f94b2fed7ed64596f6b1f038e7b0f1d6100138",
    ),
    "maxcut-d3-p2": (
        ["--d", "3", "--p", "2"],
        "a2355ab83751921737fee014bcbb678f911b1e55d43b871270260764924b766f",
    ),
    "mis3-zero-p1": (
        ["--d", "3", "--p", "1", "--model", "mis", "--init", "zero"],
        "3e2cbd6ebb4d7534e27af5fa6a3f736d01508a1dc914cfa6f6fec0ff48f06deb",
    ),
    "maxcut-d2-p2": (
        ["--d", "2", "--p", "2"],
        "7637ad14052aa089148b490ebaf8f4c0ab4f72435a8486519386cecde63b4408",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_OPTIMIZE_REPORTS))
def test_optimize_reports_are_pinned(capsys, case):
    flags, digest = PINNED_OPTIMIZE_REPORTS[case]
    code, out, err = call_main(capsys, "optimize", *flags)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


# sha256 of the stdout report of commands that PARITY_CASES checks only
# command line against config file, recorded while ratio_ceiling still
# returned a dataclass and the ball's edge had a reader of its own; the
# tree-expect and ratio-bound-optimize digests again when the path sum went
# to fused slice factors (values moved by at most 8.9e-16), and the two
# ratio-bound-optimize digests again when refine went to BFGS (values moved
# by at most 1.8e-15); ratio-bound-optimize again when the grid went to one
# box of the angle symmetries (the value moved by 1.1e-16)
PINNED_COMMAND_REPORTS = {
    "ratio-bound-value": (
        ["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "0.6924500897298755"],
        "9f3f1025e2509930a1696a086f5a0ed00d5ac2de8047b36d7ef15e2b142b132b",
    ),
    "ratio-bound-value-mis-d3-above": (
        ["ratio-bound", "--model", "mis", "--d", "3", "--p", "2", "--tree-value", "0.5"],
        "b0fa9f3b98bfe7509f71eead0c0d7d69b05b7025c46f4145f83cf84b2610dc31",
    ),
    "ratio-bound-value-mis-d5": (
        ["ratio-bound", "--model", "mis", "--d", "5", "--p", "1", "--tree-value", "0.02"],
        "284d6c2e4ca756a373dbc34b24da52d5f05c4ff39b93c8949fad57f30a80181a",
    ),
    "ratio-bound-optimize": (
        ["ratio-bound", "--d", "3", "--p", "1", "--optimize"],
        "52e6dbafa714ed62553cc4d66022ac5f387e714e1085c72ac025be774a3fa982",
    ),
    "ratio-bound-optimize-mis-zero": (
        ["ratio-bound", "--model", "mis", "--d", "3", "--p", "1", "--optimize", "--init", "zero"],
        "433664035b79a810c6a264e5987e1e4dd37dfa84bbde30ddaac7144b931f0d41",
    ),
    "prune-ring": (
        ["prune", "--in", "ring.edges", "--bits", "1100", "--d", "2"],
        "18150fecd7938e9cb8fe8e97f08a41da178cba46005815d28b2b7f4642b7bee7",
    ),
    "prune-d3": (
        ["prune", "--in", "d3.edges", "--bits", "10110111001101011101", "--d", "3"],
        "674d83c9180d2e0e256cbf6d044bbcb6447a813d9e15b704e32a60c45460814c",
    ),
    "tree-expect": (
        ["tree-expect", "--d", "3", "--p", "2", "--gamma", "0.7,1.9", "--beta", "0.4,0.2"],
        "c949c6b4540130e6405371d97f8d062a3e1c97f7fa0a5ac467a7293790b278d1",
    ),
    "tree-expect-mis-zero": (
        ["tree-expect", "--d", "4", "--p", "2", "--model", "mis", "--init", "zero",
         "--gamma", "1,2", "--beta", "0.3,0.2"],
        "3d6953b6988b15060349dfbc3a78d6e7910c73c1ecd18a8d5859c9579540a7aa",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_COMMAND_REPORTS))
def test_command_reports_are_pinned(tmp_path, monkeypatch, capsys, case):
    argv, digest = PINNED_COMMAND_REPORTS[case]
    monkeypatch.chdir(tmp_path)
    Path("ring.edges").write_text(RING)
    write_edgelist(sample_graph(EnsembleSpec(20, 3, "general", 5)), "d3.edges")
    code, out, err = call_main(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out


def assert_refused(code, out, err):
    """Exit 2 with nothing on stdout and one JSON error line on stderr."""
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["category"] == "invalid-input"


@pytest.mark.parametrize(
    "config",
    [
        {"command": "tree-expect", "d": 3, "p": 1, "gamma": 0.5, "beta": 0.2},
        {"command": "tree-fraction", "n": 16, "d": 3, "p_list": 2},
        {"command": "tree-fraction", "n": 16, "d": 3, "p_list": [1, 2.0]},
        {"command": "cycles", "n": 20, "d": 3.7},
        {"command": "cycles", "n": 20, "d": True},
        {"command": "ratio-bound", "d": 3, "p": 1, "optimize": "false"},
        {"command": "ratio-bound", "d": 3, "p": 1, "tree_value": True},
        {"command": "cycles", "in": [1]},
        {"command": "cycles", "n": 20, "d": 3, "out": 1},
        {"command": "cycles", "n": 20, "d": 3, "csv_out": 2},
        {"command": "generate", "n": 16, "d": 3, "out": 5},
        {"command": "prune", "in": "ring.edges", "bits": 1100, "d": 2},
        {"command": "tree-expect", "d": 3, "p": 1, "model": ["mis"]},
    ],
    ids=[
        "scalar-gamma", "scalar-p-list", "float-in-p-list", "float-d", "bool-d",
        "string-optimize", "bool-tree-value", "list-in", "int-out", "int-csv-out",
        "int-generate-out", "int-bits", "list-model",
    ],
)
def test_config_refuses_what_the_command_line_refuses(tmp_path, monkeypatch, capsys, config):
    """Integer keys take a JSON integer or an integer string, list keys a
    list or a comma-separated string, optimize a boolean, and text keys and
    paths a string; nothing runs and nothing is written otherwise."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert_refused(*call_main(capsys, "run", "--config", "config.json"))
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_config_takes_integers_as_strings(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv, config = PARITY_CASES["cycles-bipartite"]
    strings = {key: str(value) for key, value in config.items()}
    Path("config.json").write_text(json.dumps({"command": "cycles", **strings}))
    assert call_main(capsys, "run", "--config", "config.json") == call_main(capsys, *argv)


@pytest.mark.parametrize(
    "argv, config",
    [
        (["ratio-bound", "--d", "3", "--p", "1", "--tree-value", "nan"],
         {"command": "ratio-bound", "d": 3, "p": 1, "tree_value": math.nan}),
        (["ratio-bound", "--d", "3", "--p", "1", "--tree-value=-inf"],
         {"command": "ratio-bound", "d": 3, "p": 1, "tree_value": -math.inf}),
        (["tree-expect", "--d", "3", "--p", "1", "--gamma", "inf", "--beta", "0.1"],
         {"command": "tree-expect", "d": 3, "p": 1, "gamma": [math.inf], "beta": [0.1]}),
        (["tree-expect", "--d", "3", "--p", "2", "--gamma", "0.1,0.2", "--beta", "0.1,NaN"],
         {"command": "tree-expect", "d": 3, "p": 2, "gamma": "0.1,0.2", "beta": "0.1,NaN"}),
    ],
    ids=["nan-tree-value", "minus-inf-tree-value", "inf-gamma", "nan-beta"],
)
def test_non_finite_numbers_exit_2(tmp_path, monkeypatch, capsys, argv, config):
    # json writes the NaN and Infinity tokens, which a config file may hold
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config))
    assert_refused(*call_main(capsys, *argv))
    assert_refused(*call_main(capsys, "run", "--config", "config.json"))


@pytest.mark.parametrize("case", [case for case in PARITY_CASES if case != "tree-expect-mis"])
def test_config_values_of_any_type_exit_cleanly(tmp_path, monkeypatch, capsys, case):
    """Each key of a depth <= 1 base config, replaced by a value of each
    JSON type in turn, runs or is refused: exit 0 with a report, or exit 2
    or 3 with one JSON error line, and never an uncaught exception."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring.edges").write_text(RING)
    argv, base = PARITY_CASES[case]
    for key in base:
        for value in (0.5, True, [1], {"a": 1}, "x"):
            config = {"command": argv[0], **base, key: value}
            Path("config.json").write_text(json.dumps(config))
            code, out, err = call_main(capsys, "run", "--config", "config.json")
            if code == 0:
                assert json.loads(out)["kind"] == argv[0]
            else:
                assert code in (2, 3) and out == "", (config, code, err)
                assert err.count("\n") == 1
                assert set(json.loads(err)) == {"error"}


def test_text_keys_take_strings_only(tmp_path, monkeypatch, capsys):
    """A text key is not turned into a string: 1100 is not the bits "1100"."""
    monkeypatch.chdir(tmp_path)
    Path("ring.edges").write_text(RING)
    for key, config in [
        ("bits", {"command": "prune", "in": "ring.edges", "bits": 1100, "d": 2}),
        ("model", {"command": "tree-expect", "d": 3, "p": 1, "model": ["mis"]}),
    ]:
        Path("config.json").write_text(json.dumps(config))
        code, out, err = call_main(capsys, "run", "--config", "config.json")
        assert_refused(code, out, err)
        message = json.loads(err)["error"]["message"]
        assert message == f"option {key!r} must be a string, got {config[key]!r}"


def test_readers_cover_exactly_the_command_keys():
    keys = {key for _, names, _ in _COMMANDS.values() for key in names.split()}
    assert set(_READERS) == keys | {"out", "csv_out"}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_help_lists_the_command_keys(capsys, name):
    code, out, err = call_main(capsys, name, "--help")
    assert (code, err) == (0, "")
    flags = {"--" + key.replace("_", "-") for key in _COMMANDS[name][1].split()}
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == flags | {"--help"}


MAXCUT = CostModel.maxcut()

# Each ensemble command given only its required flags, and the library call
# given only its required arguments: cycles' kmax of 6 is the command's own.
LIBRARY_DEFAULTS = {
    "cycles": (
        ["--n", "10", "--d", "3"],
        lambda: cycle_census_experiment(EnsembleSpec(10, 3), 6),
    ),
    "tree-fraction": (
        ["--n", "10", "--d", "3", "--p-list", "1,2"],
        lambda: tree_fraction_experiment(EnsembleSpec(10, 3), [1, 2]),
    ),
    "end-to-end": (
        ["--n", "8", "--d", "3", "--p", "1"],
        lambda: end_to_end(EnsembleSpec(8, 3), 1, MAXCUT),
    ),
    "equivalence": (
        ["--n-list", "8", "--d", "2", "--p", "1"],
        lambda: ensemble_equivalence(
            [8], 2, 1, MAXCUT, optimize(2, 1, MAXCUT).best_params
        ),
    ),
    "locality-check": (
        ["--n", "8", "--d", "3", "--p", "1"],
        lambda: locality_check(
            EnsembleSpec(8, 3), 1, MAXCUT, _random_params(MAXCUT, 1, 0)
        ),
    ),
}


@pytest.mark.parametrize("name", list(LIBRARY_DEFAULTS))
def test_defaults_come_from_the_library(capsys, name):
    flags, library_call = LIBRARY_DEFAULTS[name]
    code, out, err = call_main(capsys, name, *flags)
    assert code == 0, err
    assert out == report_json(library_call())


# The commands that take --seed, each with its other required flags.
SEEDED = {
    "generate": ["--n", "16", "--d", "3", "--out", "g.edges"],
    "cycles": ["--n", "16", "--d", "3"],
    "locality-check": ["--n", "8", "--d", "3", "--p", "1"],
    "equivalence": ["--n-list", "8", "--d", "2", "--p", "1"],
    "tree-fraction": ["--n", "16", "--d", "3", "--p-list", "1"],
    "end-to-end": ["--n", "8", "--d", "3", "--p", "1"],
}


def test_seeded_commands_are_every_command_with_a_seed():
    assert set(SEEDED) == {name for name, (_, keys, _) in _COMMANDS.items() if "seed" in keys.split()}


@pytest.mark.parametrize("name", list(SEEDED))
def test_negative_seeds_exit_2(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    flags = SEEDED[name]
    config = {flag[2:].replace("-", "_"): value for flag, value in zip(flags[::2], flags[1::2])}
    Path("config.json").write_text(json.dumps({"command": name, **config, "seed": -1}))
    for args in ([name, *flags, "--seed", "-1"], ["run", "--config", "config.json"]):
        code, out, err = call_main(capsys, *args)
        assert_refused(code, out, err)
        assert json.loads(err)["error"]["message"] == "seed must be nonnegative, got -1"
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_flag_values_may_start_with_a_minus_sign(capsys):
    flags = ["tree-expect", "--d", "3", "--p", "2"]
    joined = call_main(capsys, *flags, "--gamma=-0.5,0.2", "--beta=-1e-3,0.2")
    spaced = call_main(capsys, *flags, "--gamma", "-0.5,0.2", "--beta", "-1e-3,0.2")
    assert joined[0] == 0, joined[2]
    assert json.loads(joined[1])["config"]["gamma"] == [-0.5, 0.2]
    assert spaced == joined


def test_minus_inf_tree_value_is_read_as_a_value(capsys):
    code, out, err = call_main(
        capsys, "ratio-bound", "--d", "3", "--p", "1", "--tree-value", "-inf"
    )
    assert_refused(code, out, err)
    message = json.loads(err)["error"]["message"]
    assert message == "tree value must be a finite number, got '-inf'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--out", "--seed", "2"], "argument --out: expected one argument"),
        (["tree-expect", "--d", "3", "--p", "1", "--gamma"],
         "argument --gamma: expected one argument"),
        (["ratio-bound", "--d", "3", "--p", "1", "--optimize", "-1"],
         "unrecognized arguments: -1"),
    ],
    ids=["flag-after-flag", "flag-at-end", "value-after-optimize"],
)
def test_a_flag_without_its_value_is_still_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = call_main(capsys, *argv)
    assert_refused(code, out, err)
    assert json.loads(err)["error"]["message"] == f"invalid command line: {message}"
    assert list(tmp_path.iterdir()) == []


def config_of(argv):
    """The config-file body of a ``COMMAND --key VALUE ...`` line."""
    return {"command": argv[0], **{flag[2:]: value for flag, value in zip(argv[1::2], argv[2::2])}}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cycles", "--n", "16", "--d", "3", "--tri", "2", "--km", "4"],
         "cycles does not read option(s) km, tri"),
        (["end-to-end", "--n", "8", "--d", "3", "--p", "1", "--s", "3"],
         "end-to-end does not read option(s) s"),
        (["teleport", "--n", "8"],
         "unknown command 'teleport' (known: cycles, end-to-end, equivalence, generate, "
         "locality-check, optimize, prune, ratio-bound, run, tree-expect, tree-fraction)"),
        # a flag in the command's place is looked up as the command, before
        # the token after it could be refused as stray
        (["--n", "3"],
         "unknown command '--n' (known: cycles, end-to-end, equivalence, generate, "
         "locality-check, optimize, prune, ratio-bound, run, tree-expect, tree-fraction)"),
    ],
    ids=["abbreviated-flags", "ambiguous-flag", "unknown-command", "flag-for-command"],
)
def test_the_command_line_is_refused_as_its_config_file(tmp_path, monkeypatch, capsys, argv, message):
    """A flag is spelt out in full: an abbreviation is a key the command
    never reads, and a command is looked up in one table, on the command
    line as in a config file."""
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config_of(argv)))
    for args in (argv, ["run", "--config", "config.json"]):
        code, out, err = call_main(capsys, *args)
        assert_refused(code, out, err)
        assert json.loads(err)["error"]["message"] == message
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_an_underscore_spells_the_same_flag(capsys):
    flags = ["--d", "2", "--p", "1", "--trials", "3"]
    dashed = call_main(capsys, "equivalence", "--n-list", "8,10", *flags)
    assert dashed[0] == 0, dashed[2]
    assert call_main(capsys, "equivalence", "--n_list", "8,10", *flags) == dashed


def test_report_paths_on_the_command_line_write_what_a_config_file_writes(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = PARITY_CASES["cycles-bipartite"][0]
    paths = {"out": "report.json", "csv_out": "series.csv"}
    Path("config.json").write_text(json.dumps({**config_of(argv), **paths}))
    written = []
    for args in ([*argv, "--out", "report.json", "--csv-out", "series.csv"],
                 ["run", "--config", "config.json"]):
        code, out, err = call_main(capsys, *args)
        assert (code, err) == (0, ""), err
        written.append((out, *(Path(path).read_bytes() for path in paths.values())))
        for path in paths.values():
            Path(path).unlink()
    assert written[0] == written[1]
    assert written[0][1] == written[0][0].encode("utf-8")


def test_a_value_that_looks_like_help_is_a_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("ring.edges").write_text(RING)
    code, out, err = call_main(capsys, "prune", "--in", "ring.edges", "--bits", "-h", "--d", "2")
    assert_refused(code, out, err)
    assert json.loads(err)["error"]["message"] == "bit strings may only contain 0 and 1"


@pytest.mark.parametrize(
    "edges",
    ["4 4\n0 1\n1 2\n2 3\n3 0.5\n", "4 4\n0 1\n1 2\n2 3\n3 0 1\n"],
    ids=["float-endpoint", "three-endpoints"],
)
def test_edge_lists_the_edge_rule_refuses_exit_2(tmp_path, monkeypatch, capsys, edges):
    monkeypatch.chdir(tmp_path)
    Path("g.edges").write_text(edges)
    assert_refused(*call_main(capsys, "prune", "--in", "g.edges", "--bits", "1100", "--d", "2"))


@pytest.mark.parametrize("budget", [0, -1])
def test_budgets_below_one_exit_2(tmp_path, monkeypatch, capsys, budget):
    """A budget below 1 is invalid input, refused before any search."""
    monkeypatch.chdir(tmp_path)
    for argv in (["optimize", "--d", "3", "--p", "1", "--budget", str(budget)],
                 ["end-to-end", "--n", "8", "--d", "3", "--p", "1", "--budget", str(budget)]):
        Path("config.json").write_text(json.dumps({**config_of(argv), "budget": budget}))
        for args in (argv, ["run", "--config", "config.json"]):
            code, out, err = call_main(capsys, *args)
            assert_refused(code, out, err)
            assert json.loads(err)["error"]["message"] == f"budget must be at least 1, got {budget}"
