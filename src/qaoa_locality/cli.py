"""Command-line interface.

Every subcommand prints a JSON report to stdout and exits 0 on success.
Failures write a machine-readable error object to stderr and exit 2 for
invalid input or 3 for resource-limit violations. One table, ``_COMMANDS``,
names each subcommand's option keys: every key is a ``--flag`` and a key of
a ``run --config`` JSON file, and the handler checks its value either way.
A config file may add ``out`` and ``csv_out`` paths for the serialized
report, where the command does not read that key itself. Any other key that
the command, or the chosen form of it, never reads is refused. A config
value may keep its JSON type: an integer key takes an integer or a string
``int()`` reads, a list key a list or a comma-separated string, ``optimize``
a boolean and a path a string. Any other type, and a number that is not
finite, is refused as the command line would refuse it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import InputError, ResourceError
from .experiments import (
    csv_from_report,
    cycle_census_experiment,
    end_to_end,
    ensemble_equivalence,
    locality_check,
    make_report,
    prune,
    ratio_ceiling,
    report_json,
    tree_fraction_experiment,
)
from .graphs import EnsembleSpec, count_cycles, read_edgelist, sample_graph, write_edgelist
from .optimize import DEFAULT_BUDGET, optimize
from .qaoa import MAXCUT, MIS, CostModel, QaoaParams
from .rng import as_generator
from .trees import TreePathSum, tree_vertex_count

__all__ = ["main"]


# ----------------------------------------------------------------------
# option helpers (shared by command line and config-file paths)
# ----------------------------------------------------------------------

def _require(options: dict, key: str):
    if options.get(key) is None:
        raise InputError(f"missing required option {key!r}")
    return options[key]


def _number(value, parse):
    """``parse(value)`` (``int`` or ``float``) for a string or a JSON number
    of that kind, as a command-line string would read; None for a boolean,
    a container, a float where an integer is due or a non-finite value."""
    kinds = (str, int) if parse is int else (str, int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        return None
    try:
        number = parse(value)
    except (ValueError, OverflowError):
        return None
    return number if parse is int or math.isfinite(number) else None


def _int_opt(options: dict, key: str, default=None):
    value = options.get(key)
    if value is None:
        return default
    number = _number(value, int)
    if number is None:
        raise InputError(f"option {key!r} must be an integer, got {value!r}")
    return number


def _req_int(options: dict, key: str) -> int:
    _require(options, key)
    return _int_opt(options, key)


def _number_list(value, parse, what: str) -> list:
    """A JSON list or a comma-separated string of numbers read by ``parse``."""
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    else:
        parts = value if isinstance(value, list) else [None]
    numbers = [_number(p, parse) for p in parts]
    if None in numbers:
        raise InputError(f"expected a comma-separated list of {what}, got {value!r}")
    return numbers


def _float_list(value) -> tuple[float, ...]:
    if value is None:
        return ()
    return tuple(_number_list(value, float, "finite numbers"))


def _int_list(value) -> list[int]:
    return _number_list(value, int, "integers")


def _path(options: dict, key: str, required: bool = False):
    value = _require(options, key) if required else options.get(key)
    if value is not None and not isinstance(value, str):
        raise InputError(f"option {key!r} must be a path string, got {value!r}")
    return value


def _text(options: dict, key: str, default: str) -> str:
    value = options.get(key)
    return default if value is None else str(value)


def _refuse_unread(options: dict, keys, form: str) -> None:
    """Refuse any of ``keys`` given a value: ``form`` never reads them."""
    given = [key for key in keys if options.get(key) is not None]
    if given:
        raise InputError(f"{form} does not read option(s) {', '.join(given)}")


def _build_model(options: dict, d: int) -> CostModel:
    kind = _text(options, "model", MAXCUT)
    if kind == MAXCUT:
        return CostModel.maxcut()
    if kind == MIS:
        return CostModel.mis(d)
    raise InputError(f"unknown model {kind!r} (expected {MAXCUT!r} or {MIS!r})")


def _initial(options: dict) -> str:
    return _text(options, "init", "plus")


def _params_for(options: dict, p: int) -> QaoaParams:
    gammas = _float_list(options.get("gamma"))
    betas = _float_list(options.get("beta"))
    if not gammas and not betas:
        return QaoaParams.zeros(p)
    if len(gammas) != p or len(betas) != p:
        raise InputError(
            f"expected {p} gamma and {p} beta values, got "
            f"{len(gammas)} and {len(betas)}"
        )
    return QaoaParams(gammas, betas)


def _random_params(model: CostModel, p: int, seed: int) -> QaoaParams:
    if p < 0:
        raise InputError("depth must be nonnegative")
    rng = as_generator(seed)
    gammas = tuple(float(x) for x in rng.uniform(0.0, model.gamma_period, size=p))
    betas = tuple(float(x) for x in rng.uniform(0.0, math.pi, size=p))
    return QaoaParams(gammas, betas)


# ----------------------------------------------------------------------
# command handlers: options dict in, report dict out
# ----------------------------------------------------------------------

def _cmd_generate(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    kind = _text(options, "kind", "general")
    seed = _int_opt(options, "seed", 0)
    out = _path(options, "out", required=True)
    spec = EnsembleSpec(n, d, kind, seed)
    g = sample_graph(spec)
    write_edgelist(g, out)
    config = {"n": n, "d": d, "kind": kind, "seed": seed, "out": str(out)}
    return make_report(
        "generate", config, {"vertices": g.n, "edges": g.m, "path": str(out)}
    )


def _cmd_cycles(options: dict) -> dict:
    kmax = _int_opt(options, "kmax", 6)
    path = _path(options, "in")
    if path is not None:
        _refuse_unread(options, "n d kind trials seed".split(), "cycles --in")
        g = read_edgelist(path)
        config = {"in": str(path), "kmax": kmax}
        return make_report(
            "cycles",
            config,
            {"vertices": g.n, "edges": g.m, "counts": count_cycles(g, kmax)},
        )
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    kind = _text(options, "kind", "general")
    trials = _int_opt(options, "trials", 100)
    seed = _int_opt(options, "seed", 0)
    spec = EnsembleSpec(n, d, kind, seed)
    return cycle_census_experiment(spec, kmax, trials)


def _cmd_tree_expect(options: dict) -> dict:
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    initial = _initial(options)
    params = _params_for(options, p)
    value = TreePathSum(d, p, model, initial).value(params.gammas, params.betas)
    config = {
        "d": d,
        "p": p,
        "model": {"kind": model.kind, "d": model.d},
        "init": initial,
        "gamma": list(params.gammas),
        "beta": list(params.betas),
    }
    return make_report(
        "tree-expect",
        config,
        {"value": value, "tree_vertices": tree_vertex_count(d, p)},
    )


def _cmd_optimize(options: dict) -> dict:
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    initial = _initial(options)
    resolution = _int_opt(options, "resolution")
    budget = _int_opt(options, "budget", DEFAULT_BUDGET)
    result = optimize(
        d, p, model, initial, resolution=resolution, budget=budget
    )
    config = {
        "d": d,
        "p": p,
        "model": {"kind": model.kind, "d": model.d},
        "init": initial,
        "resolution": result.grid_resolution,
        "budget": budget,
    }
    return make_report(
        "optimize",
        config,
        {
            "best_value": result.best_value,
            "gammas": list(result.best_params.gammas),
            "betas": list(result.best_params.betas),
            "grid_resolution": result.grid_resolution,
            "refinement_iterations": result.refinement_iterations,
            "converged": result.converged,
            "evaluations": result.evaluations,
        },
    )


def _cmd_locality_check(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    trials = _int_opt(options, "trials", 10)
    seed = _int_opt(options, "seed", 0)
    params = _random_params(model, p, seed)
    spec = EnsembleSpec(n, d, _text(options, "kind", "general"), seed)
    return locality_check(spec, p, model, params, _initial(options), trials)


def _cmd_equivalence(options: dict) -> dict:
    n_list = _int_list(_require(options, "n_list"))
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    trials = _int_opt(options, "trials", 100)
    seed = _int_opt(options, "seed", 0)
    best = optimize(d, p, model, _initial(options)).best_params
    return ensemble_equivalence(
        n_list, d, p, model, best, _initial(options), trials, seed
    )


def _cmd_ratio_bound(options: dict) -> dict:
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    tree_value = options.get("tree_value")
    do_optimize = False if options.get("optimize") is None else options["optimize"]
    if not isinstance(do_optimize, bool):
        raise InputError(f"option 'optimize' must be true or false, got {do_optimize!r}")
    if (tree_value is None) == (not do_optimize):
        raise InputError("give exactly one of --tree-value or --optimize")
    if do_optimize:
        value = optimize(d, p, model, _initial(options)).best_value
    else:
        _refuse_unread(options, ["init"], "ratio-bound --tree-value")
        value = _number(tree_value, float)
        if value is None:
            raise InputError(f"tree value must be a finite number, got {tree_value!r}")
    report = ratio_ceiling(model, d, p, value)
    config = {
        "d": d,
        "p": p,
        "model": {"kind": model.kind, "d": model.d},
        "tree_value": value,
        "optimized": do_optimize,
    }
    return make_report(
        "ratio-bound",
        config,
        {
            "tree_value": report.tree_value,
            "ceiling": report.ceiling,
            "achieved_ratio": report.achieved_ratio,
            "within_ceiling": report.within_ceiling,
            "asymptotic": report.asymptotic,
            "finite_size_correction_unquantified": report.finite_size_flag,
            "provenance": report.provenance,
        },
    )


def _cmd_prune(options: dict) -> dict:
    path = _path(options, "in", required=True)
    bits = str(_require(options, "bits"))
    d = _req_int(options, "d")
    g = read_edgelist(path)
    result = prune(g, bits, d)
    config = {"in": str(path), "bits": bits, "d": d}
    return make_report(
        "prune",
        config,
        {
            "input_bitstring": result.input_bitstring,
            "output_bitstring": result.output_bitstring,
            "input_cost": result.input_cost,
            "output_set_size": result.output_set_size,
            "steps": [
                {"edge": list(edge), "zeroed": vertex}
                for edge, vertex in result.steps
            ],
            "costs": result.costs,
        },
    )


def _cmd_tree_fraction(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    p_list = _int_list(_require(options, "p_list"))
    kind = _text(options, "kind", "general")
    trials = _int_opt(options, "trials", 20)
    seed = _int_opt(options, "seed", 0)
    spec = EnsembleSpec(n, d, kind, seed)
    return tree_fraction_experiment(spec, p_list, trials)


def _cmd_end_to_end(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    kind = _text(options, "kind", "general")
    budget = _int_opt(options, "budget", DEFAULT_BUDGET)
    seed = _int_opt(options, "seed", 0)
    trials = _int_opt(options, "trials", 20)
    samples = _int_opt(options, "samples", 64)
    spec = EnsembleSpec(n, d, kind, seed)
    return end_to_end(
        spec,
        p,
        model,
        budget,
        seed,
        initial=_initial(options),
        trials=trials,
        samples=samples,
    )


def _cmd_run(options: dict) -> dict:
    path = _require(options, "config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise InputError("config file must hold a JSON object")
    body = {str(k).replace("-", "_"): v for k, v in config.items()}
    command = body.pop("command", None)
    if command is None:
        raise InputError("config needs a 'command' field")
    command = str(command).replace("_", "-")
    if command == "run":
        raise InputError("config files cannot nest 'run'")
    if command not in _COMMANDS:
        known = ", ".join(sorted(_COMMANDS.keys() - {"run"}))
        raise InputError(f"unknown command {command!r} (known: {known})")
    handler, keys, _ = _COMMANDS[command]
    # a key the command reads itself, such as generate's edge-list path
    # "out", is not a report path
    read = set(keys.split())
    out, csv_out = (None if key in read else _path(body, key) for key in ("out", "csv_out"))
    _refuse_unread(body, sorted(body.keys() - read - {"out", "csv_out"}), command)
    report = handler(body)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    if csv_out is not None:
        with open(csv_out, "w", encoding="utf-8") as fh:
            fh.write(csv_from_report(report))
    return report


# ----------------------------------------------------------------------
# the command table and argument parsing
# ----------------------------------------------------------------------

# Each subcommand's handler, the option keys it reads and its help line. A
# key is both a config-file key and a command-line flag (n_list is --n-list).
# Its value reaches the handler as given and the handler checks it, so the
# two paths accept and refuse the same values.
_COMMANDS = {
    "generate": (_cmd_generate, "n d kind seed out",
                 "sample a graph and write its edge list"),
    "cycles": (_cmd_cycles, "in n d kind trials kmax seed",
               "cycle census of a file or an ensemble"),
    "tree-expect": (_cmd_tree_expect, "d p model init gamma beta",
                    "middle-edge value on the canonical tree"),
    "optimize": (_cmd_optimize, "d p model init resolution budget",
                 "search angles on the canonical tree"),
    "locality-check": (_cmd_locality_check, "n d p model kind init trials seed",
                       "full simulation vs extracted neighborhoods, random angles"),
    "equivalence": (_cmd_equivalence, "n_list d p model init trials seed",
                    "general vs bipartite ensemble means at several n"),
    "ratio-bound": (_cmd_ratio_bound, "d p model tree_value optimize init",
                    "approximation-ratio ceiling from literature constants"),
    "prune": (_cmd_prune, "in bits d", "repair a bitstring into an independent set"),
    "tree-fraction": (_cmd_tree_fraction, "n d p_list kind trials seed",
                      "fraction of tree neighborhoods across radii"),
    "end-to-end": (_cmd_end_to_end, "n d p model kind init budget trials samples seed",
                   "optimized tree value, sampled ensemble totals, ratio ceiling"),
    "run": (_cmd_run, "config", "run any command from a JSON config file"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports failures as :class:`InputError`.

    The default implementation prints usage text to stderr and exits;
    routing through the package error type keeps stderr a single JSON
    object, the same contract every other failure follows.
    """

    def error(self, message):
        raise InputError(f"invalid command line: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qaoa-locality",
        description=(
            "Locality-based simulation and analysis of the alternating-"
            "operator algorithm on random regular graphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_line) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        for key in keys.split():
            flag = "--" + key.replace("_", "-")
            if key == "optimize":
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag)
    return parser


def _emit_error(message: str, category: str) -> None:
    payload = {"error": {"category": category, "message": message}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:  # --help exits through here
        return exc.code if isinstance(exc.code, int) else 0
    except InputError as exc:
        _emit_error(str(exc), exc.category)
        return 2
    handler = _COMMANDS[args.pop("command")][0]
    options = {key: value for key, value in args.items() if value is not None}
    try:
        report = handler(options)
    except InputError as exc:
        _emit_error(str(exc), exc.category)
        return 2
    except ResourceError as exc:
        _emit_error(str(exc), exc.category)
        return 3
    except OSError as exc:
        _emit_error(str(exc), "invalid-input")
        return 2
    sys.stdout.write(report_json(report))
    return 0
