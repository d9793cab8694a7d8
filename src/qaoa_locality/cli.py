"""Command-line interface.

Every subcommand prints a JSON report to stdout and exits 0 on success.
Failures write a machine-readable error object to stderr and exit 2 for
invalid input or 3 for resource-limit violations. ``COMMAND --key VALUE
...`` is read as the ``{key: value}`` body that ``run --config`` loads from
a JSON file, and one function runs both. One table, ``_COMMANDS``, names
each subcommand's option keys (``--n-list``, ``--n_list`` and ``"n-list"``
are the key ``n_list``), and a second, ``_READERS``, reads every given
value before the command runs. A key left out keeps the default of the
library call it feeds. ``out`` and ``csv_out`` write the serialized report,
where the command does not read that key itself. Any other key that the
command, or the chosen form of it, never reads is refused, so a flag is
spelt out in full.

On the command line ``--optimize`` takes no value, and the token after any
other flag is its value unless it starts with "--" (``--gamma -0.5,0.2``).
A config value may keep its JSON type: an integer key takes an integer or a
string ``int()`` reads, a list key a list or a comma-separated string,
``optimize`` a boolean, and a text key (``model``, ``kind``, ``init``,
``bits``) or a path a string. Any other type, and a number that is not
finite, is refused. Seeds must be nonnegative.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

from .errors import InputError, ResourceError
from .experiments import (
    _equivalence_specs,
    _model_config,
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
# option readers (shared by command line and config-file paths)
# ----------------------------------------------------------------------

class _Options(dict):
    """Read option values by key; a required key that is absent is refused."""

    def __missing__(self, key):
        raise InputError(f"missing required option {key!r}")


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


def _integer(key: str, value) -> int:
    number = _number(value, int)
    if number is None:
        raise InputError(f"option {key!r} must be an integer, got {value!r}")
    return number


def _finite(key: str, value) -> float:
    number = _number(value, float)
    if number is None:
        raise InputError(f"tree value must be a finite number, got {value!r}")
    return number


def _list_of(parse, what: str):
    """Reader of a JSON list or a comma-separated string of numbers read by
    ``parse``."""
    def read(key: str, value) -> list:
        if isinstance(value, str):
            parts = [p for p in value.split(",") if p.strip() != ""]
        else:
            parts = value if isinstance(value, list) else [None]
        numbers = [_number(p, parse) for p in parts]
        if None in numbers:
            raise InputError(f"expected a comma-separated list of {what}, got {value!r}")
        return numbers
    return read


def _of_type(kind: type, what: str):
    """Reader that passes a value of ``kind`` through and refuses any other."""
    def read(key: str, value):
        if not isinstance(value, kind):
            raise InputError(f"option {key!r} must be {what}, got {value!r}")
        return value
    return read


_flag = _of_type(bool, "true or false")


# One reader per option key: it returns the typed value or refuses it.
_READERS = {
    **dict.fromkeys("n d p kmax trials samples seed resolution budget".split(), _integer),
    **dict.fromkeys(["gamma", "beta"], _list_of(float, "finite numbers")),
    **dict.fromkeys(["n_list", "p_list"], _list_of(int, "integers")),
    **dict.fromkeys("model kind init bits".split(), _of_type(str, "a string")),
    **dict.fromkeys("in out csv_out config".split(), _of_type(str, "a path string")),
    "tree_value": _finite,
    "optimize": _flag,
}


def _read(options: dict) -> _Options:
    """Every given value through its key's reader; None counts as absent."""
    return _Options(
        (key, _READERS[key](key, value)) for key, value in options.items() if value is not None
    )


def _given(options: _Options, *keys: str) -> dict:
    """The given ``keys`` as keyword arguments (``init`` as ``initial``), so
    that an absent key leaves the callee's own default."""
    return {"initial" if key == "init" else key: options[key] for key in keys if key in options}


def _spec(options: _Options) -> EnsembleSpec:
    return EnsembleSpec(options["n"], options["d"], **_given(options, "kind", "seed"))


def _refuse_unread(options: dict, keys, form: str) -> None:
    """Refuse any of ``keys`` given a value: ``form`` never reads them."""
    given = [key for key in keys if options.get(key) is not None]
    if given:
        raise InputError(f"{form} does not read option(s) {', '.join(given)}")


def _model(options: _Options) -> CostModel:
    kind = options.get("model", MAXCUT)
    if kind == MAXCUT:
        return CostModel.maxcut()
    if kind == MIS:
        return CostModel.mis(options["d"])
    raise InputError(f"unknown model {kind!r} (expected {MAXCUT!r} or {MIS!r})")


def _params_for(options: _Options, p: int) -> QaoaParams:
    gammas = options.get("gamma", [])
    betas = options.get("beta", [])
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
# command handlers: read options in, report dict out
# ----------------------------------------------------------------------

def _cmd_generate(options: _Options) -> dict:
    spec = _spec(options)
    out = options["out"]
    g = sample_graph(spec)
    write_edgelist(g, out)
    config = {**dataclasses.asdict(spec), "out": out}
    return make_report("generate", config, {"vertices": g.n, "edges": g.m, "path": out})


def _cmd_cycles(options: _Options) -> dict:
    kmax = options.get("kmax", 6)
    if "in" in options:
        _refuse_unread(options, "n d kind trials seed".split(), "cycles --in")
        g = read_edgelist(options["in"])
        config = {"in": options["in"], "kmax": kmax}
        return make_report(
            "cycles",
            config,
            {"vertices": g.n, "edges": g.m, "counts": count_cycles(g, kmax)},
        )
    return cycle_census_experiment(_spec(options), kmax, **_given(options, "trials"))


def _cmd_tree_expect(options: _Options) -> dict:
    d, p = options["d"], options["p"]
    model = _model(options)
    initial = options.get("init", "plus")
    params = _params_for(options, p)
    value = TreePathSum(d, p, model, initial).value(params.gammas, params.betas)
    config = {
        "d": d,
        "p": p,
        "model": _model_config(model),
        "init": initial,
        "gamma": list(params.gammas),
        "beta": list(params.betas),
    }
    return make_report(
        "tree-expect",
        config,
        {"value": value, "tree_vertices": tree_vertex_count(d, p)},
    )


def _cmd_optimize(options: _Options) -> dict:
    d, p = options["d"], options["p"]
    model = _model(options)
    initial = options.get("init", "plus")
    budget = options.get("budget", DEFAULT_BUDGET)
    result = optimize(
        d, p, model, initial, resolution=options.get("resolution"), budget=budget
    )
    config = {
        "d": d,
        "p": p,
        "model": _model_config(model),
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


def _cmd_locality_check(options: _Options) -> dict:
    model = _model(options)
    spec = _spec(options)
    p = options["p"]
    params = _random_params(model, p, spec.seed)
    return locality_check(spec, p, model, params, **_given(options, "init", "trials"))


def _cmd_equivalence(options: _Options) -> dict:
    n_list, d, p = options["n_list"], options["d"], options["p"]
    model = _model(options)
    ensembles = _given(options, "trials", "seed")
    _equivalence_specs(n_list, d, **ensembles)  # refuse bad input before searching
    best = optimize(d, p, model, **_given(options, "init")).best_params
    return ensemble_equivalence(
        n_list, d, p, model, best, **_given(options, "init"), **ensembles
    )


def _cmd_ratio_bound(options: _Options) -> dict:
    d, p = options["d"], options["p"]
    model = _model(options)
    do_optimize = options.get("optimize", False)
    if ("tree_value" in options) == do_optimize:
        raise InputError("give exactly one of --tree-value or --optimize")
    if do_optimize:
        ratio_ceiling(model, d, p, 0.0)  # refuse a case without a ceiling before searching
        value = optimize(d, p, model, **_given(options, "init")).best_value
    else:
        _refuse_unread(options, ["init"], "ratio-bound --tree-value")
        value = options["tree_value"]
    ratio = ratio_ceiling(model, d, p, value)
    config = {
        "d": d,
        "p": p,
        "model": _model_config(model),
        "tree_value": value,
        "optimized": do_optimize,
    }
    return make_report(
        "ratio-bound",
        config,
        {
            "tree_value": ratio["tree_value"],
            "ceiling": ratio["ceiling"],
            "achieved_ratio": ratio["achieved_ratio"],
            "within_ceiling": ratio["within_ceiling"],
            "asymptotic": ratio["asymptotic"],
            "finite_size_correction_unquantified": ratio["finite_size_flag"],
            "provenance": ratio["provenance"],
        },
    )


def _cmd_prune(options: _Options) -> dict:
    path, bits, d = options["in"], options["bits"], options["d"]
    result = prune(read_edgelist(path), bits, d)
    config = {"in": path, "bits": bits, "d": d}
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


def _cmd_tree_fraction(options: _Options) -> dict:
    spec = _spec(options)
    return tree_fraction_experiment(spec, options["p_list"], **_given(options, "trials"))


def _cmd_end_to_end(options: _Options) -> dict:
    model = _model(options)
    return end_to_end(
        _spec(options),
        options["p"],
        model,
        **_given(options, "budget", "init", "trials", "samples"),
    )


def _cmd_run(options: _Options) -> dict:
    path = options["config"]
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
    return _execute(command, body)


# ----------------------------------------------------------------------
# the command table, and one path from a command line or a config file
# ----------------------------------------------------------------------

# Each subcommand's handler, the option keys it reads and its help line.
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


def _command(name: str):
    """The table entry of command ``name``."""
    if name not in _COMMANDS:
        raise InputError(f"unknown command {name!r} (known: {', '.join(sorted(_COMMANDS))})")
    return _COMMANDS[name]


def _execute(command: str, body: dict) -> dict:
    """Run ``command`` on an option body, from the command line or a config
    file: refuse the keys it never reads, read every value, call the handler
    and write the report to ``out`` and ``csv_out``."""
    handler, keys, _ = _command(command)
    read = set(keys.split())
    _refuse_unread(body, sorted(body.keys() - read - {"out", "csv_out"}), command)
    options = _read(body)
    # a key the command reads itself (generate's edge list "out") is no report path
    outputs = [
        (options[key], form)
        for key, form in (("out", report_json), ("csv_out", csv_from_report))
        if key in options and key not in read
    ]
    report = handler(options)
    for path, form in outputs:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(form(report))
    return report


_HELP = ("-h", "--help")


def _parse(argv: list) -> tuple:
    """The command and its option body, keyed as in a config file; the body
    is None when help is asked for. ``--key=VALUE`` is ``--key VALUE``."""
    if not argv:
        raise InputError("invalid command line: the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        return command, None
    _command(command)  # an unknown command is named before any stray token
    body, stray = {}, []
    tokens = iter(rest)
    for token in tokens:
        flag, given, value = token.partition("=")
        key = flag[2:].replace("-", "_")
        if token in _HELP:
            return command, None
        if not (flag.startswith("--") and key):
            stray.append(token)
        elif given:
            body[key] = value
        elif _READERS.get(key) is _flag:
            body[key] = True
        else:
            body[key] = next(tokens, "--")
            if body[key].startswith("--"):
                raise InputError(f"invalid command line: argument {flag}: expected one argument")
    if stray:
        raise InputError(f"invalid command line: unrecognized arguments: {' '.join(stray)}")
    return command, body


def _usage(names) -> str:
    """The usage line and help line of each command in ``names``."""
    text = ""
    for name in names:
        _, keys, help_line = _command(name)
        flags = " ".join(
            f"[--{key.replace('_', '-')}]" if _READERS[key] is _flag
            else f"[--{key.replace('_', '-')} {key.upper()}]"
            for key in keys.split()
        )
        text += f"usage: qaoa-locality {name} [--help] {flags}\n    {help_line}\n"
    return text


def main(argv=None) -> int:
    try:
        command, body = _parse(sys.argv[1:] if argv is None else argv)
        if body is None:
            sys.stdout.write(_usage(_COMMANDS if command in _HELP else [command]))
            return 0
        report = _execute(command, body)
    except (InputError, ResourceError, OSError) as exc:
        # a path that cannot be read or written is invalid input
        category = getattr(exc, "category", InputError.category)
        error = {"error": {"category": category, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 3 if category == ResourceError.category else 2
    sys.stdout.write(report_json(report))
    return 0
