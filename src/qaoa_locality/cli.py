"""Command-line interface.

Every subcommand prints a JSON report to stdout and exits 0 on success.
Failures write a machine-readable error object to stderr and exit 2 for
invalid input or 3 for resource-limit violations. ``run --config`` accepts
a JSON file mirroring any subcommand's flags, plus optional ``out`` and
``csv_out`` paths for the serialized report.
"""
from __future__ import annotations

import argparse
import json
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
from .optimize import DEFAULT_BUDGET, SearchDomain, optimize
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


def _int_opt(options: dict, key: str, default=None):
    value = options.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"option {key!r} must be an integer, got {value!r}") from None


def _req_int(options: dict, key: str) -> int:
    _require(options, key)
    return _int_opt(options, key)


def _float_list(value) -> tuple[float, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    else:
        parts = list(value)
    try:
        return tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise InputError(f"expected a comma-separated list of numbers, got {value!r}") from None


def _int_list(value) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    else:
        parts = list(value)
    try:
        return [int(p) for p in parts]
    except (TypeError, ValueError):
        raise InputError(f"expected a comma-separated list of integers, got {value!r}") from None


def _build_model(options: dict, d: int) -> CostModel:
    kind = str(options.get("model") or MAXCUT)
    if kind == MAXCUT:
        return CostModel.maxcut()
    if kind == MIS:
        return CostModel.mis(d)
    raise InputError(f"unknown model {kind!r} (expected {MAXCUT!r} or {MIS!r})")


def _initial(options: dict) -> str:
    return str(options.get("init") or "plus")


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
    rng = as_generator(seed)
    domain = SearchDomain.for_model(model, p)
    gammas = tuple(float(x) for x in rng.uniform(0.0, domain.gamma_period, size=p))
    betas = tuple(float(x) for x in rng.uniform(0.0, domain.beta_period, size=p))
    return QaoaParams(gammas, betas)


# ----------------------------------------------------------------------
# command handlers: options dict in, report dict out
# ----------------------------------------------------------------------

def _cmd_generate(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    kind = str(options.get("kind") or "general")
    seed = _int_opt(options, "seed", 0)
    out = _require(options, "out")
    spec = EnsembleSpec(n, d, kind, seed)
    g = sample_graph(spec)
    write_edgelist(g, out)
    config = {"n": n, "d": d, "kind": kind, "seed": seed, "out": str(out)}
    return make_report(
        "generate", config, {"vertices": g.n, "edges": g.m, "path": str(out)}
    )


def _cmd_cycles(options: dict) -> dict:
    kmax = _int_opt(options, "kmax", 6)
    path = options.get("in")
    if path is not None:
        g = read_edgelist(path)
        census = count_cycles(g, kmax)
        config = {"in": str(path), "kmax": kmax}
        return make_report(
            "cycles",
            config,
            {"vertices": g.n, "edges": g.m, "counts": dict(census.counts)},
        )
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    kind = str(options.get("kind") or "general")
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
    spec = EnsembleSpec(n, d, str(options.get("kind") or "general"), seed)
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
    do_optimize = bool(options.get("optimize"))
    if (tree_value is None) == (not do_optimize):
        raise InputError("give exactly one of --tree-value or --optimize")
    if do_optimize:
        value = optimize(d, p, model, _initial(options)).best_value
    else:
        try:
            value = float(tree_value)
        except (TypeError, ValueError):
            raise InputError(f"tree value must be a number, got {tree_value!r}") from None
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
    path = options.get("in")
    if path is None:
        raise InputError("missing required option 'in'")
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
    kind = str(options.get("kind") or "general")
    trials = _int_opt(options, "trials", 20)
    seed = _int_opt(options, "seed", 0)
    spec = EnsembleSpec(n, d, kind, seed)
    return tree_fraction_experiment(spec, p_list, trials)


def _cmd_end_to_end(options: dict) -> dict:
    n = _req_int(options, "n")
    d = _req_int(options, "d")
    p = _req_int(options, "p")
    model = _build_model(options, d)
    kind = str(options.get("kind") or "general")
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


_COMMANDS = {
    "generate": _cmd_generate,
    "cycles": _cmd_cycles,
    "tree-expect": _cmd_tree_expect,
    "optimize": _cmd_optimize,
    "locality-check": _cmd_locality_check,
    "equivalence": _cmd_equivalence,
    "ratio-bound": _cmd_ratio_bound,
    "prune": _cmd_prune,
    "tree-fraction": _cmd_tree_fraction,
    "end-to-end": _cmd_end_to_end,
}


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
    handler = _COMMANDS.get(command)
    if handler is None:
        known = ", ".join(sorted(_COMMANDS))
        raise InputError(f"unknown command {command!r} (known: {known})")
    out = body.pop("out", None)
    csv_out = body.pop("csv_out", None)
    report = handler(body)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    if csv_out is not None:
        with open(csv_out, "w", encoding="utf-8") as fh:
            fh.write(csv_from_report(report))
    return report


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

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

    sp = sub.add_parser("generate", help="sample a graph and write its edge list")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--kind", choices=["general", "bipartite"])
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_generate)

    sp = sub.add_parser("cycles", help="cycle census of a file or an ensemble")
    sp.add_argument("--in")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--kind", choices=["general", "bipartite"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--kmax", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(handler=_cmd_cycles)

    sp = sub.add_parser("tree-expect", help="middle-edge value on the canonical tree")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--model", choices=[MAXCUT, MIS])
    sp.add_argument("--init", choices=["zero", "plus"])
    sp.add_argument("--gamma", help="comma-separated, one per layer")
    sp.add_argument("--beta", help="comma-separated, one per layer")
    sp.set_defaults(handler=_cmd_tree_expect)

    sp = sub.add_parser("optimize", help="search angles on the canonical tree")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--model", choices=[MAXCUT, MIS])
    sp.add_argument("--init", choices=["zero", "plus"])
    sp.add_argument("--resolution", type=int)
    sp.add_argument("--budget", type=int)
    sp.set_defaults(handler=_cmd_optimize)

    sp = sub.add_parser(
        "locality-check",
        help="full simulation vs extracted neighborhoods, random angles",
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--model", choices=[MAXCUT, MIS])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(handler=_cmd_locality_check)

    sp = sub.add_parser(
        "equivalence", help="general vs bipartite ensemble means at several n"
    )
    sp.add_argument("--n-list", dest="n_list", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--model", choices=[MAXCUT, MIS])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(handler=_cmd_equivalence)

    sp = sub.add_parser(
        "ratio-bound", help="approximation-ratio ceiling from literature constants"
    )
    sp.add_argument("--model", choices=[MAXCUT, MIS])
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree-value", dest="tree_value", type=float)
    group.add_argument("--optimize", action="store_true")
    sp.set_defaults(handler=_cmd_ratio_bound)

    sp = sub.add_parser("prune", help="repair a bitstring into an independent set")
    sp.add_argument("--in", required=True)
    sp.add_argument("--bits", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(handler=_cmd_prune)

    sp = sub.add_parser(
        "tree-fraction", help="fraction of tree neighborhoods across radii"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p-list", dest="p_list", required=True)
    sp.add_argument("--kind", choices=["general", "bipartite"])
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(handler=_cmd_tree_fraction)

    sp = sub.add_parser("run", help="run any command from a JSON config file")
    sp.add_argument("--config", required=True)
    sp.set_defaults(handler=_cmd_run)

    return parser


def _emit_error(message: str, category: str) -> None:
    payload = {"error": {"category": category, "message": message}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version exit through here
        return exc.code if isinstance(exc.code, int) else 0
    except InputError as exc:
        _emit_error(str(exc), exc.category)
        return 2
    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler", "command") and value is not None
    }
    try:
        report = args.handler(options)
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
