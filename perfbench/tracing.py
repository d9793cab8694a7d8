"""Per-layer tracing of the qaoa_locality package, installed from outside.

The package's modules import each other's functions by name
(``experiments.run_qaoa``, ``trees.run_qaoa``, ...), so wrapping a function
in its defining module alone misses most calls. ``Tracer.install`` builds one
wrapper per public function and then replaces the original, by identity, in
every ``qaoa_locality.*`` module namespace. Modules are reached through
``sys.modules`` because ``qaoa_locality.optimize`` is the function that
shadows the module of the same name.

Each wrapper records a span (name, layer, parent span, start, end) in memory
and its self time: its duration minus the time covered by its child spans.
Counters are taken at the same boundaries from arguments and return values,
plus two probes that are not spans: a counting proxy around the generator
that ``graphs`` uses for stub matching, and a subclass of the tree objective
that ``optimize`` builds, counting its evaluations.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("graphs", "qaoa", "trees", "optimize", "experiments")

# Scalar helpers cost less per call than a span does; their time stays in
# the calling span, which is in the same layer or its only caller's layer.
UNWRAPPED = frozenset({"edge_cost", "bit_values", "bits_to_index", "index_to_bits"})

# Per-layer timing metrics: self time summed over these functions' spans.
SELF_TIME_GROUPS = {
    "graphs.sample_s": ("sample_graph", "generate_regular", "generate_bipartite_regular"),
    "graphs.edge_ball_s": ("edge_neighborhood", "tree_edge_fraction"),
    "graphs.cycles_s": ("count_cycles",),
    "qaoa.run_s": ("run_qaoa", "prepare_initial", "apply_phase", "apply_mixer"),
    "qaoa.cost_table_s": ("cost_table",),
    "qaoa.expect_s": ("expect_edge", "expect_total"),
    "qaoa.sample_s": ("sample_bitstrings",),
    "qaoa.cost_value_s": ("cost_value",),
    "trees.tree_s": ("build_canonical_tree", "tree_expectation"),
    "trees.neighborhood_s": ("neighborhood_expectation",),
    "optimize.grid_s": ("grid_search",),
    "optimize.refine_s": ("refine",),
    "experiments.prune_s": ("prune",),
}

COUNTS = (
    "graphs.samples",
    "graphs.match_attempts",
    "graphs.edge_balls",
    "qaoa.runs",
    "qaoa.cost_tables",
    "qaoa.amp_updates",
    "qaoa.bytes_computed",
    "trees.neighborhood_sims",
    "trees.tree_edges_checked",
    "optimize.grid_points",
    "optimize.refine_passes",
    "optimize.evals",
    "experiments.prunes",
    "experiments.prune_steps",
)

# qaoa.bytes_computed is an array-size model, not a measurement: bytes of
# complex128 or float64 data each kernel reads plus writes once per sweep.
_BYTES_PER_AMP_UPDATE = 32  # read and write one complex128 per phase or mixer step
_BYTES_PER_TABLE_EDGE = 8  # two quarter-table float64 read-modify-writes per edge
_BYTES_PER_EXPECT_TOTAL = 40  # |a|^2 pass (16 in, 8 out), then the dot (16 in)
_BYTES_PER_MARGINAL = 16  # |a|^2 summed over one pass of the amplitudes
_BYTES_PER_SAMPLE_PASS = 40  # probabilities, normalisation, cumulative sum


def _observe_run_qaoa(c, args, kwargs, result):
    g = args[0]
    params = args[2] if len(args) > 2 else kwargs["params"]
    updates = params.p * (g.n + 1) * (1 << g.n)
    c["qaoa.runs"] += 1
    c["qaoa.amp_updates"] += updates
    c["qaoa.bytes_computed"] += _BYTES_PER_AMP_UPDATE * updates


def _observe_cost_table(c, args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    c["qaoa.cost_tables"] += 1
    c["qaoa.bytes_computed"] += _BYTES_PER_TABLE_EDGE * g.m * (1 << g.n)


def _observe_state(bytes_per_amp):
    def observe(c, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        c["qaoa.bytes_computed"] += bytes_per_amp * (1 << state.m)

    return observe


def _observe_sample(c, args, kwargs, result):
    c["graphs.samples"] += 1


def _observe_edge_neighborhood(c, args, kwargs, result):
    c["graphs.edge_balls"] += 1


def _observe_tree_edge_fraction(c, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    c["graphs.edge_balls"] += g.m


def _observe_neighborhood_expectation(c, args, kwargs, result):
    c["trees.neighborhood_sims"] += 1


def _observe_locality_check(c, args, kwargs, result):
    c["trees.tree_edges_checked"] += result["results"]["tree_edges_checked"]


def _observe_grid_search(c, args, kwargs, result):
    c["optimize.grid_points"] += len(result.trace)


def _observe_refine(c, args, kwargs, result):
    c["optimize.refine_passes"] += result.refinement_iterations


def _observe_prune(c, args, kwargs, result):
    c["experiments.prunes"] += 1
    c["experiments.prune_steps"] += len(result.steps)


OBSERVERS = {
    "run_qaoa": _observe_run_qaoa,
    "cost_table": _observe_cost_table,
    "expect_total": _observe_state(_BYTES_PER_EXPECT_TOTAL),
    "expect_edge": _observe_state(_BYTES_PER_MARGINAL),
    "sample_bitstrings": _observe_state(_BYTES_PER_SAMPLE_PASS),
    "generate_regular": _observe_sample,
    "generate_bipartite_regular": _observe_sample,
    "edge_neighborhood": _observe_edge_neighborhood,
    "tree_edge_fraction": _observe_tree_edge_fraction,
    "neighborhood_expectation": _observe_neighborhood_expectation,
    "locality_check": _observe_locality_check,
    "grid_search": _observe_grid_search,
    "refine": _observe_refine,
    "prune": _observe_prune,
}


class _CountingGenerator:
    """Delegates to a numpy Generator; counts ``shuffle`` calls, which are
    the stub-matching attempts of the rejection samplers in ``graphs``."""

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def shuffle(self, x, *args, **kwargs):
        self._counts["graphs.match_attempts"] += 1
        return self._rng.shuffle(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        # (name, layer, parent index or -1, start, end, self seconds)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []  # [span index, seconds covered by children]

    def _wrap(self, layer, name, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, parent, start, end, end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the five layers in every module
        namespace that holds it, and put the two counting probes in place."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qaoa_locality" or name.startswith("qaoa_locality.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"qaoa_locality.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and name not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(layer, name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

        graphs = modules["qaoa_locality.graphs"]
        as_generator = graphs.as_generator
        counts = self.counts
        graphs.as_generator = lambda seed: _CountingGenerator(as_generator(seed), counts)

        optimize_mod = modules["qaoa_locality.optimize"]
        objective = optimize_mod._TreeObjective

        class CountingObjective(objective):
            def value(self, gammas, betas):
                counts["optimize.evals"] += 1
                return objective.value(self, gammas, betas)

        optimize_mod._TreeObjective = CountingObjective

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded so far; ``wall_s`` is the
        traced pass's own wall time, the base of ``trace.coverage``."""
        by_name: Counter = Counter()
        by_layer: Counter = Counter()
        for name, layer, _parent, _start, _end, self_s in self.spans:
            by_name[name] += self_s
            by_layer[layer] += self_s
        out = {key: float(sum(by_name[n] for n in names)) for key, names in SELF_TIME_GROUPS.items()}
        out["experiments.self_s"] = float(by_layer["experiments"] - by_name["prune"])
        for layer in LAYERS:
            out[f"self.{layer}_s"] = float(by_layer[layer])
        for key in COUNTS:
            out[key] = int(self.counts[key])
        attempts = self.counts["graphs.match_attempts"]
        checked = self.counts["trees.tree_edges_checked"]
        # a ratio whose base is 0 is reported as 0; the base is printed too
        out["graphs.accept_ratio"] = self.counts["graphs.samples"] / attempts if attempts else 0.0
        out["trees.nb_cache_hit_ratio"] = (
            1.0 - self.counts["trees.neighborhood_sims"] / checked if checked else 0.0
        )
        covered = sum(by_layer.values())
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        return out
