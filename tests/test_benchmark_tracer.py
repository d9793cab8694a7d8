"""The benchmark's tracer reaches into the package from outside. It wraps
the public functions by name, reads ``run_qaoa``'s graph and schedule and
``cost_table``'s graph by position and a state's ``Statevector.m``, swaps
``graphs.as_generator`` for a proxy that counts stub matchings, and
subclasses ``optimize._TreeObjective`` to count its ``value`` calls. A
small traced pass must move every counter that these hooks feed, and the
optimizer's counters must add up to the evaluations ``optimize`` reports."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PASS = """
import json, sys
sys.path.insert(0, {perfbench!r})
import qaoa_locality as q
from tracing import Tracer

tracer = Tracer()
tracer.install()
maxcut = q.CostModel.maxcut()
best = q.optimize(3, 1, maxcut).best_params
q.ensemble_equivalence([16], 3, 1, maxcut, best, trials=2)
# the seed-0 graphs at n=12 hold edges whose radius-1 ball has a cycle
q.end_to_end(q.EnsembleSpec(12, 3), 1, q.CostModel.mis(3), seed=0, trials=2, samples=4)
print(json.dumps(tracer.summary(1.0)))
"""

HOOKED = (
    "graphs.samples",
    "graphs.match_attempts",
    "graphs.edge_balls",
    "qaoa.runs",
    "trees.neighborhood_sims",
    "optimize.grid_points",
    "optimize.evals",
    "optimize.refine_passes",
    "experiments.prunes",
)


OPTIMIZE_PASS = """
import json, sys
sys.path.insert(0, {perfbench!r})
import qaoa_locality as q
from tracing import Tracer

tracer = Tracer()
tracer.install()
result = q.optimize(3, 2, q.CostModel.maxcut())
print(json.dumps([tracer.summary(1.0), result.evaluations, len(result.trace)]))
"""


def traced(template):
    """The last stdout line of ``template`` run in a fresh interpreter, as
    JSON."""
    code = template.format(perfbench=str(ROOT / "perfbench"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_pass_moves_every_hooked_counter():
    summary = traced(PASS)
    assert {key: summary[key] for key in HOOKED if not summary[key]} == {}


def test_traced_optimize_counts_every_evaluation():
    """Every objective call goes through the counting subclass and every
    grid point through the wrapped ``grid_search``: an objective built out
    of the tracer's reach would undercount here."""
    summary, evaluations, grid_points = traced(OPTIMIZE_PASS)
    assert summary["optimize.grid_points"] == grid_points
    assert summary["optimize.evals"] == evaluations - grid_points
