"""Exact light-cone simulation of the alternating-operator algorithm on
random regular graphs: per-edge expectations reduce to canonical-tree
computations whenever the edge's depth-radius neighborhood is a tree, which
makes ensemble-level predictions and ratio ceilings computable at desk
scale."""
from .errors import InputError, ResourceError
from .graphs import (
    EnsembleSpec,
    Graph,
    count_cycles,
    edge_neighborhood,
    edge_tree_radii,
    expected_matchings,
    generate_bipartite_regular,
    generate_regular,
    matching_budget,
    read_edgelist,
    sample_graph,
    tree_edge_fraction,
    write_edgelist,
)
from .qaoa import (
    DEFAULT_QUBIT_CAP,
    INITIAL_STATES,
    MAXCUT,
    MIS,
    CostModel,
    QaoaParams,
    Statevector,
    bit_values,
    cost_table,
    cost_value,
    expect_edges,
    expect_total,
    index_to_bits,
    prepare_initial,
    run_qaoa,
    sample_bitstrings,
)
from .trees import (
    LightConeSum,
    TreeExpectation,
    TreePathSum,
    build_canonical_tree,
    neighborhood_expectation,
    tree_expectation,
    tree_vertex_count,
)
from .optimize import (
    DEFAULT_BUDGET,
    OptResult,
    grid_search,
    optimize,
    refine,
)
from .experiments import (
    SCHEMA_VERSION,
    PruneResult,
    csv_from_report,
    cycle_census_experiment,
    cycle_oracle_mean,
    end_to_end,
    ensemble_equivalence,
    locality_check,
    make_report,
    prune,
    ratio_ceiling,
    report_json,
    tree_fraction_experiment,
)
from .rng import as_generator, derive_seeds

__version__ = "0.1.0"
