"""Small fixed graphs for tests: cliques, cycles, paths, complete bipartite
graphs, and the cut of a stored bipartition."""
from qaoa_locality.errors import InputError
from qaoa_locality.graphs import Graph


def max_cut_of_bipartition(g: Graph) -> int:
    """Number of edges crossing the stored bipartition."""
    if g.bipartition is None:
        raise InputError("graph carries no bipartition")
    classes = g.bipartition
    return sum(1 for u, v in g.edges if classes[u] != classes[v])


def complete_graph(n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges)


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InputError("both classes must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    classes = [0] * a + [1] * b
    return Graph.from_edges(a + b, edges, bipartition=classes)
