"""Fractional multicast tree packing: the routing-only optimum.

Store-and-forward multicast can time-share several distribution trees;
its best rate is the *fractional Steiner tree packing* number, which on
coding-friendly graphs (the butterfly!) sits strictly between the best
single tree and the network-coding capacity.  This is the strongest
"routing-only solution" the paper's Fig. 7 can be compared against.

On the small candidate graphs the system targets we enumerate candidate
trees as unions of one feasible path per destination and solve the
packing LP over them:

    max Σ_T t_T   s.t.   Σ_{T ∋ e} t_T ≤ cap(e),  t ≥ 0.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.lp import LinearProgram, LinExpr, Variable
from repro.routing.paths import Path, enumerate_feasible_paths

#: Shortest feasible paths kept per destination when forming candidates.
MAX_PATHS_PER_DESTINATION = 12

#: A tree whose packed rate (Mbps) is at most this is solver dust.
MIN_TREE_RATE_MBPS = 1e-6


def candidate_trees(
    graph: nx.DiGraph,
    source: str,
    destinations: list[str],
    relay_nodes: set[str] | None = None,
    max_delay_ms: float = float("inf"),
) -> list[frozenset[tuple[str, str]]]:
    """Candidate distribution trees as per-destination path unions.

    Each candidate is a frozenset of edges formed by choosing one
    feasible path per destination and taking the union.  Unions that
    contain a cycle through shared nodes still work for forwarding (the
    relay duplicates packets), so no extra filtering is needed; duplicate
    edge sets are collapsed.
    """
    per_destination: list[list[Path]] = []
    for dst in destinations:
        paths = enumerate_feasible_paths(graph, source, dst, max_delay_ms, relay_nodes)[:MAX_PATHS_PER_DESTINATION]
        if not paths:
            return []
        per_destination.append(paths)
    trees: set[frozenset[tuple[str, str]]] = set()
    for combo in itertools.product(*per_destination):
        edges = frozenset(edge for path in combo for edge in path.edges)
        trees.add(edges)
    return sorted(trees, key=lambda t: (len(t), sorted(t)))


def tree_packing_solution(
    graph: nx.DiGraph,
    source: str,
    destinations: list[str],
    relay_nodes: set[str] | None = None,
) -> list[tuple[frozenset[tuple[str, str]], float]]:
    """The packing optimum as explicit trees: [(edge frozenset, rate), ...].

    This is what a routing-only system deploys: stripe generations over
    the returned trees proportionally to their rates.  Empty when no
    tree spans all destinations.
    """
    destinations = list(destinations)
    if not destinations:
        raise ValueError("a multicast session needs at least one destination")
    trees = candidate_trees(graph, source, destinations, relay_nodes)
    if not trees:
        return []
    lp = LinearProgram()
    tree_vars = [lp.add_variable(f"t[{i}]") for i in range(len(trees))]
    by_edge: dict[tuple[str, str], list[Variable]] = {}
    for var, tree in zip(tree_vars, trees):
        for edge in sorted(tree):  # row order reaches the LP: not hash order
            by_edge.setdefault(edge, []).append(var)
    for edge, vars_on_edge in by_edge.items():
        expr: Variable | LinExpr = vars_on_edge[0]
        for var in vars_on_edge[1:]:
            expr = expr + var
        lp.add_constraint(expr <= float(graph.edges[edge]["capacity_mbps"]), name=f"cap[{edge}]")
    total: Variable | LinExpr = tree_vars[0]
    for var in tree_vars[1:]:
        total = total + var
    # A tiny preference for fewer edges breaks ties toward sparse trees.
    objective: Variable | LinExpr = total
    for var, tree in zip(tree_vars, trees):
        objective = objective - 1e-9 * len(tree) * var
    lp.maximize(objective)
    solution = lp.solve()
    return [
        (tree, solution[var]) for var, tree in zip(tree_vars, trees) if solution[var] > MIN_TREE_RATE_MBPS
    ]


def tree_packing_rate(
    graph: nx.DiGraph,
    source: str,
    destinations: list[str],
    relay_nodes: set[str] | None = None,
) -> float:
    """Optimal fractional tree-packing rate (Mbps).

    Returns 0.0 when no tree spans all destinations.
    """
    destinations = list(destinations)
    if not destinations:
        raise ValueError("a multicast session needs at least one destination")
    trees = candidate_trees(graph, source, destinations, relay_nodes)
    if not trees:
        return 0.0
    lp = LinearProgram()
    tree_vars = [lp.add_variable(f"t[{i}]") for i in range(len(trees))]
    by_edge: dict[tuple[str, str], list[Variable]] = {}
    for var, tree in zip(tree_vars, trees):
        for edge in sorted(tree):  # row order reaches the LP: not hash order
            by_edge.setdefault(edge, []).append(var)
    for edge, vars_on_edge in by_edge.items():
        expr: Variable | LinExpr = vars_on_edge[0]
        for var in vars_on_edge[1:]:
            expr = expr + var
        lp.add_constraint(expr <= float(graph.edges[edge]["capacity_mbps"]), name=f"cap[{edge}]")
    total: Variable | LinExpr = tree_vars[0]
    for var in tree_vars[1:]:
        total = total + var
    lp.maximize(total)
    return lp.solve().objective
