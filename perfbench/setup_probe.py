"""Set-up probe: import divtim and load one instance through the public loaders.

Usage: python3 perfbench/setup_probe.py EDGES NODE_WEIGHTS PROFILES

This is the work every CLI command repeats before its first estimate.
Prints the node, edge, target and profile counts so the caller can check
that the load succeeded.
"""

import sys

import divtim


def main(argv: list[str]) -> int:
    edges, node_weights, profiles = argv
    graph = divtim.load_node_weights(divtim.load_graph(edges, "explicit"), node_weights)
    targets = divtim.select_targets(graph, "top_percent", percent=25.0)
    profile_set = divtim.load_profiles(profiles, node_labels=graph.labels)
    print(graph.node_count, graph.edge_count, len(targets), profile_set.node_count)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
