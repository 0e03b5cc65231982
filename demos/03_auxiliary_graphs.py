"""Why a virtual monitor turns monitoring questions into connectivity ones.

The merged graph deletes all monitors, adds one virtual monitor wired to
every node that bordered a real monitor, and joins those border nodes into a
clique.  The demo builds both auxiliary variants for a small network and
verifies the equivalence they exist for: surviving components keep a monitor
for all deletions up to size s exactly when the auxiliary graph is
(s+1)-vertex-connected.  The analyses never build these graphs:
``monitor_connectivity`` reads the same connectivity off the topology.
"""

from itertools import combinations

from nodeloc import Topology, connected_components, monitor_connectivity

# two monitors feeding a 4-node mesh
TOPO = Topology(
    6,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
    [0, 5],
)


def auxiliary_graph(topology, left_out=None):
    """The auxiliary graph as the paper builds it: ``(graph, virtual edges)``.

    Non-monitors are renumbered densely in id order and the virtual monitor
    comes last; ``left_out`` is deleted without joining the virtual monitor.
    """
    aux_id = {v: i for i, v in enumerate(sorted(topology.non_monitors))}
    virtual = len(aux_id)
    inherited = {(aux_id[u], aux_id[v]) for u, v in topology.edges if u in aux_id and v in aux_id}
    boundary = sorted(
        aux_id[v] for m in topology.monitors - {left_out} for v in topology.neighbors(m) if v in aux_id
    )
    virtual_edges = {(b, virtual) for b in boundary} | set(combinations(boundary, 2)) - inherited
    return Topology(virtual + 1, inherited | virtual_edges, [virtual]), virtual_edges


def all_components_monitored(topology, s) -> bool:
    """Raw enumeration: no deletion of at most ``s`` non-monitors leaves a monitorless component."""
    return all(
        component & topology.monitors
        for size in range(s + 1)
        for deleted in combinations(sorted(topology.non_monitors), size)
        for component in connected_components(topology, deleted)
    )


def describe(left_out, label) -> None:
    aux, virtual_edges = auxiliary_graph(TOPO, left_out)
    print(f"  {label}")
    print(f"    nodes: {aux.node_count} (virtual monitor is id {aux.node_count - 1})")
    print(f"    inherited + virtual edges: {sorted(aux.edges)}")
    print(f"    virtual edges only:        {sorted(virtual_edges)}")
    print(f"    vertex connectivity:       {monitor_connectivity(TOPO, left_out)}")


def main() -> None:
    print(f"topology edges: {sorted(TOPO.edges)}, monitors {sorted(TOPO.monitors)}")
    describe(None, "all monitors merged")
    for m in sorted(TOPO.monitors):
        describe(m, f"leaving monitor {m} out")

    print("\nequivalence check against raw component enumeration:")
    d = monitor_connectivity(TOPO)
    for s in range(TOPO.sigma):
        raw = all_components_monitored(TOPO, s)
        conn = d >= s + 1
        marker = "ok" if raw == conn else "MISMATCH"
        print(
            f"  every <= {s}-node deletion keeps all components monitored: "
            f"{str(raw):<5}  <->  merged graph {s + 1}-connected: {str(conn):<5}  [{marker}]"
        )


if __name__ == "__main__":
    main()
