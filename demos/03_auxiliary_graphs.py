"""Why a virtual monitor turns monitoring questions into connectivity ones.

The merged graph deletes all monitors, adds one virtual monitor wired to
every node that bordered a real monitor, and joins those border nodes into a
clique.  The demo builds both auxiliary variants for a small network and
verifies the equivalence they exist for: surviving components keep a monitor
for all deletions up to size s exactly when the auxiliary graph is
(s+1)-vertex-connected.
"""

from nodeloc import (
    Topology,
    exhaustive_component_condition,
    is_k_connected,
    merge_monitors,
    merge_monitors_leaving_out,
    vertex_connectivity,
)

# two monitors feeding a 4-node mesh
TOPO = Topology(
    6,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
    [0, 5],
)


def describe(aux, label) -> None:
    print(f"  {label}")
    print(f"    nodes: {aux.node_count} (virtual monitor is id {aux.virtual_monitor})")
    print(f"    inherited + virtual edges: {sorted(aux.edges)}")
    print(f"    virtual edges only:        {sorted(aux.virtual_edges)}")
    print(f"    vertex connectivity:       {vertex_connectivity(aux)}")


def main() -> None:
    print(f"topology edges: {sorted(TOPO.edges)}, monitors {sorted(TOPO.monitors)}")
    merged = merge_monitors(TOPO)
    describe(merged, "all monitors merged")
    for m in sorted(TOPO.monitors):
        describe(merge_monitors_leaving_out(TOPO, m), f"leaving monitor {m} out")

    print("\nequivalence check against raw component enumeration:")
    for s in range(TOPO.sigma):
        raw = exhaustive_component_condition(TOPO, s)
        conn = is_k_connected(merged, s + 1)
        marker = "ok" if raw == conn else "MISMATCH"
        print(
            f"  every <= {s}-node deletion keeps all components monitored: "
            f"{str(raw):<5}  <->  merged graph {s + 1}-connected: {str(conn):<5}  [{marker}]"
        )


if __name__ == "__main__":
    main()
