"""Four small networks, worked end to end.

For each topology: the per-k condition verdicts, the maximum-identifiability
bounds, and the brute-force ground truth they are checked against.
"""

from nodeloc import (
    CAP,
    CSP,
    Topology,
    build_ensemble,
    cover_profile,
    max_identifiability,
    up_model,
    verdict_table,
)

CASES = {
    "chain m1-v1-v2-m2": Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3]),
    "single-monitor ring m-v1-v2-v3": Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0]),
    "one hop m1-v-m2": Topology(3, [(0, 1), (1, 2)], [0, 2]),
}


def show_table(label, verdicts, bounds, oracle):
    print(f"  {label}")
    for k, v in enumerate(verdicts):
        print(f"    k={k}: {v.value.value:<16} ({v.rationale})")
    exact = f", exact {bounds.exact}" if bounds.exact is not None else ""
    print(f"    bounds [{bounds.lower}, {bounds.upper}]{exact}   oracle {oracle}")


def main() -> None:
    for name, topo in CASES.items():
        print(f"\n{name}  (monitors {sorted(topo.monitors)}, sigma {topo.sigma})")
        print("=" * 60)
        show_table("arbitrary walks (CAP)", *verdict_table(topo, CAP), max_identifiability(topo, CAP))
        show_table("simple paths (CSP)", *verdict_table(topo, CSP), max_identifiability(topo, CSP))

    print("\nfixed two-path ensemble on the diamond m1-v1-m2 / m1-v1-v2-m2")
    print("=" * 60)
    diamond = Topology(4, [(0, 1), (1, 3), (1, 2), (2, 3)], [0, 3])
    ensemble = build_ensemble(diamond, [(0, 1, 3), (0, 1, 2, 3)])
    profile = cover_profile(ensemble)
    print(f"  cover sizes: {profile.cover_sizes}  (min {profile.min_cover})")
    up = up_model(ensemble)
    show_table("uncontrollable probing (UP)", *verdict_table(diamond, up), max_identifiability(diamond, up))
    print("""
  Reading the UP table: node v1 sits on every path, so no other node can
  hide it (cover size infinite), but v2's single path is already covered
  by v1 alone.  One failure is localizable, two are not.""")


if __name__ == "__main__":
    main()
