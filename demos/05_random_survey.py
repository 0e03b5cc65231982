"""Survey: condition bounds versus brute-force truth on seeded random graphs.

For a few hundred small random topologies, compare where the polynomial
bounds place the maximum identifiability against the exhaustive answer.
Whenever the one-unit window applies, the truth must land inside it; the
survey tallies how often the window is tight at its top or bottom.
"""

from collections import Counter

from nodeloc import CAP, CSP, max_identifiability, verdict_table
from nodeloc.generate import erdos_renyi


def survey(model_name, model, count=200):
    tallies = Counter()
    for i in range(count):
        doc = erdos_renyi(4 + i % 5, (0.3, 0.5, 0.7)[i % 3], seed=i, monitors=1 + i % 3)
        topo = doc.to_topology()
        omega = max_identifiability(topo, model)
        b = verdict_table(topo, model)[1]
        assert b.lower <= omega <= b.upper, "bound violation"
        if not b.applicable:
            if b.lower == b.upper:
                tallies["exact rule pinned the value"] += 1
            else:
                tallies["guard failed, scan fallback"] += 1
        elif b.lower == b.upper:
            tallies["window already tight"] += 1
        elif omega == b.upper:
            tallies["window open, truth at top"] += 1
        else:
            tallies["window open, truth at bottom"] += 1
    print(f"\n{model_name} over {count} seeded graphs (4-8 nodes, 1-3 monitors)")
    for label, n in tallies.most_common():
        print(f"  {label:<32} {n:>4}")


def main() -> None:
    survey("arbitrary walks (CAP)", CAP)
    survey("simple paths (CSP)", CSP)
    print("""
Every instance satisfied lower <= truth <= upper; the interesting split is
how often the window needed the brute-force engine to resolve its one-unit
gap versus being pinned by an exact full-budget rule.""")


if __name__ == "__main__":
    main()
