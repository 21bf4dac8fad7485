"""Follow a wheel graph through the graph complex.

Builds the genus-3 wheel (a triangle with a hub), shows that its
boundary vanishes, that it is not a boundary itself, and that it spans
the only nonzero homology group in genus at most 4.
"""

from tropica.graph_complex import (basis, differential, differential_matrix,
                                   homology_dimension, wheel_class,
                                   wheel_graph)
from tropica.graphs import serialize


def main():
    wheel = wheel_graph(3)
    flat = serialize(wheel).strip().replace("\n", " / ")
    print(f"genus-3 wheel: {flat}")
    chain = wheel_class(3)
    (key, coeff), = chain.items()
    print(f"its class: {coeff} * [{key.strip().replace(chr(10), ' / ')}]")
    print(f"boundary vanishes: {differential(chain) == {}}")
    print()
    print("basis sizes by edge count:")
    for g in (2, 3, 4):
        sizes = {n: len(basis(g, n)) for n in range(g + 1, 3 * g - 2)}
        print(f"  genus {g}: {sizes}")
    print()
    domain, codomain, entries = differential_matrix(3, 7)
    print(f"nothing maps onto the 6-edge basis: matrix is "
          f"{len(codomain)}x{len(domain)} with {len(entries)} entries")
    for g, n in ((2, 3), (3, 6), (4, 6)):
        print(f"homology dimension at genus {g}, {n} edges: "
              f"{homology_dimension(g, n)}")
    print()
    print("even wheels die under normalization (an automorphism acts "
          "with odd sign):")
    for g in (2, 4):
        print(f"  wheel_class({g}) = {wheel_class(g)}")


if __name__ == "__main__":
    main()
