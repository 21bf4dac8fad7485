"""Chart the combinatorial types of a small tropical moduli space.

Lists the five combinatorial types of genus-1 curves with two marked
points, their dimensions and folding flags, and the specialization
order between them.
"""

from tropica.moduli_space import build_poset, enumerate_types
from tropica.graphs import serialize

GENUS, LEGS = 1, 2


def main():
    types = enumerate_types(GENUS, LEGS)
    poset = build_poset(types)
    print(f"combinatorial types for genus {GENUS} with {LEGS} marked "
          f"points ({len(types)} total):")
    for i, t in enumerate(poset.types):
        fold = "  [folded]" if t.folded else ""
        line = serialize(t.graph).strip().replace("\n", " / ")
        print(f"  {i}: dim {t.dimension}  {line}{fold}")
    print()
    print("edge contractions (lower < upper):")
    for low, high in poset.covers:
        print(f"  {low} < {high}")
    print()
    top = max(t.dimension for t in types)
    print(f"maximal dimension {top} "
          f"(= 3g - 3 + n = {3 * GENUS - 3 + LEGS})")


if __name__ == "__main__":
    main()
