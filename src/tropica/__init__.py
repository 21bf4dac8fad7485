"""tropica: exact tropical Hurwitz counts, chamber polynomials,
Feynman-type q-series, small graph homology, and moduli cone posets.

Everything computes over exact rationals; no floating point anywhere.
"""

from .chambers import (Chamber, ChamberPolynomial, LinearForm,
                       chamber_decomposition, chamber_polynomial, walls)
from .elliptic_covers import (EllipticCover, FeynmanGraph,
                              count_labeled_covers, enumerate_elliptic_covers,
                              enumerate_feynman_graphs, labeled_aggregate,
                              simple_hurwitz_tropical)
from .errors import (ArgumentError, CrossCheckError, DegenerateInputError,
                     LoopContractionError, SizeGuardError, TropicaError)
from .feynman_series import (MirrorRow, TruncatedSeries, coarse_integral,
                             eisenstein_E2, mirror_check, propagator_factor,
                             refined_integral)
from .graph_complex import (basis, differential, differential_matrix,
                            homology_dimension, normalize, wheel_class,
                            wheel_graph)
from .graphs import (Multigraph, automorphism_group_order, automorphisms,
                     canonical_form, canonical_key, contract_edge,
                     contract_loop, enumerate_graphs, parse_graph, serialize)
from .line_covers import (CoverMultiplicity, LineCover,
                          double_hurwitz_tropical, enumerate_line_covers,
                          multiplicity)
from .moduli_space import (CombinatorialType, ConePoset, build_poset,
                           enumerate_types, is_folded, max_dimension)
from .sym_oracle import hurwitz_elliptic, hurwitz_line

__version__ = "0.2.0"

__all__ = [
    "ArgumentError", "Chamber", "ChamberPolynomial", "CombinatorialType",
    "ConePoset", "CoverMultiplicity", "CrossCheckError",
    "DegenerateInputError", "EllipticCover", "FeynmanGraph", "LineCover",
    "LinearForm", "LoopContractionError", "MirrorRow", "Multigraph",
    "SizeGuardError", "TropicaError", "TruncatedSeries",
    "automorphism_group_order", "automorphisms", "basis", "build_poset",
    "canonical_form", "canonical_key", "chamber_decomposition",
    "chamber_polynomial", "coarse_integral", "contract_edge", "contract_loop",
    "count_labeled_covers", "differential", "differential_matrix",
    "double_hurwitz_tropical", "eisenstein_E2", "enumerate_elliptic_covers",
    "enumerate_feynman_graphs", "enumerate_graphs", "enumerate_line_covers",
    "enumerate_types", "homology_dimension", "hurwitz_elliptic",
    "hurwitz_line", "is_folded", "labeled_aggregate", "max_dimension",
    "mirror_check", "multiplicity", "normalize", "parse_graph",
    "propagator_factor", "refined_integral", "serialize",
    "simple_hurwitz_tropical", "walls", "wheel_class", "wheel_graph",
]
