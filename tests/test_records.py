"""The record types: immutable named tuples compared by their fields."""

from fractions import Fraction

import pytest

import tropica
from tropica.chambers import Chamber, LinearForm
from tropica.elliptic_covers import EllipticCover, FeynmanGraph
from tropica.errors import ArgumentError, TropicaError
from tropica.feynman_series import MirrorRow
from tropica.graphs import Multigraph
from tropica.line_covers import CoverMultiplicity, LineCover
from tropica.moduli_space import CombinatorialType, ConePoset

THETA = Multigraph(2, [(0, 1)] * 3)

# (class, field values by name) for every record type
RECORDS = [
    (Multigraph, {"num_vertices": 2, "edges": ((0, 1),) * 3, "legs": (),
                  "genus": (0, 0)}),
    (LinearForm, {"mu_coeffs": (1, 0), "nu_coeffs": (-1,)}),
    (Chamber, {"walls": (LinearForm((1,), (-1, 0)),), "signs": ("+",),
               "witness_mu": (3,), "witness_nu": (2, 1)}),
    (FeynmanGraph, {"graph": THETA}),
    (EllipticCover, {"genus": 2, "edges": ((0, 1, 1, 1),)}),
    (MirrorRow, {"degree": 1, "q_power": 2, "tropical": Fraction(1, 2),
                 "series": Fraction(1, 2), "match": True}),
    (LineCover, {"genus": 0, "mu": (2,), "nu": (1, 1), "num_levels": 1,
                 "left_ends": ((1, 2),), "bounded_edges": (),
                 "right_ends": ((1, 1), (1, 1))}),
    (CoverMultiplicity, {"weight_product": 1, "forks": 1, "wieners": 0,
                         "value": Fraction(1, 2)}),
    (CombinatorialType, {"graph": Multigraph(1, legs=[(0, 1), (0, 2),
                                                       (0, 3)]),
                         "key": "V 1 E 0 L 3\nl 0 1\nl 0 2\nl 0 3\n",
                         "skeleton": Multigraph(1), "leg_map": (0, 0, 0),
                         "folded": False}),
    (ConePoset, {"types": (), "covers": ((0, 1),)}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_fields_and_construction(cls, values):
    assert cls._fields == tuple(values)
    record = cls(**values)
    assert record == cls(*values.values())
    for name, value in values.items():
        assert getattr(record, name) == value
    assert tuple(record) == tuple(values.values())
    assert len(record) == len(values)


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(cls, values):
    one, two = cls(**values), cls(**values)
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    name, value = next(iter(values.items()))
    if cls is Multigraph:  # every field is checked: change one validly
        assert cls(**dict(values, genus=(1, 0))) != one
    elif cls is not FeynmanGraph:  # the only field is the checked graph
        changed = cls(**dict(values, **{name: (value, "other")}))
        assert changed != one


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_repr_names_the_fields(cls, values):
    fields = ", ".join(f"{k}={v!r}" for k, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_records_are_immutable(cls, values):
    record = cls(**values)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**values)


def test_every_public_value_class_is_a_record():
    # their terms are dicts, so as tuples they could be neither hashed nor
    # frozen; TruncatedSeries also keeps its own + and *, which tuples shadow
    kept = {"TruncatedSeries", "ChamberPolynomial"}
    classes = {name for name in tropica.__all__
               if isinstance(getattr(tropica, name), type)
               and not issubclass(getattr(tropica, name), TropicaError)}
    assert classes - kept == set(IDS)


@pytest.mark.parametrize("graph, message", [
    (Multigraph(2, [(0, 0), (0, 1), (1, 1)]), "no loops"),
    (Multigraph(2, [(0, 1)] * 3, legs=[(0, 1)]), "undecorated"),
    (Multigraph(2, [(0, 1)] * 2), "3-valent"),
    (Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3), "connected"),
], ids=["loop", "leg", "two-valent", "disconnected"])
def test_feynman_graph_keeps_its_checks(graph, message):
    with pytest.raises(ArgumentError, match=message):
        FeynmanGraph(graph)
    with pytest.raises(ArgumentError, match=message):
        FeynmanGraph(graph=graph)
