"""The library's records are NamedTuples: reprs, constructor checks, immutability."""
import re
from fractions import Fraction

import pytest

from atqc.catalog import TABLE1_FAMILIES, family_params
from atqc.distance import DistanceResult, certified_distances
from atqc.errors import InputError
from atqc.geometry import SchlafliPair, census
from atqc.homology import boundary_matrices
from atqc.stabilizer import build_css
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_square_torus


def test_reprs_name_every_field(ingested_genus2):
    assert repr(SchlafliPair(7, 3)) == "SchlafliPair(p=7, q=3)"
    assert repr(SquareTorusSpec(4)) == "SquareTorusSpec(side=4)"
    assert repr(HexTorusSpec("apothem", 2)) == "HexTorusSpec(variant='apothem', scale=2)"
    assert repr(HexTorusSpec("edge", 6)) == "HexTorusSpec(variant='edge', scale=6)"
    assert repr(certified_distances(ingested_genus2)) == (
        "DistanceResult(d_x=5, d_z=2, witness_x=(7, 11, 12, 14, 19), witness_z=(0, 4), "
        "method='both-agree')"
    )
    assert str(SchlafliPair(7, 3)) == "{7,3}"


# the range and variant checks; tests/test_geometry.py and tests/test_torus.py pin
# the messages for fields that are not integers
BAD_RECORDS = [
    (lambda: SchlafliPair(2, 3), "Schlafli symbol needs p, q >= 3, got {2,3}"),
    (lambda: SchlafliPair(7, 2), "Schlafli symbol needs p, q >= 3, got {7,2}"),
    (lambda: SquareTorusSpec(1), "square torus side must be >= 2, got 1"),
    (lambda: HexTorusSpec("vertex", 3), "unknown hex torus variant 'vertex'"),
    (lambda: HexTorusSpec("apothem", 0), "hex torus scale must be >= 1, got 0"),
    (lambda: HexTorusSpec("edge", 4),
     "edge-scaled hex torus requires 3 | lambda: lambda=4 gives a non-integer face count 4^2/3"),
]


@pytest.mark.parametrize("make, message", BAD_RECORDS)
def test_constructors_reject_bad_fields_with_their_messages(make, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("record, change, message", [
    (SchlafliPair(7, 3), {"q": 2}, "Schlafli symbol needs p, q >= 3, got {7,2}"),
    (SchlafliPair(7, 3), {"p": 7.5}, "Schlafli p must be an integer, got 7.5"),
    (SquareTorusSpec(4), {"side": 1}, "square torus side must be >= 2, got 1"),
    (HexTorusSpec("apothem", 4), {"variant": "edge"},
     "edge-scaled hex torus requires 3 | lambda: lambda=4 gives a non-integer face count 4^2/3"),
    (HexTorusSpec("edge", 6), {"scale": 0}, "hex torus scale must be >= 1, got 0"),
])
def test_replace_and_make_run_the_constructor_checks(record, change, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        record._replace(**change)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_keeps_the_record_type():
    pair = SchlafliPair(7, 3)._replace(q=4)
    assert type(pair) is SchlafliPair and pair == SchlafliPair(7, 4) and pair.dual == SchlafliPair(4, 7)
    spec = HexTorusSpec("apothem", 3)._replace(variant="edge")
    assert type(spec) is HexTorusSpec and spec.lattice == (3, 1, 1)
    assert SquareTorusSpec(4)._replace().lattice == (4, 0, 4)
    assert type(SquareTorusSpec._make([5])) is SquareTorusSpec
    with pytest.raises(ValueError, match="unexpected field names"):
        SchlafliPair(7, 3)._replace(r=4)


def records():
    torus = build_square_torus(SquareTorusSpec(2))
    return [
        SchlafliPair(7, 3),
        SquareTorusSpec(4),
        HexTorusSpec("edge", 6),
        DistanceResult(2, 2, (0, 1), (2, 3), "search"),
        build_css(torus),
        boundary_matrices(torus),
        census(SchlafliPair(7, 3), 2),
        family_params(SchlafliPair(7, 3), 2),
        TABLE1_FAMILIES[3],
    ]


@pytest.mark.parametrize("record", records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_records_are_tuples():
    pair = SchlafliPair(7, 3)
    assert pair == (7, 3) and tuple(pair) == (7, 3) and len(pair) == 2
    assert pair._asdict() == {"p": 7, "q": 3}
    assert census(pair, 2) == (Fraction(12), Fraction(28), Fraction(42), True)
    p, q = pair
    assert SchlafliPair(q, p) == pair.dual
