import re
from fractions import Fraction
from pathlib import Path

import pytest

from atqc.complexes import load_complex
from atqc.torus import HexTorusSpec, SquareTorusSpec, build_hex_torus, build_square_torus

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
OCTAGONAL_GENUS2 = DATA_DIR / "hyperbolic_octagonal_genus2.json"


@pytest.fixture(scope="session")
def ingested_genus2():
    with OCTAGONAL_GENUS2.open() as fh:
        return load_complex(fh)


def corpus_complexes():
    """The test corpus: square l <= 5, hex xi <= 4, hex-edge lambda in {3, 6}."""
    out = []
    for l in range(2, 6):
        out.append(build_square_torus(SquareTorusSpec(l)))
    for xi in range(1, 5):
        out.append(build_hex_torus(HexTorusSpec("apothem", xi)))
    for lam in (3, 6):
        out.append(build_hex_torus(HexTorusSpec("edge", lam)))
    return out


@pytest.fixture(scope="session")
def corpus(ingested_genus2):
    return corpus_complexes() + [ingested_genus2]


def table1_value(formula, p, g):
    """A printed Table 1 formula such as ``4p(g-1)/(3p-10)``, exactly, at (p, g)."""
    expr = re.sub(r"(?<=[\dpg)])(?=[pg(])", "*", formula)  # 4p(g-1) -> 4*p*(g-1)
    assert re.fullmatch(r"[\dpg()*/+-]+", expr), formula
    return eval(expr, {"__builtins__": {}}, {"p": Fraction(p), "g": Fraction(g)})
