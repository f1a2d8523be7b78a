"""Explicit Euclidean torus complexes: {4,4} square and {6,3} hexagonal.

Either torus is the plane divided by a wrap lattice of the tiling's
translations, spanned by (a, 0) and (b, c) in Hermite normal form over cell
coordinates (i, j); each spec names its own as ``lattice`` = (a, b, c).  Both
builders number the a*c cells 0 <= i < a, 0 <= j < c one way: (i, j) is
((i - (j // c) * b) mod a) * c + j mod c.

* square l x l, (l, 0, l): i is the row, j the column.  Cell x owns vertex
  x, the face up and right of it, and edges x (right) and l^2 + x (up).
* hexagonal, over the axial basis u1, u2 = sqrt(3)*l at +30 and -30 degrees;
  each face owns two vertices A, B and three edges.  Apothem-scaled
  (xi, 0, xi): side L = 2*xi times the apothem l*sqrt(3)/2; xi^2 faces,
  3*xi^2 edges.  Edge-scaled (3m, m, m): side L = lambda*l along an edge,
  where the translations have period 3l, so lambda = 3m; lambda^2/3 faces,
  lambda^2 edges.

Every builder refuses more than MAX_BUILD_EDGES edges before it allocates
anything: each row of the check matrices hx and hz is an E-bit integer, so
``atqc check`` grows as E * (V + F).  At the cap (square l = 181) it stays
under a gigabyte; square l = 256 would not.
"""
from __future__ import annotations

from typing import NamedTuple

from .complexes import SurfaceComplex
from .errors import InputError, _Checked, _as_int

APOTHEM = "apothem"
EDGE = "edge"
MAX_BUILD_EDGES = 65_536


class SquareTorusSpec(_Checked, NamedTuple("SquareTorusSpec", [("side", int)])):
    """An l x l square-lattice torus; l = 1 degenerates to loops and is rejected."""

    __slots__ = ()

    def __new__(cls, side: int):
        if _as_int(side, "square torus side") < 2:
            raise InputError(f"square torus side must be >= 2, got {side}")
        return super().__new__(cls, side)

    @property
    def lattice(self) -> tuple[int, int, int]:
        """The wrap lattice (a, b, c) = (l, 0, l)."""
        return self.side, 0, self.side


class HexTorusSpec(_Checked, NamedTuple("HexTorusSpec", [("variant", str), ("scale", int)])):
    """Hexagonal torus request: variant 'apothem' (scale = xi) or 'edge' (scale = lambda)."""

    __slots__ = ()

    def __new__(cls, variant: str, scale: int):
        if variant not in (APOTHEM, EDGE):
            raise InputError(f"unknown hex torus variant {variant!r}")
        if _as_int(scale, "hex torus scale") < 1:
            raise InputError(f"hex torus scale must be >= 1, got {scale}")
        if variant == EDGE and scale % 3 != 0:
            raise InputError(
                f"edge-scaled hex torus requires 3 | lambda: lambda={scale} "
                f"gives a non-integer face count {scale}^2/3"
            )
        return super().__new__(cls, variant, scale)

    @property
    def lattice(self) -> tuple[int, int, int]:
        """The wrap lattice (a, b, c): (xi, 0, xi) apothem-scaled, (3m, m, m) edge-scaled."""
        s = self.scale
        return (s, 0, s) if self.variant == APOTHEM else (s, s // 3, s // 3)


def _check_edges(n: int, what: str) -> None:
    if n > MAX_BUILD_EDGES:
        raise InputError(f"{what} has n = {n} edges, above the build limit of {MAX_BUILD_EDGES}")


def _cells(lattice: tuple[int, int, int], edges_per_cell: int, what: str):
    """The numbering cell(i, j) of the wrap lattice, once its edges pass the cap."""
    a, b, c = lattice
    _check_edges(edges_per_cell * a * c, what)
    return lambda i, j: (i - j // c * b) % a * c + j % c


def build_square_torus(spec: SquareTorusSpec) -> SurfaceComplex:
    """Periodic l x l grid: l^2 vertices, 2l^2 edges, l^2 square faces."""
    l = spec.side
    cell = _cells(spec.lattice, 2, f"square torus l={l}")
    n = l * l
    edges, faces = {}, {}
    for i in range(l):
        for j in range(l):
            x, right, up = cell(i, j), cell(i, j + 1), cell(i + 1, j)
            edges[x] = (x, right)
            edges[n + x] = (x, up)
            faces[x] = (x, n + right, up, n + x)
    return SurfaceComplex(
        genus=1,
        vertices=range(n),
        edges=edges,
        faces=faces,
        label=f"square-torus l={l}",
    )


def build_hex_torus(spec: HexTorusSpec) -> SurfaceComplex:
    """Honeycomb on the torus; all faces hexagons, all vertices degree 3.

    Scales below xi = 2 produce faces that traverse an edge twice; such
    builds are flagged via ``degenerate_faces``, not rejected.
    """
    a, _, c = spec.lattice
    cell = _cells(spec.lattice, 3, f"hex torus {spec.variant}={spec.scale}")
    # face x = cell(i, j) owns vertices A = 2x, B = 2x+1 and edges 3x (A -- B),
    # 3x+1 (A -- B of (i-1, j)) and 3x+2 (A -- B of (i, j-1)); its other three
    # edges belong to its neighbours at +30 degrees (i+1, j) and above (i+1, j-1)
    edges, faces = {}, {}
    for i in range(a):
        for j in range(c):
            x, side, top = cell(i, j), cell(i + 1, j), cell(i + 1, j - 1)
            edges[3 * x] = (2 * x, 2 * x + 1)
            edges[3 * x + 1] = (2 * x, 2 * cell(i - 1, j) + 1)
            edges[3 * x + 2] = (2 * x, 2 * cell(i, j - 1) + 1)
            faces[x] = (3 * x, 3 * side + 1, 3 * side + 2, 3 * top, 3 * top + 1, 3 * x + 2)
    return SurfaceComplex(
        genus=1,
        vertices=range(2 * a * c),
        edges=edges,
        faces=faces,
        label=f"hex-torus-{spec.variant} scale={spec.scale}",
    )
