"""Explicit Euclidean torus complexes: {4,4} square and {6,3} hexagonal.

The hexagonal builders cover both parallelogram scalings of the rhombic
fundamental domain (interior angle pi/3):

* apothem-scaled: side length L = 2*xi*a, where a = l*sqrt(3)/2 is the
  hexagon apothem.  Wraps the honeycomb by xi steps of the two
  center-to-center lattice vectors; xi^2 faces, 3*xi^2 edges.
* edge-scaled: side length L = lambda*l along a hexagon edge direction.
  The translation lattice has period 3l in an edge direction, so a tiling
  exists only when 3 | lambda; lambda^2/3 faces, lambda^2 edges.

Lattice convention: hexagon faces are indexed by axial coordinates (i, j)
over the basis u1 = sqrt(3)*l at +30 degrees, u2 = sqrt(3)*l at -30
degrees.  The wrap lattice is spanned by (a, 0) and (b, c) in Hermite
normal form: (xi, 0, xi) for the apothem scaling and (3m, m, m) for the
edge scaling, lambda = 3m.  Its cells are 0 <= i < a, 0 <= j < c, and
(i, j) is numbered ((i - (j // c) * b) mod a) * c + j mod c.  Each face
owns two vertices A, B and three edges, numbered from its cell.

Every builder refuses more than MAX_BUILD_EDGES edges before it allocates
anything: each row of the check matrices hx and hz is an E-bit integer, so
``atqc check`` grows as E * (V + F).  At the cap (square l = 181) it stays
under a gigabyte; square l = 256 would not.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import SurfaceComplex
from .errors import InputError

APOTHEM = "apothem"
EDGE = "edge"
MAX_BUILD_EDGES = 65_536


@dataclass(frozen=True)
class SquareTorusSpec:
    """An l x l square-lattice torus; l = 1 degenerates to loops and is rejected."""

    side: int

    def __post_init__(self):
        if self.side < 2:
            raise InputError(f"square torus side must be >= 2, got {self.side}")


@dataclass(frozen=True)
class HexTorusSpec:
    """Hexagonal torus request: variant 'apothem' (scale = xi) or 'edge' (scale = lambda)."""

    variant: str
    scale: int

    def __post_init__(self):
        if self.variant not in (APOTHEM, EDGE):
            raise InputError(f"unknown hex torus variant {self.variant!r}")
        if self.scale < 1:
            raise InputError(f"hex torus scale must be >= 1, got {self.scale}")
        if self.variant == EDGE and self.scale % 3 != 0:
            raise InputError(
                f"edge-scaled hex torus requires 3 | lambda: lambda={self.scale} "
                f"gives a non-integer face count {self.scale}^2/3"
            )


def _check_edges(n: int, what: str) -> None:
    if n > MAX_BUILD_EDGES:
        raise InputError(f"{what} has n = {n} edges, above the build limit of {MAX_BUILD_EDGES}")


def build_square_torus(spec: SquareTorusSpec) -> SurfaceComplex:
    """Periodic l x l grid: l^2 vertices, 2l^2 edges, l^2 square faces."""
    l = spec.side
    _check_edges(2 * l * l, f"square torus l={l}")

    def cell(i, j):  # vertex (i, j), the face above it and edge (i, j) -- (i+1, j)
        return (j % l) * l + i % l

    n = l * l  # edge n + cell(i, j) is (i, j) -- (i, j+1)
    edges, faces = {}, {}
    for j in range(l):
        for i in range(l):
            x, right, up = cell(i, j), cell(i + 1, j), cell(i, j + 1)
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
    s = spec.scale
    # the wrap lattice spanned by (a, 0) and (b, c): xi*u1, xi*u2, or (3m, 0), (m, m)
    a, b, c = (s, 0, s) if spec.variant == APOTHEM else (s, s // 3, s // 3)
    _check_edges(3 * a * c, f"hex torus {spec.variant}={s}")

    def cell(i, j):
        return (i - j // c * b) % a * c + j % c

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
