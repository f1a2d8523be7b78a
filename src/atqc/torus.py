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
degrees.  Each face owns two vertices A(i,j), B(i,j) and three edges; the
wraparound identification reduces (i, j) to a canonical coset
representative.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import SurfaceComplex
from .errors import InputError

APOTHEM = "apothem"
EDGE = "edge"


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


def build_square_torus(spec: SquareTorusSpec) -> SurfaceComplex:
    """Periodic l x l grid: l^2 vertices, 2l^2 edges, l^2 square faces."""
    l = spec.side

    def vid(i, j):
        return (j % l) * l + (i % l)

    def h_edge(i, j):  # (i,j) -- (i+1,j)
        return (j % l) * l + (i % l)

    def v_edge(i, j):  # (i,j) -- (i,j+1)
        return l * l + (j % l) * l + (i % l)

    edges = {}
    for j in range(l):
        for i in range(l):
            edges[h_edge(i, j)] = (vid(i, j), vid(i + 1, j))
            edges[v_edge(i, j)] = (vid(i, j), vid(i, j + 1))
    faces = {}
    for j in range(l):
        for i in range(l):
            faces[j * l + i] = (h_edge(i, j), v_edge(i + 1, j), h_edge(i, j + 1), v_edge(i, j))
    return SurfaceComplex(
        genus=1,
        vertices=range(l * l),
        edges=edges,
        faces=faces,
        label=f"square-torus l={l}",
    )


def _hex_canonical(spec: HexTorusSpec):
    """Return (face count, canonical-coset key function) for the wrap lattice."""
    s = spec.scale
    if spec.variant == APOTHEM:
        # wrap lattice: xi*u1, xi*u2
        def key(i, j):
            return (i % s, j % s)

        def linear(k):
            return k[0] * s + k[1]

        return s * s, key, linear
    # edge-scaled, lambda = 3m: wrap lattice generated by (m, m) and (3m, 0)
    m = s // 3

    def key(i, j):
        jq, jr = divmod(j, m)
        return ((i - m * jq) % (3 * m), jr)

    def linear(k):
        return k[0] * m + k[1]

    return 3 * m * m, key, linear


def build_hex_torus(spec: HexTorusSpec) -> SurfaceComplex:
    """Honeycomb on the torus; all faces hexagons, all vertices degree 3.

    Scales below xi = 2 produce faces that traverse an edge twice; such
    builds are flagged via ``degenerate_faces``, not rejected.
    """
    n_f, key, linear = _hex_canonical(spec)

    def A(i, j):
        return 2 * linear(key(i, j))

    def B(i, j):
        return 2 * linear(key(i, j)) + 1

    def e0(i, j):  # A(i,j) -- B(i,j)
        return 3 * linear(key(i, j))

    def e1(i, j):  # A(i,j) -- B(i-1,j)
        return 3 * linear(key(i, j)) + 1

    def e2(i, j):  # A(i,j) -- B(i,j-1)
        return 3 * linear(key(i, j)) + 2

    edges = {}
    faces = {}
    seen = set()
    for i in range(3 * spec.scale):
        for j in range(3 * spec.scale):
            k = key(i, j)
            if k in seen:
                continue
            seen.add(k)
            edges[e0(i, j)] = (A(i, j), B(i, j))
            edges[e1(i, j)] = (A(i, j), B(i - 1, j))
            edges[e2(i, j)] = (A(i, j), B(i, j - 1))
            faces[linear(k)] = (
                e0(i, j),
                e1(i + 1, j),
                e2(i + 1, j),
                e0(i + 1, j - 1),
                e1(i + 1, j - 1),
                e2(i, j),
            )
    assert len(faces) == n_f
    return SurfaceComplex(
        genus=1,
        vertices=range(2 * n_f),
        edges=edges,
        faces=faces,
        label=f"hex-torus-{spec.variant} scale={spec.scale}",
    )
